import dataclasses
import math

import numpy as np
import pytest

from mediamod import (
    EnsembleStats,
    MoleculeState,
    PbsEnsemble,
    Population,
    apply_modulation,
    count_state_a_in_rx,
    empirical_pmf,
    init_population,
    link_switch_probability,
    load_config,
    received_distribution,
    run_ensemble,
    step,
)

ANALYTIC_MEAN = 11.25576793623867
SWITCHED_MEAN = 11.267139330508646


def _uniform_pop(n, z, state=MoleculeState.STATE_B):
    return Population(
        z=np.full(n, z, dtype=float),
        state=np.full(n, state, dtype=np.int8),
    )


def test_init_population(default_cfg):
    pop = init_population(default_cfg, np.random.default_rng(4))
    assert len(pop) == default_cfg.n_sys
    assert np.all(pop.state == MoleculeState.STATE_B)
    assert np.all((pop.z >= 0.0) & (pop.z < default_cfg.sys_length))


def test_init_population_deterministic(default_cfg):
    a = init_population(default_cfg, np.random.default_rng(4))
    b = init_population(default_cfg, np.random.default_rng(4))
    assert np.array_equal(a.z, b.z)


def test_init_population_uniform_occupancy(default_cfg):
    # fraction starting inside the illuminated interval approaches p_tx
    cfg = dataclasses.replace(default_cfg, n_sys=200_000)
    pop = init_population(cfg, np.random.default_rng(10))
    in_tx = np.mean((pop.z >= cfg.z_a_tx) & (pop.z <= cfg.z_b_tx))
    se = math.sqrt(cfg.p_tx * (1 - cfg.p_tx) / cfg.n_sys)
    assert abs(in_tx - cfg.p_tx) < 3.5 * se


def test_modulation_certain_switch_flips_exactly_the_illuminated(default_cfg):
    pop = init_population(default_cfg, np.random.default_rng(6))
    in_tx = int(
        np.count_nonzero((pop.z >= default_cfg.z_a_tx) & (pop.z <= default_cfg.z_b_tx))
    )
    flipped = apply_modulation(pop, default_cfg, 1, 1.0, np.random.default_rng(0))
    assert flipped == in_tx
    assert int(np.count_nonzero(pop.state == MoleculeState.STATE_A)) == in_tx
    # nobody outside the interval switched
    outside = (pop.z < default_cfg.z_a_tx) | (pop.z > default_cfg.z_b_tx)
    assert np.all(pop.state[outside] == MoleculeState.STATE_B)


def test_modulation_dark_bit_flips_nothing_but_advances_the_stream(default_cfg):
    pop0 = init_population(default_cfg, np.random.default_rng(6))
    pop1 = init_population(default_cfg, np.random.default_rng(6))
    rng0 = np.random.default_rng(31)
    rng1 = np.random.default_rng(31)
    n0 = apply_modulation(pop0, default_cfg, 0, 0.5, rng0)
    n1 = apply_modulation(pop1, default_cfg, 1, 0.5, rng1)
    assert n0 == 0
    assert np.all(pop0.state == MoleculeState.STATE_B)
    assert n1 > 0
    # both bits consume the same randomness: the streams stay aligned
    assert rng0.random() == rng1.random()


def test_modulation_partial_probability(default_cfg):
    cfg = dataclasses.replace(default_cfg, n_sys=200_000)
    pop = init_population(cfg, np.random.default_rng(12))
    flipped = apply_modulation(pop, cfg, 1, 0.25, np.random.default_rng(13))
    in_tx = int(np.count_nonzero((pop.z >= cfg.z_a_tx) & (pop.z <= cfg.z_b_tx)))
    se = math.sqrt(in_tx * 0.25 * 0.75)
    assert abs(flipped - 0.25 * in_tx) < 4 * se


def test_modulation_validation(default_cfg):
    pop = init_population(default_cfg, np.random.default_rng(1))
    with pytest.raises(ValueError):
        apply_modulation(pop, default_cfg, 2, 0.5, np.random.default_rng(0))
    with pytest.raises(ValueError):
        apply_modulation(pop, default_cfg, 1, 1.5, np.random.default_rng(0))


def test_step_moments(default_cfg):
    n = 200_000
    pop = _uniform_pop(n, 0.125)
    step(pop, default_cfg, 1.0, np.random.default_rng(3))
    drift = default_cfg.flow_v * 1.0
    sigma = math.sqrt(2.0 * default_cfg.diff_b * 1.0)
    assert abs(pop.z.mean() - (0.125 + drift)) < 4 * sigma / math.sqrt(n)
    assert pop.z.std(ddof=1) == pytest.approx(sigma, rel=0.02)


def test_step_uses_state_dependent_diffusion(default_cfg):
    cfg = dataclasses.replace(default_cfg, diff_a=4e-10)
    n = 100_000
    pop = Population(
        z=np.zeros(2 * n),
        state=np.array([MoleculeState.STATE_A] * n + [MoleculeState.STATE_B] * n,
                       dtype=np.int8),
    )
    step(pop, cfg, 1.0, np.random.default_rng(17))
    spread_a = pop.z[:n].std(ddof=1)
    spread_b = pop.z[n:].std(ddof=1)
    assert spread_a == pytest.approx(math.sqrt(2 * 4e-10), rel=0.02)
    assert spread_b == pytest.approx(math.sqrt(2 * 1e-10), rel=0.02)


def test_step_accumulates_like_a_single_jump(default_cfg):
    # 2000 small steps reach the same law as one coalesced displacement
    n = 20_000
    pop = _uniform_pop(n, 0.125)
    rng = np.random.default_rng(23)
    for _ in range(2000):
        step(pop, default_cfg, 0.01, rng)
    drift = default_cfg.flow_v * 20.0
    sigma = math.sqrt(2.0 * default_cfg.diff_b * 20.0)
    assert abs(pop.z.mean() - (0.125 + drift)) < 4 * sigma / math.sqrt(n)
    assert pop.z.std(ddof=1) == pytest.approx(sigma, rel=0.03)


def test_step_validation(default_cfg):
    pop = _uniform_pop(10, 0.1)
    with pytest.raises(ValueError):
        step(pop, default_cfg, 0.0, np.random.default_rng(0))
    with pytest.raises(ValueError):
        step(pop, default_cfg, -0.1, np.random.default_rng(0))


def test_window_count_inclusive_edges(default_cfg):
    z = np.array([0.3, 0.35, 0.32, 0.32, 0.29999, 0.35001, 0.0])
    state = np.array([1, 1, 1, 0, 1, 1, 1], dtype=np.int8)
    pop = Population(z=z, state=state)
    # both window edges count; switched-off and out-of-window molecules do not
    assert count_state_a_in_rx(pop, default_cfg) == 3


def test_states_conserved_by_transport(default_cfg):
    rng = np.random.default_rng(8)
    pop = init_population(default_cfg, rng)
    flipped = apply_modulation(pop, default_cfg, 1, 0.5, rng)
    before = np.bincount(pop.state, minlength=2)
    for _ in range(5):
        step(pop, default_cfg, 1.0, rng)
    after = np.bincount(pop.state, minlength=2)
    assert np.array_equal(before, after)
    assert after[int(MoleculeState.STATE_A)] == flipped
    assert after.sum() == default_cfg.n_sys


def test_ensemble_plan_validation(default_cfg):
    with pytest.raises(ValueError):
        PbsEnsemble(realizations=0, record_times=(1.0,))
    with pytest.raises(ValueError):
        PbsEnsemble(realizations=10, record_times=())
    with pytest.raises(ValueError):
        PbsEnsemble(realizations=10, record_times=(2.0, 1.0))
    with pytest.raises(ValueError):
        PbsEnsemble(realizations=10, record_times=(1.0, 1.0))
    with pytest.raises(ValueError):
        PbsEnsemble(realizations=10, record_times=(-1.0, 1.0))
    with pytest.raises(ValueError):
        PbsEnsemble(realizations=10, record_times=(1.0, math.inf))
    # record times need not sit on any step grid
    assert PbsEnsemble(realizations=10, record_times=(0.015,)).record_times == (0.015,)


def test_ensemble_plan_from_config(default_cfg):
    ens = PbsEnsemble.from_config(default_cfg)
    assert ens.realizations == default_cfg.n_realizations
    assert ens.record_times == (default_cfg.t_s,)
    assert ens.seed == default_cfg.seed


def test_run_requires_the_sampling_time_on_the_record_grid(default_cfg):
    # it does not: any record grid runs, the sampling time is just a column
    ens = PbsEnsemble(realizations=5, record_times=(10.0,))
    stats = run_ensemble(default_cfg, 1, ens)
    assert isinstance(stats, EnsembleStats)
    assert stats.counts_rx.shape == (5, 1)
    assert np.array_equal(stats.times, [10.0])


def test_run_deterministic(default_cfg):
    ens = PbsEnsemble(realizations=50, record_times=(default_cfg.t_s,), seed=3)
    a = run_ensemble(default_cfg, 1, ens)
    b = run_ensemble(default_cfg, 1, ens)
    assert np.array_equal(a.counts_rx, b.counts_rx)
    assert np.array_equal(a.n_switched, b.n_switched)
    assert np.array_equal(a.mean_rx, b.mean_rx)


def test_run_matches_analytic_mean(default_cfg):
    ens = PbsEnsemble(realizations=2000, record_times=(default_cfg.t_s,), seed=12345)
    stats = run_ensemble(default_cfg, 1, ens)
    assert stats.stderr_rx[0] < 0.12
    assert abs(stats.mean_rx[0] - ANALYTIC_MEAN) < 3.5 * stats.stderr_rx[0]
    # switching happens at the configured rate
    se_switch = math.sqrt(SWITCHED_MEAN * (1 - SWITCHED_MEAN / 1000) / 2000)
    assert abs(stats.n_switched.mean() - SWITCHED_MEAN) < 3.5 * se_switch
    # the window can never hold more than was switched
    assert np.all(stats.counts_rx <= stats.n_switched[:, None])


def test_run_curve_matches_analytic_shape(default_cfg):
    times = (18.0, default_cfg.t_s, 22.0)
    ens = PbsEnsemble(realizations=800, record_times=times, seed=21)
    stats = run_ensemble(default_cfg, 1, ens)
    for j, t in enumerate(times):
        want = received_distribution(default_cfg, t=t).mean
        assert abs(stats.mean_rx[j] - want) < 3.5 * stats.stderr_rx[j]
    # the peak of the recorded curve sits at the sampling time
    assert int(np.argmax(stats.mean_rx)) == 1


def test_run_dark_bit_is_silent(default_cfg):
    ens = PbsEnsemble(realizations=100, record_times=(default_cfg.t_s,), seed=5)
    stats = run_ensemble(default_cfg, 0, ens)
    assert np.all(stats.counts_rx == 0)
    assert np.all(stats.n_switched == 0)
    assert stats.mean_rx[0] == 0.0


def test_run_jump_agrees_with_per_step_propagation(default_cfg):
    # the run jumps each switched molecule straight from one record time to
    # the next; walking the same molecules with `step` in pieces of at most
    # 1 s (off-grid record times force a partial last piece) must give the
    # same window counts in distribution
    times = (16.005, 20.0, 23.3)
    n_real, seed, dt = 300, 7, 1.0
    ens = PbsEnsemble(realizations=n_real, record_times=times, seed=seed)
    jump = run_ensemble(default_cfg, 1, ens)
    p_switch = link_switch_probability(default_cfg)
    walked = np.zeros((n_real, len(times)), dtype=np.int64)
    for r, child in enumerate(np.random.SeedSequence(seed).spawn(n_real)):
        rng = np.random.default_rng(child)
        pop = init_population(default_cfg, rng)
        n = apply_modulation(pop, default_cfg, 1, p_switch, rng)
        assert jump.n_switched[r] == n
        lit = pop.state == MoleculeState.STATE_A
        sub = Population(z=pop.z[lit], state=pop.state[lit])
        for j, gap in enumerate(np.diff(times, prepend=0.0)):
            whole, rest = divmod(gap, dt)
            for _ in range(int(whole)):
                step(sub, default_cfg, dt, rng)
            if rest > 0:
                step(sub, default_cfg, rest, rng)
            walked[r, j] = count_state_a_in_rx(sub, default_cfg)
    for j in range(len(times)):
        walked_se = walked[:, j].std(ddof=1) / math.sqrt(n_real)
        se = math.hypot(jump.stderr_rx[j], walked_se)
        assert se > 0
        assert abs(jump.mean_rx[j] - walked[:, j].mean()) < 3 * se


def test_run_records_at_time_zero(default_cfg):
    # a record at t = 0 sees the initial positions: nothing starts in the window
    ens = PbsEnsemble(realizations=50, record_times=(0.0, 15.25, default_cfg.t_s), seed=4)
    stats = run_ensemble(default_cfg, 1, ens)
    assert np.all(stats.counts_rx[:, 0] == 0)
    assert stats.mean_rx[2] > 0


def test_run_realization_reproduces_in_isolation(default_cfg):
    # realization r is a function of the r-th spawned child alone: replaying
    # placement and modulation from that child gives its switched count, and
    # one step of the switched molecules per record gap gives its window
    # count at every record time, including t = 0 and off-grid times. At the
    # default diffusion a jump rarely moves a molecule across a window edge,
    # so a fast-diffusing state A makes every draw of the stream count (and
    # a slow state B tells the two coefficients apart).
    n_real, seed = 40, 11
    for cfg in (default_cfg, load_config("diff_a = 1e-5\ndiff_b = 1e-10")):
        times = (0.0, 16.005, cfg.t_s, 23.3)
        ens = PbsEnsemble(realizations=n_real, record_times=times, seed=seed)
        stats = run_ensemble(cfg, 1, ens)
        assert stats.counts_rx[:, 1:].any()
        p_switch = link_switch_probability(cfg)
        children = np.random.SeedSequence(seed).spawn(n_real)
        for r in range(n_real):
            rng = np.random.default_rng(children[r])
            pop = init_population(cfg, rng)
            n = apply_modulation(pop, cfg, 1, p_switch, rng)
            assert stats.n_switched[r] == n
            lit = pop.state == MoleculeState.STATE_A
            sub = Population(z=pop.z[lit], state=pop.state[lit])
            for j, gap in enumerate(np.diff(times, prepend=0.0)):
                if gap > 0:
                    step(sub, cfg, gap, rng)
                assert stats.counts_rx[r, j] == count_state_a_in_rx(sub, cfg)


def test_empirical_pmf():
    pmf = empirical_pmf(np.array([0, 1, 1, 3]))
    assert np.allclose(pmf, [0.25, 0.5, 0.0, 0.25])
    padded = empirical_pmf(np.array([0, 1, 1, 3]), n_max=5)
    assert padded.shape == (6,)
    assert padded.sum() == pytest.approx(1.0)
    with pytest.raises(ValueError):
        empirical_pmf(np.array([], dtype=np.int64))
    with pytest.raises(ValueError):
        empirical_pmf(np.array([0, 4]), n_max=2)
