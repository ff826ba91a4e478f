import dataclasses
import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from mediamod import (
    EnsembleStats,
    empirical_pmf,
    link_switch_probability,
    load_config,
    received_distribution,
    run_ensemble,
)
from mediamod.pbs import (
    _BLOCK_BUDGET,
    _HASH_CHUNK,
    MoleculeState,
    Population,
    _child_states,
    _Words,
    apply_modulation,
    count_state_a_in_rx,
    init_population,
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


def _runs(cfg, realizations, seed):
    return dataclasses.replace(cfg, n_realizations=realizations, seed=seed)


def test_run_validates_realizations_and_record_times(default_cfg):
    # a config changed with dataclasses.replace is not validated
    with pytest.raises(ValueError, match="n_realizations"):
        run_ensemble(_runs(default_cfg, 0, 1), 1, (1.0,))
    cfg = _runs(default_cfg, 10, 1)
    for bad in ((), (2.0, 1.0), (1.0, 1.0), (-1.0, 1.0), (1.0, math.inf), (math.nan,)):
        with pytest.raises(ValueError, match="record_times"):
            run_ensemble(cfg, 1, bad)
    # record times need not sit on any step grid
    assert run_ensemble(cfg, 1, (0.015,)).counts_rx.shape == (10, 1)


def test_run_requires_the_sampling_time_on_the_record_grid(default_cfg):
    # it does not: any record grid runs, the sampling time is just a column
    stats = run_ensemble(dataclasses.replace(default_cfg, n_realizations=5), 1, (10.0,))
    assert isinstance(stats, EnsembleStats)
    assert stats.counts_rx.shape == (5, 1)
    assert stats.mean_rx.shape == (1,)


def test_run_deterministic(default_cfg):
    cfg = _runs(default_cfg, 50, 3)
    a = run_ensemble(cfg, 1, (cfg.t_s,))
    b = run_ensemble(cfg, 1, (cfg.t_s,))
    assert np.array_equal(a.counts_rx, b.counts_rx)
    assert np.array_equal(a.n_switched, b.n_switched)
    assert np.array_equal(a.mean_rx, b.mean_rx)


def test_run_matches_analytic_mean(default_cfg):
    stats = run_ensemble(_runs(default_cfg, 2000, 12345), 1, (default_cfg.t_s,))
    assert stats.stderr_rx[0] < 0.12
    assert abs(stats.mean_rx[0] - ANALYTIC_MEAN) < 3.5 * stats.stderr_rx[0]
    # switching happens at the configured rate
    se_switch = math.sqrt(SWITCHED_MEAN * (1 - SWITCHED_MEAN / 1000) / 2000)
    assert abs(stats.n_switched.mean() - SWITCHED_MEAN) < 3.5 * se_switch
    # the window can never hold more than was switched
    assert np.all(stats.counts_rx <= stats.n_switched[:, None])


def test_run_curve_matches_analytic_shape(default_cfg):
    times = (18.0, default_cfg.t_s, 22.0)
    stats = run_ensemble(_runs(default_cfg, 800, 21), 1, times)
    for j, t in enumerate(times):
        want = received_distribution(default_cfg, t=t).mean
        assert abs(stats.mean_rx[j] - want) < 3.5 * stats.stderr_rx[j]
    # the peak of the recorded curve sits at the sampling time
    assert int(np.argmax(stats.mean_rx)) == 1


def test_run_dark_bit_is_silent(default_cfg):
    stats = run_ensemble(_runs(default_cfg, 100, 5), 0, (default_cfg.t_s,))
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
    jump = run_ensemble(_runs(default_cfg, n_real, seed), 1, times)
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
    stats = run_ensemble(_runs(default_cfg, 50, 4), 1, (0.0, 15.25, default_cfg.t_s))
    assert np.all(stats.counts_rx[:, 0] == 0)
    assert stats.mean_rx[2] > 0


def _replay(cfg, s, record_times):
    """Counts and switched counts of every realization of the config's run,
    each replayed from the r-th spawned child through placement, modulation,
    one `step` of the switched molecules per positive record gap and a window
    count at each record time."""
    p_switch = link_switch_probability(cfg)
    counts = np.empty((cfg.n_realizations, len(record_times)), dtype=np.int64)
    switched = np.empty(cfg.n_realizations, dtype=np.int64)
    children = np.random.SeedSequence(cfg.seed).spawn(cfg.n_realizations)
    for r, child in enumerate(children):
        rng = np.random.default_rng(child)
        pop = init_population(cfg, rng)
        switched[r] = apply_modulation(pop, cfg, s, p_switch, rng)
        lit = pop.state == MoleculeState.STATE_A
        sub = Population(z=pop.z[lit], state=pop.state[lit])
        for j, gap in enumerate(np.diff(record_times, prepend=0.0)):
            if gap > 0:
                step(sub, cfg, gap, rng)
            counts[r, j] = count_state_a_in_rx(sub, cfg)
    return counts, switched


def _assert_replays(cfg, s, record_times):
    stats = run_ensemble(cfg, s, record_times)
    counts, switched = _replay(cfg, s, record_times)
    assert np.array_equal(stats.n_switched, switched)
    assert np.array_equal(stats.counts_rx, counts)
    assert np.array_equal(stats.mean_rx, counts.mean(axis=0))
    assert np.array_equal(
        stats.stderr_rx, counts.std(axis=0, ddof=1) / math.sqrt(cfg.n_realizations)
    )
    return stats


def test_run_realization_reproduces_in_isolation(default_cfg):
    # realization r is a function of the r-th spawned child alone: replaying
    # it gives its switched count and its window count at every record time,
    # including t = 0 and off-grid times. At the default diffusion a jump
    # rarely moves a molecule across a window edge, so a fast-diffusing
    # state A makes every draw of the stream count (and a slow state B tells
    # the two coefficients apart).
    for cfg in (default_cfg, load_config("diff_a = 1e-5\ndiff_b = 1e-10")):
        stats = _assert_replays(_runs(cfg, 40, 11), 1, (0.0, 16.005, cfg.t_s, 23.3))
        assert stats.counts_rx[:, 1:].any()


FAST_A = "diff_a = 1e-5\ndiff_b = 1e-10"
BLOCK = _BLOCK_BUDGET // (2 * 1000)  # realizations per block at n_sys = 1000 on short grids


def _block(cfg, s, n_times):
    """Realizations per block of run_ensemble: the budget over a realization's
    2 * n_sys uniforms or its expected switched positions, the larger."""
    expected = cfg.n_sys * cfg.p_tx * s * link_switch_probability(cfg)
    return max(1, int(_BLOCK_BUDGET // max(2 * cfg.n_sys, n_times * expected)))


WIDE_SEED = 2**130 + 7  # five 32-bit words, more than the hash's pool of four


@pytest.mark.parametrize(
    "text, s, realizations, record_times, block, seed",
    [
        # dark bit: every block switches nothing
        ("", 0, 2 * BLOCK + 3, (0.0, 16.005, 20.0), BLOCK, 29),
        # the last block is short
        (FAST_A, 1, 2 * BLOCK + 5, (0.0, 16.005, 20.0, 23.3), BLOCK, 29),
        # the uniforms alone fill a block with one realization
        (f"n_sys = {_BLOCK_BUDGET}\n" + FAST_A, 1, 3, (0.0, 20.0, 23.3), 1, 29),
        # 400 record times, none at t = 0: about 11.27 switched molecules
        # times 400 positions outweigh the 2000 uniforms and shrink the block
        (FAST_A, 1, BLOCK + 4, tuple(np.linspace(0.1, 40.0, 400).tolist()), 7, 29),
        # 3000 record times: the grid alone makes every block one realization
        (FAST_A, 1, 3, tuple(np.linspace(0.1, 40.0, 3000).tolist()), 1, 29),
        # the last 50 realizations take their child seeds from a second hash
        # chunk, and the block of 163 from realization 4075 spans the seam
        ("n_sys = 100\n" + FAST_A, 1, _HASH_CHUNK + 50, (0.0, 20.0, 23.3), _BLOCK_BUDGET // 200, 29),
        # a seed wider than the hash pool enters the hash after the pool is mixed
        (FAST_A, 1, 2 * BLOCK + 5, (0.0, 16.005, 20.0, 23.3), BLOCK, WIDE_SEED),
    ],
    ids=["dark", "short-last-block", "one-per-block", "long-grid", "long-grid-one-per-block",
         "hash-chunk-seam", "wide-seed"],
)
def test_run_replays_across_block_seams(text, s, realizations, record_times, block, seed):
    cfg = _runs(load_config(text), realizations, seed)
    stats = _assert_replays(cfg, s, record_times)
    if s == 0:
        assert not stats.n_switched.any()
    else:
        assert stats.counts_rx[:, 1:].any()
    # the run spans at least two blocks under the expected-count rule
    assert _block(cfg, s, len(record_times)) == block < realizations


@pytest.mark.parametrize("seed", [0, 42, 2**32 - 1, 2**32, 12345678901234567891, WIDE_SEED])
def test_bulk_child_seeds_equal_seed_sequence(seed):
    # run_ensemble hashes its child seeds in bulk; each row must be the state
    # of realization r's SeedSequence child. Spawn keys from 2**32 on enter
    # the hash as two 32-bit words, so the keys sit just below, at and above
    # 2**32 and near 2**40, and one range straddles 2**32.
    ranges = [(0, 5), (2**32 - 3, 2**32), (2**32, 2**32 + 3), (2**40 - 2, 2**40 + 2),
              (2**32 - 4, 2**32 + 4)]
    for first, last in ranges:
        want = [
            np.random.SeedSequence(seed, spawn_key=(r,)).generate_state(4, np.uint64)
            for r in range(first, last)
        ]
        assert np.array_equal(_child_states(seed, first, last), want)
    words = _child_states(seed, 2**32 - 1, 2**32 + 1)
    for r, w in zip((2**32 - 1, 2**32), words):
        child = np.random.SeedSequence(seed, spawn_key=(r,))
        assert np.random.PCG64(_Words(w)).state == np.random.PCG64(child).state


def test_run_stream_is_pinned(default_cfg):
    # the replay tests derive seeds the way run_ensemble does, so a change to
    # the seed derivation made on both sides passes them; this digest, taken
    # once and frozen, does not move unless the simulated stream does
    stats = run_ensemble(_runs(default_cfg, 2000, 42), 1, tuple(float(t) for t in range(41)))
    digest = hashlib.sha256()
    digest.update(stats.counts_rx.astype("<i8").tobytes())
    digest.update(stats.n_switched.astype("<i8").tobytes())
    assert digest.hexdigest() == (
        "c47f483a5a74418a5d444a2b2dd38981a1095581ac142f1cbf5df570b84721cb"
    )


def test_run_rejects_bad_bit_and_probability(default_cfg):
    cfg = _runs(default_cfg, 3, 1)
    for s in (2, -1):
        with pytest.raises(ValueError, match="s must be 0 or 1"):
            run_ensemble(cfg, s, (cfg.t_s,))
    # a NaN irradiance gives a NaN switch probability
    with pytest.raises(ValueError, match="p_switch"):
        run_ensemble(dataclasses.replace(cfg, irradiance_on=math.nan), 1, (cfg.t_s,))


def test_run_working_set_is_bounded_on_long_record_grids(default_cfg):
    # 5001 record times x 32 realizations: the counts alone take 1.3 MB, and
    # the one-realization blocks that the expected switched count sets here
    # peak at 3.4 MB. Blocks sized from the uniforms alone would hold every
    # jump of 16 realizations (about 25 MB).
    record_times = tuple(np.linspace(0.0, 40.0, 5001).tolist())
    run_ensemble(_runs(default_cfg, 2, 1), 1, (1.0,))
    tracemalloc.start()
    try:
        run_ensemble(_runs(default_cfg, 32, 3), 1, record_times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 3.3e6


def test_seeding_memory_is_constant_in_realizations(default_cfg):
    # child seeds are hashed _HASH_CHUNK spawn keys at a time, so going from 2
    # to 8 chunks of realizations grows the peak by the counts_rx and
    # n_switched rows alone (16 B per realization at one record time).
    # Hashing every key at once would hold 32 B of state words per
    # realization for the whole run.
    cfg = dataclasses.replace(default_cfg, n_sys=16)
    run_ensemble(_runs(cfg, 2, 1), 1, (cfg.t_s,))
    peaks = []
    for chunks in (2, 8):
        tracemalloc.start()
        try:
            run_ensemble(_runs(cfg, chunks * _HASH_CHUNK, 5), 1, (cfg.t_s,))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 16 * 6 * _HASH_CHUNK + 64_000


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
