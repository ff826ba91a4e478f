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
from mediamod import pbs
from mediamod.pbs import (
    _BLOCK_BUDGET,
    MoleculeState,
    Population,
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
    # the switching-event count is an int64 binomial draw
    with pytest.raises(ValueError, match="n_sys"):
        run_ensemble(dataclasses.replace(cfg, n_sys=2**63), 1, (1.0,))


def test_run_needs_no_sampling_time_on_the_record_grid(default_cfg):
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
    # the run draws switched counts and coalesced jumps; placing and
    # switching every molecule with the per-molecule reference and walking
    # the switched ones with `step` in pieces of at most 1 s (off-grid record
    # times force a partial last piece) must give the same switched and
    # window counts in distribution
    times = (16.005, 20.0, 23.3)
    n_real, seed, dt = 300, 7, 1.0
    jump = run_ensemble(_runs(default_cfg, n_real, seed), 1, times)
    p_switch = link_switch_probability(default_cfg)
    walked = np.zeros((n_real, len(times)), dtype=np.int64)
    switched = np.zeros(n_real, dtype=np.int64)
    for r, child in enumerate(np.random.SeedSequence(seed).spawn(n_real)):
        rng = np.random.default_rng(child)
        pop = init_population(default_cfg, rng)
        switched[r] = apply_modulation(pop, default_cfg, 1, p_switch, rng)
        lit = pop.state == MoleculeState.STATE_A
        sub = Population(z=pop.z[lit], state=pop.state[lit])
        for j, gap in enumerate(np.diff(times, prepend=0.0)):
            whole, rest = divmod(gap, dt)
            for _ in range(int(whole)):
                step(sub, default_cfg, dt, rng)
            if rest > 0:
                step(sub, default_cfg, rest, rng)
            walked[r, j] = count_state_a_in_rx(sub, default_cfg)
    se = math.hypot(jump.n_switched.std(ddof=1), switched.std(ddof=1)) / math.sqrt(n_real)
    assert abs(jump.n_switched.mean() - switched.mean()) < 3 * se
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


def test_run_switched_molecules_start_in_the_illuminated_interval(default_cfg):
    # with the counting window on the illuminated interval, a record at t = 0
    # counts every switched molecule
    cfg = dataclasses.replace(_runs(default_cfg, 200, 8), z_a_rx=default_cfg.z_a_tx,
                              z_b_rx=default_cfg.z_b_tx)
    stats = run_ensemble(cfg, 1, (0.0,))
    assert stats.n_switched.any()
    assert np.array_equal(stats.counts_rx[:, 0], stats.n_switched)


def test_run_switched_molecules_start_uniformly(default_cfg):
    # a window on the interval's first half holds each switched molecule at
    # t = 0 with probability 1/2: the summed counts are Binomial(N, 1/2), N
    # the total switched, and fall outside 4 standard errors with probability
    # about 6e-5 (normal approximation, seed fixed in advance)
    mid = (default_cfg.z_a_tx + default_cfg.z_b_tx) / 2.0
    cfg = dataclasses.replace(_runs(default_cfg, 2000, 9), z_a_rx=default_cfg.z_a_tx,
                              z_b_rx=mid)
    stats = run_ensemble(cfg, 1, (0.0,))
    total = int(stats.n_switched.sum())
    assert abs(int(stats.counts_rx[:, 0].sum()) - total / 2) < 4 * math.sqrt(total / 4)


def _replay(cfg, s, record_times):
    """Counts and switched counts of every realization of the config's run,
    drawn one realization and one molecule at a time from the count, place
    and move streams.

    A realization draws a scalar binomial number k of switched molecules
    (switching event fired, inside the illuminated interval) and k uniforms
    mapped onto the interval. Each molecule in turn is scanned over the
    whole record grid: where its drifted start z + v*t lies 39 sigma(t_last)
    or more from both window edges, drift alone decides its count; at every
    other record it takes one normal, an increment over the time since its
    last such record (since t = 0 at the first), and counts where its
    position lies in the window."""
    p_switch = link_switch_probability(cfg)
    lit = (cfg.z_b_tx - cfg.z_a_tx) / cfg.sys_length
    count_rng, place_rng, move_rng = (
        np.random.default_rng(child) for child in np.random.SeedSequence(cfg.seed).spawn(3)
    )
    times = np.asarray(record_times, dtype=float)
    drift = cfg.flow_v * times
    band = 39.0 * math.sqrt(2.0 * (cfg.diff_a * times[-1]))
    a, b = cfg.z_a_rx, cfg.z_b_rx
    counts = np.zeros((cfg.n_realizations, times.shape[0]), dtype=np.int64)
    switched = np.empty(cfg.n_realizations, dtype=np.int64)
    for r in range(cfg.n_realizations):
        k = count_rng.binomial(cfg.n_sys, s * p_switch * lit)
        switched[r] = k
        for z in cfg.z_a_tx + place_rng.random(k) * (cfg.z_b_tx - cfg.z_a_tx):
            # the drifted start against the band edges, record by record
            sure = ~(z < a + band - drift) & (z <= b - band - drift)
            doubt = ~(z < a - band - drift) & (z <= b + band - drift) & ~sure
            counts[r] += sure
            kept = times[doubt]
            path = np.cumsum(np.sqrt(2.0 * (cfg.diff_a * np.diff(kept, prepend=0.0)))
                             * move_rng.standard_normal(kept.shape[0]))
            position = z + drift[doubt] + path
            counts[r, doubt] += (position >= a) & (position <= b)
    return counts, switched


def _exact_stderr(counts):
    """Standard error of each column's mean from integer sums of the counts
    and of their squares."""
    n = counts.shape[0]
    stderr = []
    for col in counts.T.tolist():
        total, squares = sum(col), sum(c * c for c in col)
        stderr.append(math.sqrt((n * squares - total * total) / (n * (n - 1)) / n))
    return np.array(stderr)


def _assert_replays(cfg, s, record_times):
    stats = run_ensemble(cfg, s, record_times)
    counts, switched = _replay(cfg, s, record_times)
    assert np.array_equal(stats.n_switched, switched)
    assert np.array_equal(stats.counts_rx, counts)
    assert np.array_equal(stats.mean_rx, counts.mean(axis=0))
    assert np.array_equal(stats.stderr_rx, _exact_stderr(counts))
    return stats


def test_run_realization_reproduces_in_isolation(default_cfg):
    # each realization is reproduced on its own, one after the other, from
    # the three streams: its switched count and its window count at every
    # record time, including t = 0 and off-grid times. At the default
    # diffusion a jump rarely moves a molecule across a window edge, so a
    # fast-diffusing state A makes every draw of the stream count.
    # The replay forms the lit fraction from the interval edges; at the
    # third geometry that is 0.05, where a volume ratio gives
    # 0.049999999999999996.
    for cfg in (default_cfg, load_config("diff_a = 1e-5\ndiff_b = 1e-10"),
                load_config("sys_length = 0.6\nz_a_tx = 0.1\nz_b_tx = 0.13")):
        stats = _assert_replays(_runs(cfg, 40, 11), 1, (0.0, 16.005, cfg.t_s, 23.3))
        assert stats.counts_rx[:, 1:].any()


FAST_A = "diff_a = 1e-5\ndiff_b = 1e-10"
# realizations per block at n_sys = 1000 on 4-time grids, where this diffusion
# puts every record in doubt: the budget over the expected switched positions,
# 2**15 // (4 * 1000 * p_switch * f = 45.07)
BLOCK = 727
GRID_41 = tuple(float(t) for t in range(41))


def _block(cfg, s, record_times):
    """Realizations per block of run_ensemble: the budget over the largest of
    32 values, a count row (one more value than record times) and the
    expected switched molecules times the records one of them can be in doubt
    at, which is twice the most record drifts within 2 * 39 sigma(t_last) of
    one record's drift."""
    times = np.asarray(record_times, dtype=float)
    drift = cfg.flow_v * times
    width = 2.0 * 39.0 * math.sqrt(2.0 * cfg.diff_a * times[-1])
    reach = max(int(np.count_nonzero((drift >= d) & (drift <= d + width))) for d in drift)
    lit = (cfg.z_b_tx - cfg.z_a_tx) / cfg.sys_length
    expected = cfg.n_sys * (s * link_switch_probability(cfg) * lit) * min(len(times), 2 * reach)
    return max(1, int(_BLOCK_BUDGET // max(32, len(times) + 1, expected)))


WIDE_SEED = 2**130 + 7  # five 32-bit words, more than SeedSequence's pool of four


@pytest.mark.parametrize(
    "text, s, realizations, record_times, block, seed",
    [
        # dark bit: every block switches nothing, and 32 values set the block
        ("", 0, 2 * 1024 + 3, (0.0, 16.005, 20.0), 1024, 29),
        # the last block is short
        (FAST_A, 1, 2 * BLOCK + 5, (0.0, 16.005, 20.0, 23.3), BLOCK, 29),
        # the switched positions of one realization (36 920 molecules
        # expected, times 3 record times) fill a block
        (f"n_sys = {100 * _BLOCK_BUDGET}\n" + FAST_A, 1, 3, (0.0, 20.0, 23.3), 1, 29),
        # 400 record times, none at t = 0: about 11.27 switched molecules
        # times 400 positions shrink the block
        (FAST_A, 1, BLOCK + 4, tuple(np.linspace(0.1, 40.0, 400).tolist()), 7, 29),
        # 3000 record times: the grid alone makes every block one realization
        (FAST_A, 1, 3, tuple(np.linspace(0.1, 40.0, 3000).tolist()), 1, 29),
        # 1.13 switched molecules times 3 positions per realization: the
        # floor of 32 values sets the block, and five blocks run, the last
        # one 50 realizations long
        ("n_sys = 100\n" + FAST_A, 1, 4 * 1024 + 50, (0.0, 20.0, 23.3), 1024, 29),
        # a seed wider than SeedSequence's pool of four words
        (FAST_A, 1, 2 * BLOCK + 5, (0.0, 16.005, 20.0, 23.3), BLOCK, WIDE_SEED),
        # the paper's diffusion on the 41-time grid: a molecule is in doubt
        # at the records around each window edge, on both sides of the ones
        # where drift alone counts it, at most 2 records; the count row of 42
        # values sets the block
        ("", 1, 2 * 780 + 5, GRID_41, 780, 29),
        # at diff_a = 1e-8 the band, 0.035 m at t = 40 s, is wider than half
        # the 0.05 m window, so the two edges' doubtful records run together
        # and drift alone never counts a molecule; the block allows 14
        # doubtful records per molecule, of which 12 occur
        ("diff_a = 1e-8", 1, 2 * 207 + 5, GRID_41, 207, 29),
        # a band below half an ulp of the window edges: no record is in
        # doubt, and drift alone sets every count
        ("diff_a = 1e-300", 1, 2 * 780 + 5, GRID_41, 780, 29),
        # a window that starts where the illuminated interval ends: starts
        # near its edge are in doubt at t = 0, where the position is the
        # start itself, and at the off-grid 3.3 s
        ("z_a_rx = 0.15\nz_b_rx = 0.2", 1, 2 * 1024 + 5, (0.0, 0.5, 1.0, 2.0, 3.3), 1024, 29),
        # one record at the sampling time, where a tenth of the starts are
        # in doubt; 32 values set the block
        ("", 1, 2 * 1024 + 5, (20.0,), 1024, 29),
        # one record: a fast state A puts every start in doubt
        (FAST_A, 1, 2 * 1024 + 5, (20.0,), 1024, 29),
        # one record, 0.034 switched molecules expected per realization: most
        # realizations switch none, so most count segments are empty, and some
        # of the empty ones end a block
        ("n_sys = 3", 1, 2 * 1024 + 5, (20.0,), 1024, 29),
    ],
    ids=["dark", "short-last-block", "one-per-block", "long-grid", "long-grid-one-per-block",
         "floor-sized-blocks", "wide-seed", "default-grid", "overlapping-bands", "no-doubt",
         "doubt-at-time-zero", "one-record", "one-record-all-in-doubt", "one-record-sparse"],
)
def test_run_replays_across_block_seams(text, s, realizations, record_times, block, seed):
    cfg = _runs(load_config(text), realizations, seed)
    stats = _assert_replays(cfg, s, record_times)
    if s == 0:
        assert not stats.n_switched.any()
    else:
        # some molecule is counted after the first record, or at the only one
        assert stats.counts_rx[:, -max(1, len(record_times) - 1):].any()
    # the run spans at least two blocks under the expected-count rule
    assert _block(cfg, s, record_times) == block < realizations


@pytest.mark.parametrize("text, record_times", [
    ("", GRID_41), ("diff_a = 1e-8", GRID_41),
    ("z_a_rx = 0.15\nz_b_rx = 0.2", (0.0, 0.5, 1.0, 2.0, 3.3)), ("", (20.0,)),
], ids=["default", "overlapping-bands", "doubt-at-time-zero", "one-record"])
@pytest.mark.parametrize("budget", [1, 2**10, 2**22])
def test_run_replays_at_any_block_budget(text, record_times, budget, monkeypatch):
    # blocks of one realization, mid-sized blocks and one block for the
    # whole run give the replay's counts where doubtful records flank a
    # certain range, run together, include t = 0, or are the only record
    monkeypatch.setattr(pbs, "_BLOCK_BUDGET", budget)
    stats = _assert_replays(_runs(load_config(text), 150, 31), 1, record_times)
    assert stats.counts_rx.any()


def test_run_does_not_depend_on_block_size(default_cfg, monkeypatch):
    # a block takes each stream's draws in one call, and these equal the
    # realizations' draws in turn: blocks of one realization, of 22, of 727
    # and the whole run in one block give the same statistics
    cfg = _runs(load_config(FAST_A), 300, 13)
    times = (0.0, 16.005, 20.0, 23.3)
    runs = []
    for budget in (1, 2**10, 2**15, 2**22):
        monkeypatch.setattr(pbs, "_BLOCK_BUDGET", budget)
        runs.append(run_ensemble(cfg, 1, times))
    for run in runs[1:]:
        for field in dataclasses.fields(EnsembleStats):
            assert np.array_equal(getattr(run, field.name), getattr(runs[0], field.name))


def test_run_sums_squares_past_the_int64_range(default_cfg, monkeypatch):
    # 1 000 realizations of counts near 1e8 square-sum to about 1e19, past
    # the int64 range: the sums must not wrap, and the statistics stay exact
    counts = 10**8 + np.random.default_rng(8).integers(0, 1000, size=(1000, 3))
    switched = counts[:, 0].copy()
    monkeypatch.setattr(pbs, "_simulate", lambda cfg, q, times: (counts, switched))
    stats = run_ensemble(_runs(default_cfg, 1000, 1), 1, (1.0, 2.0, 3.0))
    assert stats.counts_rx is counts
    assert stats.mean_rx.tolist() == [sum(col) / 1000 for col in counts.T.tolist()]
    assert np.array_equal(stats.stderr_rx, _exact_stderr(counts))
    assert np.all(stats.stderr_rx > 0)


def test_run_switched_count_variance_is_binomial(default_cfg):
    # n_switched is Binomial(n, q) with q = p_tx * p_switch. Over R
    # realizations the sample variance has standard deviation
    # sqrt(mu4 / R - var**2 * (R - 3) / (R * (R - 1))), mu4 the binomial's
    # fourth central moment; a correct sampler falls outside 4 of them with
    # probability about 6e-5 (normal approximation, seed fixed in advance)
    n_real = 20_000
    stats = run_ensemble(_runs(default_cfg, n_real, 2024), 1, (default_cfg.t_s,))
    n, q = default_cfg.n_sys, default_cfg.p_tx * link_switch_probability(default_cfg)
    var = n * q * (1 - q)
    mu4 = var * (1 + 3 * (n - 2) * q * (1 - q))
    sd = math.sqrt(mu4 / n_real - var**2 * (n_real - 3) / (n_real * (n_real - 1)))
    assert abs(stats.n_switched.var(ddof=1) - var) < 4 * sd


def test_run_stream_is_pinned(default_cfg):
    # the replay tests derive the streams the way run_ensemble does, so a
    # change to the seed derivation made on both sides passes them; this
    # digest, taken once from the realization-by-realization replay and
    # frozen, does not move unless the simulated stream does
    stats = run_ensemble(_runs(default_cfg, 2000, 42), 1, GRID_41)
    digest = hashlib.sha256()
    digest.update(stats.counts_rx.astype("<i8").tobytes())
    digest.update(stats.n_switched.astype("<i8").tobytes())
    assert digest.hexdigest() == (
        "db03977cb32eb7c15646dae8222f4184e4886418761fcecb86d26b60d2a1979f"
    )


def test_run_switched_counts_are_pinned(default_cfg):
    # the switched counts alone for the run above: they come from the count
    # stream, which no change to how positions are drawn may move
    stats = run_ensemble(_runs(default_cfg, 2000, 42), 1, GRID_41)
    digest = hashlib.sha256(stats.n_switched.astype("<i8").tobytes())
    assert digest.hexdigest() == (
        "5db90fecbc4fe30a3f569028f07fb0344e188a25559e27b09a6a190aaced1cf6"
    )


def test_run_one_record_stream_is_pinned(default_cfg):
    # a digest frozen like test_run_stream_is_pinned's, for a run with one
    # record time: it takes its own counting path in run_ensemble
    stats = run_ensemble(_runs(default_cfg, 5000, 42), 1, (default_cfg.t_s,))
    digest = hashlib.sha256()
    digest.update(stats.counts_rx.astype("<i8").tobytes())
    digest.update(stats.n_switched.astype("<i8").tobytes())
    assert digest.hexdigest() == (
        "390af20a8b6a0dfd434b82f587b739a58492beda4d3c171e1a472a5613c0ba8a"
    )


@pytest.mark.parametrize("text, seed", [("", 2601), ("diff_a = 1e-8", 2602)],
                         ids=["default", "overlapping-bands"])
def test_run_marginal_means_match_the_analytic_curve(text, seed):
    # each record's count is Binomial(n_sys, p_r(t)), so over R realizations
    # its mean has standard error sqrt(mu * (1 - mu / n_sys) / R), mu the
    # analytic mean. A sampler that drew a doubtful record's position with
    # the wrong variance, or counted a record by drift where it is in doubt,
    # shifts the mean there. A correct one falls outside 4.5 standard errors
    # with probability 6.8e-6 per record, about 41 * 6.8e-6 = 2.8e-4 per
    # config (normal approximation, seeds fixed in advance); where mu is 0
    # the count must be 0.
    cfg = _runs(load_config(text), 20_000, seed)
    stats = run_ensemble(cfg, 1, GRID_41)
    for t, mean in zip(GRID_41, stats.mean_rx):
        mu = received_distribution(cfg, t=t).mean
        se = math.sqrt(mu * (1.0 - mu / cfg.n_sys) / cfg.n_realizations)
        assert abs(mean - mu) <= 4.5 * se, (t, mean, mu, se)


def test_run_rejects_bad_bit_and_probability(default_cfg):
    cfg = _runs(default_cfg, 3, 1)
    for s in (2, -1):
        with pytest.raises(ValueError, match="s must be 0 or 1"):
            run_ensemble(cfg, s, (cfg.t_s,))
    # a NaN irradiance is rejected with the photon flux; a NaN quantum yield,
    # which no switching function checks, gives a NaN switch probability
    with pytest.raises(ValueError, match="irradiance"):
        run_ensemble(dataclasses.replace(cfg, irradiance_on=math.nan), 1, (cfg.t_s,))
    with pytest.raises(ValueError, match="p_switch"):
        run_ensemble(dataclasses.replace(cfg, quantum_yield=math.nan), 1, (cfg.t_s,))


def test_run_working_set_is_bounded_on_long_record_grids(default_cfg):
    # 5001 record times x 32 realizations: the counts alone take 1.3 MB, and
    # the one-realization blocks that the expected switched count sets here
    # peak at 3.7 MB. Blocks sized from the switched molecules alone, not
    # their positions at every record time, would hold every jump of all 32
    # realizations (about 30 MB).
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
    # the run draws from three generators whatever R is, and its statistics
    # come from integer column sums, so going from 2 * 4096 to 8 * 4096
    # realizations grows the peak by the counts_rx and n_switched rows alone
    # (16 B per realization at one record time). A generator per realization
    # alive at once, or a float copy of counts_rx, would add to it per
    # realization.
    cfg = dataclasses.replace(default_cfg, n_sys=16)
    run_ensemble(_runs(cfg, 2, 1), 1, (cfg.t_s,))
    peaks = []
    for chunks in (2, 8):
        tracemalloc.start()
        try:
            run_ensemble(_runs(cfg, chunks * 4096, 5), 1, (cfg.t_s,))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 16 * 6 * 4096 + 64_000


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
