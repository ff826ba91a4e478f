import dataclasses
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import binom, poisson

from mediamod import stats
from mediamod import (
    ReceptionDistribution,
    SwitchingModel,
    hit_probability,
    link_switch_probability,
    load_config,
    received_count_pmf,
    received_distribution,
    sample_received_count,
    switch_probability,
    switched_distribution,
)

P_R = 0.01125576793623867            # full-precision end-to-end p
P_SWITCHED = 0.011267139330508646    # p_tx * p_switch
TX_NOISE_VAR = 11.140190901815549
CIR_AT_TS = 11.25576793623867


def test_stage_chain_success_probabilities(default_cfg):
    assert default_cfg.p_tx == pytest.approx(0.1)

    switched = switched_distribution(default_cfg)
    assert switched.trials_n == 1000
    assert switched.success_p == pytest.approx(P_SWITCHED, rel=1e-12)

    received = received_distribution(default_cfg)
    assert received.trials_n == 1000
    assert received.success_p == pytest.approx(P_R, rel=1e-12)

    # each stage can only thin the previous one
    assert received.success_p <= switched.success_p <= default_cfg.p_tx


def test_chain_composes_exactly(default_cfg):
    # the end-to-end probability is the literal product of the three factors,
    # also where the illuminated fraction is not a round number
    for cfg in (default_cfg, load_config("sys_length = 0.6\nz_a_tx = 0.1\nz_b_tx = 0.13")):
        p_sw = switch_probability(SwitchingModel.from_config(cfg), cfg.n_sys * cfg.p_tx)
        h = hit_probability(cfg, cfg.t_s)
        assert received_distribution(cfg).success_p == cfg.p_tx * p_sw * h
        # the received stage thins the switched one by h(t), for either bit
        for s in (0, 1):
            switched = switched_distribution(cfg, s).success_p
            for t in (cfg.t_s, 10.0, 30.0):
                received = received_distribution(cfg, s, t).success_p
                assert received == switched * hit_probability(cfg, t), (s, t)


def test_dark_bit_probability_zero(default_cfg):
    assert received_distribution(default_cfg, s=0).success_p == 0.0
    assert switched_distribution(default_cfg, s=0).success_p == 0.0
    with pytest.raises(ValueError):
        received_distribution(default_cfg, s=2)


def test_link_switch_probability_is_the_hand_built_pair(default_cfg):
    # one evaluation point, the expected illuminated count, at any power
    # and the configured power gives what the power sweep override gives
    n_tx = default_cfg.n_sys * default_cfg.p_tx
    for power in (default_cfg.irradiance_on, 1e4):
        cfg = dataclasses.replace(default_cfg, irradiance_on=power)
        model = SwitchingModel.from_config(default_cfg, irradiance=power)
        assert link_switch_probability(cfg) == switch_probability(model, n_tx)


def test_expected_cir_reference_value(default_cfg):
    assert received_distribution(default_cfg, t=default_cfg.t_s).mean == pytest.approx(
        CIR_AT_TS, rel=1e-12
    )


def test_expected_cir_dark_bit(default_cfg):
    assert received_distribution(default_cfg, s=0, t=default_cfg.t_s).mean == 0.0
    with pytest.raises(ValueError):
        received_distribution(default_cfg, s=2, t=default_cfg.t_s)
    # the dark bit still evaluates h(t), so a bad time is rejected for it too
    with pytest.raises(ValueError):
        received_distribution(default_cfg, s=0, t=-1.0)


def test_expected_cir_dark_power(default_cfg):
    dark = dataclasses.replace(default_cfg, irradiance_on=0.0)
    for t in (1.0, 20.0, 40.0):
        assert received_distribution(dark, t=t).mean == 0.0


def test_expected_cir_peak_scales_with_switch_probability(default_cfg):
    lo = received_distribution(dataclasses.replace(default_cfg, irradiance_on=1e3), t=20.0).mean
    hi = received_distribution(dataclasses.replace(default_cfg, irradiance_on=1e4), t=20.0).mean
    p_lo = switch_probability(SwitchingModel.from_config(default_cfg, irradiance=1e3), 100.0)
    p_hi = switch_probability(SwitchingModel.from_config(default_cfg, irradiance=1e4), 100.0)
    assert hi / lo == pytest.approx(p_hi / p_lo, rel=1e-9)


def test_distribution_moments(default_cfg):
    dist = received_distribution(default_cfg)
    assert dist.mean == pytest.approx(11.25576793623867, rel=1e-12)
    assert dist.variance == pytest.approx(11.129075624404212, rel=1e-12)


def test_distribution_validation():
    with pytest.raises(ValueError):
        ReceptionDistribution(-1, 0.5)
    with pytest.raises(ValueError):
        ReceptionDistribution(10, 1.5)
    with pytest.raises(ValueError):
        ReceptionDistribution(10, -0.1)


@pytest.mark.parametrize("n", [10.7, math.nan, 10.0], ids=["fraction", "nan", "float"])
def test_distribution_requires_an_integral_population(n):
    # the sampler would truncate 10.7 to 10 while the pmf evaluated it as it
    # stands, and NaN passed the sign check
    with pytest.raises(ValueError, match="trials_n must be an integer"):
        ReceptionDistribution(n, 0.5)


def test_distribution_accepts_numpy_integers():
    dist = ReceptionDistribution(np.int64(10), 0.5)
    assert dist.mean == 5.0
    assert np.array_equal(sample_received_count(dist, np.random.default_rng(0), 5),
                          np.random.default_rng(0).binomial(10, 0.5, 5))


def test_pmf_matches_reference_implementation(default_cfg):
    dist = received_distribution(default_cfg)
    k = np.arange(dist.trials_n + 1)
    mine = received_count_pmf(dist, k)
    reference = binom.pmf(k, dist.trials_n, dist.success_p)
    mask = reference > 0
    assert np.allclose(mine[mask], reference[mask], rtol=1e-11, atol=0.0)
    assert np.all(mine[~mask] < 1e-300)


def test_pmf_mode(default_cfg):
    dist = received_distribution(default_cfg)
    pmf = received_count_pmf(dist, np.arange(dist.trials_n + 1))
    assert int(np.argmax(pmf)) == 11


def test_pmf_normalization(default_cfg):
    dist = received_distribution(default_cfg)
    total = float(np.sum(received_count_pmf(dist, np.arange(dist.trials_n + 1))))
    assert total == pytest.approx(1.0, abs=1e-9)


def test_pmf_survives_huge_populations():
    # log-space evaluation: no overflow where factorials are astronomical
    dist = ReceptionDistribution(10**9, 1e-8)
    ks = np.array([0, 1, 5, 10, 50])
    vals = received_count_pmf(dist, ks)
    want = poisson.pmf(ks, 10.0)   # Poisson limit, lam = n*p
    assert np.allclose(vals, want, rtol=1e-5)


def test_pmf_degenerate_probabilities():
    zero = ReceptionDistribution(100, 0.0)
    assert received_count_pmf(zero, 0) == 1.0
    assert received_count_pmf(zero, 1) == 0.0
    one = ReceptionDistribution(100, 1.0)
    assert received_count_pmf(one, 100) == 1.0
    assert received_count_pmf(one, 99) == 0.0


def test_pmf_rejects_out_of_range_counts(default_cfg):
    dist = received_distribution(default_cfg)
    for bad in (-1, dist.trials_n + 1, 0.5):
        with pytest.raises(ValueError):
            received_count_pmf(dist, bad)
    with pytest.raises(ValueError):
        received_count_pmf(dist, np.array([0, 1, -3]))


def test_pmf_scalar_and_array_forms(default_cfg):
    dist = received_distribution(default_cfg)
    scalar = received_count_pmf(dist, 11)
    assert isinstance(scalar, float)
    arr = received_count_pmf(dist, np.array([11]))
    assert arr.shape == (1,)
    assert arr[0] == scalar


def test_sampler_determinism(default_cfg):
    dist = received_distribution(default_cfg)
    a = sample_received_count(dist, np.random.default_rng(77), size=1000)
    b = sample_received_count(dist, np.random.default_rng(77), size=1000)
    assert np.array_equal(a, b)


def test_sampler_split_calls_continue_the_stream(default_cfg):
    # the default link, then the generator's binomial on both of its
    # algorithms (inversion below n*p = 30, BTPE above): one whole draw is
    # the generator's own binomial draw and equals the same draw split in two
    binomial = [(2 * 10**4, 1e-4), (5 * 10**4, 0.3), (10**6, 1e-3), (10**12, 1e-9), (10**12, 0.7)]
    dists = [received_distribution(default_cfg)] + [ReceptionDistribution(n, p) for n, p in binomial]
    assert dists[0].trials_n == 1000
    for dist in dists:
        rng = np.random.default_rng(5)
        whole = sample_received_count(dist, rng, size=3000)
        want = np.random.default_rng(5).binomial(dist.trials_n, dist.success_p, 3000)
        assert np.array_equal(whole, want)
        rng = np.random.default_rng(5)
        first = sample_received_count(dist, rng, size=1000)
        second = sample_received_count(dist, rng, size=2000)
        assert np.array_equal(whole, np.concatenate([first, second]))


def _assert_draws_the_generators_binomial(dist, seed, size):
    rng = np.random.default_rng(seed)
    got = sample_received_count(dist, rng, size)
    reference = np.random.default_rng(seed)
    want = reference.binomial(dist.trials_n, dist.success_p, size)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    assert rng.bit_generator.state == reference.bit_generator.state
    return got


@st.composite
def _inverted_links(draw):
    """(n, p) where the generator's binomial inverts, n * min(p, 1 - p) up
    to 30, and some past it; min(p, 1 - p) from 1/2 down to 1e-300, and p
    on either side of 1/2."""
    n = draw(st.integers(1, 2**62))
    low = draw(st.one_of(
        st.floats(0.0, 30.0).map(lambda mean: min(0.5, mean / n)),
        st.floats(-300.0, -0.302).map(lambda e: 10.0**e),
    ))
    return n, 1.0 - low if draw(st.booleans()) else low


# sizes on both sides of one, two and three pieces
_SIZES = st.one_of(
    st.sampled_from([0, 1, stats._PIECE - 1, stats._PIECE, stats._PIECE + 1, 2 * stats._PIECE + 1]),
    st.integers(0, 3 * stats._PIECE + 5),
)


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(link=_inverted_links(), size=_SIZES, seed=st.integers(0, 2**32 - 1))
@example(link=(60, 0.5), size=3 * stats._PIECE, seed=1)           # mean exactly 30
@example(link=(1920, 1.0 - 1.0 / 64), size=2 * stats._PIECE, seed=2)  # and above 1/2
@example(link=(2**62, 1e-300), size=stats._PIECE + 1, seed=3)     # every piece falls back
@example(link=(1000, P_SWITCHED), size=1000, seed=4)                # below the cut-over
def test_sampler_draws_the_generators_binomial(link, size, seed):
    # draw for draw and state for state, as the sampler chooses between the
    # table and the generator, and with the table forced at every size
    dist = ReceptionDistribution(*link)
    _assert_draws_the_generators_binomial(dist, seed, size)
    with mock.patch.object(stats, "_TABLE_MIN_UNITS", -math.inf):
        _assert_draws_the_generators_binomial(dist, seed, size)


def test_sampler_redraws_a_uniform_near_a_mass():
    # at n = 10**12, p = 1e-11 the uniform of draw 29 752 lies 1.1e-7 below
    # S_9. A generator that forms q**n as exp(n * log(1 - p)) puts S_9 above
    # it and counts 10; numpy's exp(n * log1p(-p)) counts 9. The tolerance's
    # n * 2**-51 sends that piece back to the generator, whichever form it has
    dist = ReceptionDistribution(10**12, 1e-11)
    got = _assert_draws_the_generators_binomial(dist, 0, 100_000)
    assert np.random.default_rng(0).random(100_000)[29_752] == 0.45792960023503715
    assert got[29_752] == 9


def test_sampler_falls_back_to_the_generator_on_ambiguous_pieces(monkeypatch):
    # a tolerance of 1 makes every uniform ambiguous, so the generator
    # redraws every piece from the state before it, on both sides of p = 1/2
    monkeypatch.setattr(stats, "_TOL_FLOOR", 1.0)
    for n, p in ((1000, P_SWITCHED), (40, 0.9)):
        _assert_draws_the_generators_binomial(ReceptionDistribution(n, p), 11, 3 * stats._PIECE + 7)


def test_sampler_memory_is_its_output_and_one_piece(default_cfg):
    # past the 8 MB of 10**6 counts, the table and one piece's uniforms, cell
    # indices and counts: five arrays of a piece of 8-byte values at most
    dist = received_distribution(default_cfg)
    rng = np.random.default_rng(3)
    sample_received_count(dist, rng, 10_000)
    tracemalloc.start()
    try:
        out = sample_received_count(dist, rng, 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.nbytes == 8 * 10**6
    assert peak < out.nbytes + 5 * 8 * stats._PIECE


def test_sampler_moments(default_cfg):
    dist = received_distribution(default_cfg)
    samples = sample_received_count(dist, np.random.default_rng(2024), size=100_000)
    se_mean = math.sqrt(dist.variance / samples.size)
    assert abs(samples.mean() - dist.mean) < 3 * se_mean
    assert samples.var(ddof=1) == pytest.approx(dist.variance, rel=0.05)


def test_sampler_degenerate_probabilities():
    rng = np.random.default_rng(1)
    always_zero = ReceptionDistribution(1000, 0.0)
    assert np.all(sample_received_count(always_zero, rng, size=100) == 0)
    always_full = ReceptionDistribution(1000, 1.0)
    assert np.all(sample_received_count(always_full, rng, size=100) == 1000)
    # an empty population counts nothing and draws nothing
    state = rng.bit_generator.state
    assert np.all(sample_received_count(ReceptionDistribution(0, 0.5), rng, size=100) == 0)
    assert rng.bit_generator.state == state
    # no draws give an empty int64 array, and a negative size is refused
    for n in (1000, 1_000_000):
        empty = sample_received_count(ReceptionDistribution(n, 0.5), rng, size=0)
        assert empty.shape == (0,) and empty.dtype == np.int64
        with pytest.raises(ValueError, match="size"):
            sample_received_count(ReceptionDistribution(n, 0.5), rng, size=-1)


def test_sampler_large_population_path():
    # a large population at a small success probability keeps its mean
    dist = ReceptionDistribution(1_000_000, 0.001)
    samples = sample_received_count(dist, np.random.default_rng(8), size=2000)
    se = math.sqrt(dist.variance / samples.size)
    assert abs(samples.mean() - dist.mean) < 4 * se


def test_sampler_empirical_law_close_to_pmf(default_cfg):
    dist = received_distribution(default_cfg)
    samples = sample_received_count(dist, np.random.default_rng(99), size=10_000)
    top = int(samples.max())
    freq = np.bincount(samples, minlength=top + 1) / samples.size
    pmf = received_count_pmf(dist, np.arange(top + 1))
    tv = 0.5 * np.abs(freq - pmf).sum() + 0.5 * (1.0 - pmf.sum())
    assert tv < 0.05


# transmitter noise: the zero-mean spread of the switched count

def test_tx_noise_stats(default_cfg):
    assert switched_distribution(default_cfg).variance == pytest.approx(
        TX_NOISE_VAR, rel=1e-12
    )


def test_tx_noise_dark_bit(default_cfg):
    assert switched_distribution(default_cfg, s=0).variance == 0.0


def test_tx_noise_vanishes_when_switching_is_certain():
    # every molecule illuminated and switched: nothing left to fluctuate
    cfg = load_config(
        "z_a_tx = 0.0\nz_b_tx = 0.5\nz_a_rx = 0.5\nz_b_rx = 0.55\n"
        "sys_length = 0.6\nirradiance_on = 1e7"
    )
    assert cfg.p_tx == pytest.approx(5 / 6, rel=1e-12)
    hot = switched_distribution(cfg)
    assert hot.success_p == pytest.approx(cfg.p_tx, rel=1e-12)
    # variance is that of the placement binomial alone
    assert hot.variance == pytest.approx(1000 * cfg.p_tx * (1 - cfg.p_tx), rel=1e-9)
