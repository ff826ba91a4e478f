import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from mediamod import (
    BerEstimate,
    ReceptionDistribution,
    ber_analytic,
    ber_empirical,
    hit_probability,
    received_count_pmf,
    received_distribution,
)
from mediamod import detect, stats
from mediamod.detect import _wilson_interval
from mediamod.stats import _BERNOULLI_MAX_TRIALS

BER_SMALL_POPULATION = 0.1745330271783256   # n_sys=10, p_r=0.1*1.0*0.999
BER_DEFAULT_LINK = 6.066427589317352e-06    # n_sys=1000, default-link p_r


def test_threshold_rule():
    # a count equal to theta declares bit 1: a perfect link of 3 molecules
    # never errs at theta = 3 and misses every bit 1 at theta = 4
    assert ber_analytic(3, 1.0, theta=3) == 0.0
    assert ber_analytic(3, 1.0, theta=4) == 0.5
    assert ber_empirical(3, 1.0, 1_000, np.random.default_rng(0), theta=3).n_errors == 0
    est = ber_empirical(3, 1.0, 1_000, np.random.default_rng(0), theta=4)
    assert est.ber == pytest.approx(0.5, abs=0.05)


def test_ber_reference_values(default_cfg):
    assert ber_analytic(10, 0.1 * 0.999) == pytest.approx(
        BER_SMALL_POPULATION, rel=1e-12
    )
    p_r = received_distribution(default_cfg).success_p
    assert ber_analytic(default_cfg.n_sys, p_r) == pytest.approx(
        BER_DEFAULT_LINK, rel=1e-12
    )


def _ber_mpmath(n: int, p: float, theta: int) -> float:
    """Half the Binomial(n, p) mass below theta at 60 digits, summed with the
    pmf-ratio recurrence from the mass at zero."""
    with mpmath.workdps(60):
        n, p = mpmath.mpf(n), mpmath.mpf(p)
        term = mpmath.exp(n * mpmath.log1p(-p))
        mass = term
        for k in range(1, theta):
            term *= (n - k + 1) / k * p / (1 - p)
            mass += term
        return float(mass / 2)


def test_ber_closed_form_identity():
    # threshold 1 misses exactly when the count is zero
    for n, p in [(10, 0.0999), (1000, 0.0112), (5, 0.9), (3, 1e-12)]:
        assert ber_analytic(n, p) == pytest.approx(0.5 * (1 - p) ** n, rel=1e-12)
    # and stays within 4e-16 of the exact value over arrays too
    ps = np.random.default_rng(7).random(500)
    for n in (10, 1000):
        want = [_ber_mpmath(n, p, 1) for p in ps.tolist()]
        assert ber_analytic(n, ps).tolist() == pytest.approx(want, rel=4e-16)


def test_ber_degenerate_probabilities():
    assert ber_analytic(100, 0.0) == 0.5
    assert ber_analytic(100, 1.0) == 0.0
    assert ber_analytic(100, 1.0, theta=5) == 0.0


def test_ber_array_equals_scalar_calls():
    ps = np.array([0.0, 1e-300, 0.1, 0.5, 1.0])
    for theta in (1, 3, 50):
        for n in (1, 2, 10, 49, 1000):   # n < theta sums the whole pmf
            got = ber_analytic(n, ps, theta=theta)
            assert isinstance(got, np.ndarray) and got.shape == ps.shape
            want = [ber_analytic(n, p, theta=theta) for p in ps.tolist()]
            assert all(type(w) is float for w in want)
            assert got.tolist() == want
            if theta > 1:
                # half the pmf mass below the threshold, summed by np.sum
                ks = np.arange(min(theta, n + 1))
                mass = [float(np.sum(received_count_pmf(ReceptionDistribution(n, p), ks)))
                        for p in ps.tolist()]
                assert want == pytest.approx([0.5 * min(m, 1.0) for m in mass], rel=1e-11)
    grid = ps.reshape(5, 1)
    assert ber_analytic(10, grid, theta=3).tolist() == [
        [ber_analytic(10, p, theta=3)] for p in ps.tolist()
    ]


def test_ber_matches_mpmath_at_every_population():
    # from a handful of molecules to the largest float, at thresholds below
    # and above the population and means from almost nothing to saturation
    for n in (1, 3, 10, 10**3, 10**6, 10**9, 10**12, 10**15, 10**18,
              int(1e100), int(1e306), int(1.7e308)):
        for theta in (1, 2, 3, 50):
            for mean in (1e-3, 1.0, 10.0, 40.0, 200.0):
                p = mean / n
                if p >= 1.0:
                    continue
                want = _ber_mpmath(n, p, theta)
                got = ber_analytic(n, p, theta=theta)
                if want >= 1e-300:
                    assert got == pytest.approx(want, rel=1e-10), (n, theta, mean)
                else:
                    assert got == pytest.approx(want, abs=1e-300), (n, theta, mean)


def test_ber_matches_pmf_mass_below_threshold():
    dist = ReceptionDistribution(50, 0.07)
    assert ber_analytic(50, 0.07) == pytest.approx(
        0.5 * received_count_pmf(dist, 0), rel=1e-12
    )
    want2 = 0.5 * (received_count_pmf(dist, 0) + received_count_pmf(dist, 1))
    assert ber_analytic(50, 0.07, theta=2) == pytest.approx(want2, rel=1e-12)


def test_ber_higher_threshold_closed_form():
    n, p = 200, 0.02
    q = (1 - p) ** n
    want = 0.5 * (q + n * p * (1 - p) ** (n - 1))
    assert ber_analytic(n, p, theta=2) == pytest.approx(want, rel=1e-11)


def test_ber_threshold_above_population_always_errs():
    # the count can never reach the threshold, so every bit-1 is missed
    assert ber_analytic(10, 0.5, theta=11) == pytest.approx(0.5, rel=1e-12)
    assert ber_analytic(10, 0.999, theta=50) == pytest.approx(0.5, rel=1e-12)


def test_ber_no_underflow_for_strong_links():
    # a huge population drives the miss probability below the smallest float;
    # the result degrades gracefully to zero instead of raising
    value = ber_analytic(10**6, 0.01)
    assert value == pytest.approx(0.5 * math.exp(10**6 * math.log1p(-0.01)))
    assert value == 0.0
    assert ber_analytic(10**6, 0.01, theta=2) == 0.0


def test_ber_monotone_in_end_to_end_probability():
    ps = np.linspace(0.001, 0.5, 40)
    vals = [ber_analytic(100, float(p)) for p in ps]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_ber_monotone_in_population():
    for n_small, n_large in [(10, 50), (50, 100), (100, 1000)]:
        assert ber_analytic(n_large, 0.0999) < ber_analytic(n_small, 0.0999)


def test_ber_validation():
    with pytest.raises(ValueError):
        ber_analytic(0, 0.1)
    with pytest.raises(ValueError):
        ber_analytic(10, -0.1)
    with pytest.raises(ValueError):
        ber_analytic(10, 1.1)
    with pytest.raises(ValueError):
        ber_analytic(10, 0.1, theta=0)
    for bad in ([0.1, 1.1], [0.1, math.nan]):
        with pytest.raises(ValueError):
            ber_analytic(10, np.array(bad), theta=3)


def test_ber_error_floor_at_full_switching(default_cfg):
    # once every illuminated molecule switches, raising power cannot help:
    # the residual error is set by placement and transport alone
    h = hit_probability(default_cfg, default_cfg.t_s)
    floor = 0.5 * (1 - default_cfg.p_tx * h) ** 10
    assert ber_analytic(10, default_cfg.p_tx * h) == pytest.approx(floor, rel=1e-12)


def test_empirical_ber_brackets_analytic():
    p_r = 0.1 * 0.999
    est = ber_empirical(10, p_r, 200_000, np.random.default_rng(424242))
    want = ber_analytic(10, p_r)
    assert est.ci_low <= want <= est.ci_high
    assert est.ber == pytest.approx(want, rel=0.02)
    assert est.n_errors == round(est.ber * 200_000)


def test_empirical_ber_degenerate_links():
    est_perfect = ber_empirical(100, 1.0, 10_000, np.random.default_rng(0))
    assert est_perfect.ber == 0.0
    assert est_perfect.ci_low == pytest.approx(0.0, abs=1e-12)
    est_dead = ber_empirical(100, 0.0, 100_000, np.random.default_rng(1))
    # with a dead channel every bit-1 trial errs, so the rate is the bit bias
    assert est_dead.ber == pytest.approx(0.5, abs=0.01)


def test_empirical_ber_interval_fields():
    est = ber_empirical(10, 0.05, 5_000, np.random.default_rng(9))
    assert isinstance(est, BerEstimate)
    assert 0.0 <= est.ci_low <= est.ber <= est.ci_high <= 1.0
    assert est.n_errors <= 5_000


def test_empirical_ber_deterministic():
    a = ber_empirical(10, 0.0999, 50_000, np.random.default_rng(7), theta=2)
    b = ber_empirical(10, 0.0999, 50_000, np.random.default_rng(7), theta=2)
    assert a == b


def test_empirical_ber_higher_threshold():
    est = ber_empirical(50, 0.1, 100_000, np.random.default_rng(11), theta=3)
    want = ber_analytic(50, 0.1, theta=3)
    assert est.ci_low <= want <= est.ci_high


def test_empirical_ber_validation():
    with pytest.raises(ValueError):
        ber_empirical(10, 0.1, 0, np.random.default_rng(2))
    with pytest.raises(ValueError, match="n_sys"):
        ber_empirical(0, 0.5, 1000, np.random.default_rng(2))
    for theta in (0, -2):
        with pytest.raises(ValueError, match="theta"):
            ber_empirical(10, 0.1, 100, np.random.default_rng(2), theta=theta)


def _reference_ber_errors(n_sys, p_r, n_trials, rng, theta):
    # the whole-run algorithm: every bit at once, then one count per bit-1
    # trial, all at once
    ones = int((rng.random(n_trials) < 0.5).sum())
    if n_sys > _BERNOULLI_MAX_TRIALS:
        counts = rng.binomial(n_sys, p_r, size=ones)
    else:
        counts = (rng.random((ones, n_sys)) < p_r).sum(axis=1)
    return int((counts < theta).sum())


@pytest.mark.parametrize("piece", [2**10, 2**16, 2**20],
                         ids=["piece-2^10", "piece-2^16", "piece-2^20"])
@pytest.mark.parametrize("n_sys, p_r, n_trials, theta", [
    (10, 0.05, 2**20 + 3, 1),
    (3, 0.4, (1 << 22) + 12_345, 2),
    (20_000, 1e-4, 300_000, 1),
], ids=["many-pieces", "past-2^22-trials", "binomial"])
def test_empirical_ber_stream_is_pinned(monkeypatch, piece, n_sys, p_r, n_trials, theta):
    # drawing and thresholding piece by piece must leave every draw in place,
    # whatever the piece size: it bounds memory and shapes no stream. detect
    # binds the budget at import, so both names are patched
    monkeypatch.setattr(stats, "_CHUNK_BUDGET", piece)
    monkeypatch.setattr(detect, "_CHUNK_BUDGET", piece)
    rng = np.random.default_rng(2718)
    est = ber_empirical(n_sys, p_r, n_trials, rng, theta=theta)
    ref_rng = np.random.default_rng(2718)
    errors = _reference_ber_errors(n_sys, p_r, n_trials, ref_rng, theta)
    assert est.n_errors == errors
    assert (est.ci_low, est.ci_high) == _wilson_interval(errors, n_trials)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_empirical_ber_memory_is_bounded_in_trials():
    # bits and counts are drawn and reduced in fixed pieces, so eight times
    # the trials leave the peak where it was; holding a chunk's bits would
    # add a byte per trial, its counts eight bytes per bit-1 trial
    ber_empirical(10, 0.05, 1000, np.random.default_rng(0))
    peaks = []
    for n_trials in (2**18, 2**21):
        tracemalloc.start()
        try:
            ber_empirical(10, 0.05, n_trials, np.random.default_rng(3))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 64 * 1024
    assert peaks[1] < 2_000_000
