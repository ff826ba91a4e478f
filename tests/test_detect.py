import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy.special import bdtr, bdtrc, ndtri

from mediamod import (
    BerEstimate,
    ReceptionDistribution,
    ber_analytic,
    ber_empirical,
    hit_probability,
    received_count_pmf,
    received_distribution,
)
from mediamod import detect
from mediamod.detect import _wilson_interval

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


def _ber_z(est, want, n_trials):
    """z-score of an empirical error rate against the exact one; |z| > 4.5
    fails a correct sampler with probability 6.8e-6."""
    return (est.ber - want) / math.sqrt(want * (1.0 - want) / n_trials)


def test_empirical_ber_brackets_analytic():
    p_r = 0.1 * 0.999
    est = ber_empirical(10, p_r, 200_000, np.random.default_rng(424242))
    want = ber_analytic(10, p_r)
    assert abs(_ber_z(est, want, 200_000)) <= 4.5
    assert est.ber == pytest.approx(want, rel=0.02)
    assert est.n_errors == round(est.ber * 200_000)


def test_empirical_ber_degenerate_links():
    est_perfect = ber_empirical(100, 1.0, 10_000, np.random.default_rng(0))
    assert est_perfect.ber == 0.0
    assert est_perfect.ci_low == 0.0
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
    assert abs(_ber_z(est, want, 100_000)) <= 4.5


@pytest.mark.parametrize("errors, trials", [
    (0, 1), (1, 1), (0, 7), (1, 10), (5, 10), (10, 10),
    (0, 2000), (3, 1000), (17, 10**6), (500_000, 10**6), (10**6, 10**6),
])
def test_wilson_interval_solves_its_defining_equation(errors, trials):
    # the Wilson bounds are the roots p of (e/n - p)^2 = z^2 p (1 - p) / n,
    # with z the two-sided 95% normal quantile; evaluated exactly in
    # rationals, the residual is judged on the equation's scale z^2 / n
    z2 = Fraction(ndtri(0.975)) ** 2
    phat = Fraction(errors, trials)
    low, high = _wilson_interval(errors, trials)
    assert 0.0 <= low < high <= 1.0
    # each bound lies on its side of the estimate, exactly at the ends
    assert low <= phat <= high
    if errors == 0:
        assert low == 0.0
    if errors == trials:
        assert high == 1.0
    for p in map(Fraction, (low, high)):
        residual = (phat - p) ** 2 - z2 * p * (1 - p) / trials
        assert abs(residual) <= 1e-12 * z2 / trials


def test_empirical_ber_validation():
    with pytest.raises(ValueError):
        ber_empirical(10, 0.1, 0, np.random.default_rng(2))
    with pytest.raises(ValueError, match="n_sys"):
        ber_empirical(0, 0.5, 1000, np.random.default_rng(2))
    for theta in (0, -2):
        with pytest.raises(ValueError, match="theta"):
            ber_empirical(10, 0.1, 100, np.random.default_rng(2), theta=theta)
    # the generator's binomial cannot count that many bits
    with pytest.raises(ValueError, match=r"n_trials must be below 2\*\*63"):
        ber_empirical(10, 0.1, 2**63, np.random.default_rng(2))


def _reference_ber_errors(n_sys, p_r, n_trials, rng, theta):
    # the whole-run algorithm: the bit-1 count in one binomial draw, then, all
    # at once, one first-arrival index per bit-1 trial from the generator's
    # geometric at theta = 1 (a miss when it passes n_sys; the generator clips
    # indices of 2**63 or more to 2**63 - 1, which is then a miss as well) or
    # one binomial count per bit-1 trial above it
    ones = int(rng.binomial(n_trials, 0.5))
    if theta == 1:
        first_miss = min(n_sys + 1, 2**63 - 1)
        return int((rng.geometric(p_r, size=ones) >= first_miss).sum())
    return int((rng.binomial(n_sys, p_r, size=ones) < theta).sum())


@pytest.mark.parametrize("piece", [2**10, 2**16, 2**20],
                         ids=["piece-2^10", "piece-2^16", "piece-2^20"])
@pytest.mark.parametrize("n_sys, p_r, n_trials, theta", [
    (10, 0.05, 2**20 + 3, 1),
    (3, 0.4, (1 << 22) + 12_345, 2),
    (20_000, 1e-4, 300_000, 1),
    (10, 0.05, 1_000, 1),
    (2**62, 1e-19, 200_000, 1),
    (2**63 - 1, 1e-19, 200_000, 1),
    (2_258_283_456, 1.753230331506118e-09, 2**16, 1),
], ids=["many-pieces", "past-2^22-trials", "binomial", "short-buffer", "past-2^62",
        "int64-clip", "libm-log1p"])
def test_empirical_ber_stream_is_pinned(monkeypatch, piece, n_sys, p_r, n_trials, theta):
    # drawing and thresholding piece by piece must leave every draw in place,
    # whatever the piece size: it bounds memory and shapes no stream. Below
    # p_r = 1/3 the first-arrival index is the generator's own geometric, so
    # the same misses come out of the same variates. At n_sys = 2**62 the
    # threshold 2**62 + 1 is no double and is rounded up; at 2**63 - 1 about
    # 40% of the indices are clipped (the exact boundaries are checked in
    # test_first_arrival_threshold_is_exact_past_2_53). In the last case one
    # index lands on n_sys + 1 through libm's log1p but on n_sys through
    # numpy's vectorised log1p where that differs by an ulp (AVX-512 builds)
    monkeypatch.setattr(detect, "_CHUNK_BUDGET", piece)
    rng = np.random.default_rng(2718)
    est = ber_empirical(n_sys, p_r, n_trials, rng, theta=theta)
    ref_rng = np.random.default_rng(2718)
    errors = _reference_ber_errors(n_sys, p_r, n_trials, ref_rng, theta)
    assert est.n_errors == errors
    assert (est.ci_low, est.ci_high) == _wilson_interval(errors, n_trials)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("n_sys, p_r, n_trials, theta, seed, n_errors", [
    # the first row of `ber --trials 1000000 --p-min 1e3 --p-max 1e6
    # --points 2 --seed 1 --n-sys 10 --n-sys 50 --n-sys 100`
    (10, 0.011255872191178438, 10**6, 1, 1, 445_935),
    (3, 0.4, 10_000, 2, 7, 3_245),
    (20_000, 1e-4, 300_000, 1, 2718, 20_305),
    (50, 0.1, 100_000, 3, 11, 5_538),
    # at and above p_r = 1/3 the generator's geometric searches from 1
    # upwards; the inversion used for every p_r draws another stream there
    (3, 0.4, 100_000, 1, 13, 10_786),
], ids=["ber-mc-row", "small-threshold-2", "binomial", "threshold-3", "first-arrival-p-0.4"])
def test_empirical_ber_errors_are_pinned(n_sys, p_r, n_trials, theta, seed, n_errors):
    # literal error counts, so any change of the Monte-Carlo stream shows
    est = ber_empirical(n_sys, p_r, n_trials, np.random.default_rng(seed), theta=theta)
    assert est.n_errors == n_errors


@pytest.mark.parametrize("p_r", [0.0999, 0.4], ids=["inversion", "search"])
def test_first_arrival_errors_match_analytic_on_both_geometric_branches(p_r):
    # the first-arrival index is drawn by inversion from one exponential at
    # every p_r: below p_r = 1/3 that is the generator's own geometric, at
    # or above it, where the generator would search from 1 upwards, it is
    # only the same law. Over n_trials the error count is exactly
    # Binomial(n_trials, ber), so each population fails when either exact
    # tail of its count is below 0.5e-5: a correct sampler fails each case
    # with probability at most 2e-5, the two with at most 4e-5
    rng = np.random.default_rng(3301)
    for n_sys in (3, 10):
        errors = ber_empirical(n_sys, p_r, 10**6, rng).n_errors
        want = ber_analytic(n_sys, p_r)
        tail = min(bdtr(errors, 10**6, want), bdtrc(errors - 1, 10**6, want))
        assert tail >= 0.5e-5, (n_sys, errors, want * 10**6)


def test_first_arrival_past_the_int64_range():
    # a first-arrival index of 2**63 or more, which the generator's geometric
    # would clip to 2**63 - 1, is past n_sys = 2**63 - 1: at p_r = 1e-300 the
    # count is 0 with probability 1 - 9e-282, so every bit-1 trial errs
    est = ber_empirical(2**63 - 1, 1e-300, 10_000, np.random.default_rng(0))
    assert est.n_errors == int(np.random.default_rng(0).binomial(10_000, 0.5))
    # at p_r = 1e-19 about 40% of the indices are past 2**63 and 23% lie
    # between 2**62 and 2**63, where the doubles are 1024 apart
    for n_sys, seed in ((2**62, 5), (2**63 - 1, 6)):
        est = ber_empirical(n_sys, 1e-19, 200_000, np.random.default_rng(seed))
        assert abs(_ber_z(est, ber_analytic(n_sys, 1e-19), 200_000)) <= 4.5
    with pytest.raises(ValueError, match=r"n_sys must be below 2\*\*63"):
        ber_empirical(2**63, 1e-300, 100, np.random.default_rng(2))


class _Exponentials:
    """Stands in for the generator: fills each piece with the given
    standard exponentials, in order."""

    def __init__(self, values):
        self.values = list(values)

    def standard_exponential(self, out):
        out[:] = self.values[: len(out)]
        del self.values[: len(out)]
        return out


@pytest.mark.parametrize("n_sys", [2**53, 2**62 - 1, 2**62, 2**63 - 1025, 2**63 - 1024,
                                   2**63 - 1])
def test_first_arrival_threshold_is_exact_past_2_53(n_sys):
    # at p_r = 1e-19 the exponential k * 1e-19 divides back to exactly the
    # index k, so these indices are drawn as they stand. A trial errs when
    # its index passes n_sys. In the first, third and fifth cases n_sys + 1
    # is no double, and rounding it to nearest would count one index too many
    indices = [2**53, 2**53 + 2, 2**62, 2**62 + 1024, 2**63 - 1024, 2**63]
    rng = _Exponentials(k * 1e-19 for k in indices)
    errors = detect._first_arrival_misses(n_sys, 1e-19, len(indices), rng)
    assert errors == sum(k > n_sys for k in indices)


def _index_passes(e, n_sys, rate):
    # the per-draw test the threshold replaces: the index ceil(E / rate),
    # rounded up in doubles and compared with the least double at or above
    # n_sys + 1; a quotient past the float range is inf, a miss
    first_miss = float(n_sys + 1)
    if first_miss < n_sys + 1:
        first_miss = math.nextafter(first_miss, math.inf)
    with np.errstate(over="ignore"):
        return bool(np.ceil(np.divide(np.float64(e), rate)) >= first_miss)


@pytest.mark.parametrize("n_sys", [1, 10, 2**53 - 1, 2**53, 2**53 + 1, 2**62, 2**63 - 1])
@pytest.mark.parametrize("p_r", [5e-324, 1e-300, 1e-19, 1 / 3, 0.4, 1 - 2**-53, 1.0])
def test_first_arrival_threshold_matches_the_index_at_its_boundary(p_r, n_sys):
    # each trial is decided by one comparison with the least erring
    # exponential E*; at E*, at the double below it and at the doubles
    # around n_sys * rate and (n_sys + 1) * rate that decision must equal the
    # rounded index's. Only finite exponentials are fed, as the generator
    # draws no other; at p_r = 1 no finite one errs and E* is inf
    rate = -math.log1p(-p_r) if p_r < 1.0 else math.inf
    least = detect._least_miss(n_sys, rate)
    values = {least, math.nextafter(least, 0.0)}
    for centre in (n_sys * rate, (n_sys + 1) * rate):
        values |= {math.nextafter(centre, 0.0), centre, math.nextafter(centre, math.inf)}
    for e in sorted(e for e in values if math.isfinite(e)):
        errors = detect._first_arrival_misses(n_sys, p_r, 1, _Exponentials([e]))
        assert errors == _index_passes(e, n_sys, rate), e


def test_empirical_ber_memory_is_bounded_in_trials():
    # the bit-1 count is one draw and the per-trial draws are taken and
    # reduced in fixed pieces, so eight times the trials leave the peak where
    # it was; holding them all would add eight bytes per bit-1 trial
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
