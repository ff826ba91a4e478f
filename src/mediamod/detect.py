"""
Threshold detection and bit error rate of the one-shot on-off keyed link.

The receiver counts fluorescent molecules in its window at the sampling time
and declares bit 1 when the count reaches the threshold theta >= 1. With
nothing switched for bit 0, the count under bit 0 is exactly zero, so every
error is a missed detection: ber = 0.5 * P(count < theta | bit 1).

At theta = 1 a miss is a count of 0, which is the event that the first
molecule to arrive has an index past n_sys: P(index > n_sys) =
(1 - p_r)**n_sys. The Monte-Carlo estimate draws that Geometric(p_r) index
instead of the count, by inversion, as ceil(E / rate) from one standard
exponential E with rate = -log1p(-p_r). Below p_r = 1/3 this is the
generator's own geometric draw, variate for variate, and at or above it the
same law from another stream. The index is never formed: a trial errs
exactly when E reaches the least exponential E* whose index passes n_sys,
found once per call.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .stats import ReceptionDistribution, sample_received_count

_Z95 = 1.959963984540054  # two-sided 95% normal quantile
# draws per piece, and the length of the one draw buffer reused piece after
# piece at theta = 1: bounds memory, shapes no stream
_CHUNK_BUDGET = 1 << 16
_INT64_MAX = np.iinfo(np.int64).max


def ber_analytic(n_sys: int, p_r, theta: int = 1) -> float | np.ndarray:
    """Exact bit error rate: half the probability that Binomial(n_sys, p_r)
    stays below the threshold, as the regularized incomplete beta tail
    P(count < theta) = 1 - I_p(theta, n_sys - theta + 1) (Abramowitz &
    Stegun 26.5.24). Accurate at every population up to the float range and
    down to the smallest representable error rates.

    p_r may be a scalar, which returns a float, or an array of reception
    probabilities, which returns an array of error rates of the same shape;
    an element of an array result equals the scalar call exactly.
    """
    from scipy.special import betaincc  # imported on first use: see the package docstring

    # a fractional or NaN population would be evaluated as it stands
    if not isinstance(n_sys, numbers.Integral):
        raise ValueError("n_sys must be an integer")
    if n_sys < 1:
        raise ValueError("n_sys must be >= 1")
    p = np.asarray(p_r, dtype=float)
    if not np.all((p >= 0.0) & (p <= 1.0)):
        raise ValueError("p_r must be in [0, 1]")
    if theta < 1:
        raise ValueError("theta must be >= 1")
    if theta > n_sys:
        # the count can never reach the threshold: every bit 1 is missed
        ber = np.full(p.shape, 0.5)
    else:
        ber = 0.5 * betaincc(theta, n_sys - theta + 1.0, p)
    return float(ber) if ber.ndim == 0 else ber


@dataclass(frozen=True)
class BerEstimate:
    ber: float
    n_errors: int
    ci_low: float    # Wilson 95% interval on the error probability
    ci_high: float


def _wilson_interval(errors: int, trials: int) -> tuple[float, float]:
    z2 = _Z95 * _Z95
    phat = errors / trials
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2.0 * trials)) / denom
    half = (_Z95 / denom) * math.sqrt(phat * (1.0 - phat) / trials + z2 / (4.0 * trials * trials))
    # each bound is clamped to its side of the estimate, which rounding would
    # otherwise cross at e = 0 and e = n
    return min(phat, max(0.0, center - half)), max(phat, min(1.0, center + half))


def _least_miss(n_sys: int, rate: float) -> float:
    """The least double E* >= 0 whose index ceil(E* / rate) passes n_sys,
    at 0 < rate <= inf; inf where no finite double's index does (rate = inf).

    For an integer n, ceil(q) > n exactly when q > n, and E / rate is
    monotone in E, so E* is where E / rate > n_sys turns true. The walk
    steps one double at a time from n_sys * rate, down while the test holds
    and then up until it does: at most a few steps. Python compares a float
    with an int exactly, also past 2**53.
    """
    if rate == math.inf:
        return math.inf
    n_sys = int(n_sys)
    e = n_sys * rate
    while e / rate > n_sys:
        e = math.nextafter(e, 0.0)
    while not e / rate > n_sys:
        e = math.nextafter(e, math.inf)
    return e


def _misses(ones: int, missed) -> int:
    """Errors among `ones` bit-1 trials, where missed(size) draws the next
    size trials and returns which of them err, at most _CHUNK_BUDGET at a
    time. Split draws continue the stream, so the piece size only bounds
    memory."""
    errors = 0
    for i in range(0, ones, _CHUNK_BUDGET):
        errors += int(np.count_nonzero(missed(min(_CHUNK_BUDGET, ones - i))))
    return errors


def _first_arrival_misses(n_sys: int, p_r: float, ones: int, rng: np.random.Generator) -> int:
    """Number of the `ones` bit-1 trials whose first molecule to arrive has
    an index past n_sys, for 0 < p_r <= 1: one standard exponential per
    trial, drawn into one reused buffer and compared with E*."""
    # libm's log1p, which the generator's inversion calls; numpy's vectorised
    # log1p may differ from it by an ulp and move a draw across an integer
    rate = -math.log1p(-p_r) if p_r < 1.0 else math.inf
    least = _least_miss(n_sys, rate)
    buf = np.empty(min(_CHUNK_BUDGET, ones))
    return _misses(ones, lambda size: rng.standard_exponential(out=buf[:size]) >= least)


def ber_empirical(
    n_sys: int,
    p_r: float,
    n_trials: int,
    rng: np.random.Generator,
    theta: int = 1,
) -> BerEstimate:
    """Monte-Carlo bit error rate over n_trials random one-shot transmissions.

    Each trial sends an equiprobable bit; bit 1 is missed when its received
    count stays below theta, bit 0 receives zero. No output reads a single
    bit, so the number of bit-1 trials is one Binomial(n_trials, 1/2) draw;
    then one draw per bit-1 trial: at theta = 1 the standard exponential of
    its first arrival (see the module docstring), at theta >= 2 a received
    count from the reception-stage sampler. The path holds one piece of
    draws (8 bytes each), whatever n_trials is.
    """
    if n_sys < 1:
        raise ValueError("n_sys must be >= 1")
    if n_sys > _INT64_MAX:
        raise ValueError("n_sys must be below 2**63")
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    if n_trials > _INT64_MAX:
        raise ValueError("n_trials must be below 2**63")
    if theta < 1:
        raise ValueError("theta must be >= 1")
    dist = ReceptionDistribution(n_sys, p_r)

    # bit-0 counts are exactly zero and never cross a threshold >= 1
    ones = int(rng.binomial(n_trials, 0.5))
    if p_r == 0.0:
        errors = ones  # no molecule ever arrives: every bit 1 is missed, no draw
    elif theta == 1:
        errors = _first_arrival_misses(n_sys, p_r, ones, rng)
    else:
        errors = _misses(ones, lambda size: sample_received_count(dist, rng, size) < theta)
    low, high = _wilson_interval(errors, n_trials)
    return BerEstimate(
        ber=errors / n_trials,
        n_errors=errors,
        ci_low=low,
        ci_high=high,
    )
