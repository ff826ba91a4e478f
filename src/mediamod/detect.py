"""
Threshold detection and bit error rate of the one-shot on-off keyed link.

The receiver counts fluorescent molecules in its window at the sampling time
and declares bit 1 when the count reaches the threshold theta >= 1. With
nothing switched for bit 0, the count under bit 0 is exactly zero, so every
error is a missed detection: ber = 0.5 * P(count < theta | bit 1). At
theta = 1 a miss is a count of 0, which is the event that the first molecule
to arrive has an index past n_sys; the Monte-Carlo estimate draws that
Geometric(p_r) index instead of the count, by inversion from one standard
exponential per bit-1 trial, and decides it with one comparison of the
exponential against the least one whose index passes n_sys.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .stats import ReceptionDistribution, sample_received_count

_Z95 = 1.959963984540054  # two-sided 95% normal quantile
# draws per piece, and the length of the one draw buffer reused piece after
# piece at theta = 1: bounds memory, shapes no stream
_CHUNK_BUDGET = 1 << 16
_INT64_MAX = np.iinfo(np.int64).max
# the bit pattern of +inf, past every finite non-negative double's
_INF_BITS = 0x7FF0000000000000
_BITS = struct.Struct("<q")
_DOUBLE = struct.Struct("<d")


def _double(bits: int) -> float:
    return _DOUBLE.unpack(_BITS.pack(bits))[0]


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

    Division by a positive constant and ceil are both monotone in IEEE
    arithmetic, so a finite E has an index past n_sys exactly when E >= E*.
    E* is found by bisection over the bit patterns of the non-negative
    doubles, which order as their values: about 63 steps, each the same
    divide and ceil the index takes. A quotient of inf passes every n_sys,
    and ceil's integer compares with n_sys exactly, also past 2**53.
    """
    lo, hi = -1, _INF_BITS
    while hi - lo > 1:
        mid = (lo + hi) >> 1
        q = _double(mid) / rate
        if q == math.inf or math.ceil(q) > n_sys:
            hi = mid
        else:
            lo = mid
    return _double(hi)


def _first_arrival_misses(n_sys: int, p_r: float, ones: int, rng: np.random.Generator) -> int:
    """Number of the `ones` bit-1 trials whose first molecule to arrive has
    an index past n_sys, for 0 < p_r <= 1.

    The index is Geometric(p_r) by inversion, ceil(E / rate) from one
    standard exponential E with rate = -log1p(-p_r), so that
    P(index > n_sys) = exp(-rate * n_sys) = (1 - p_r)**n_sys at every p_r.
    Below p_r = 1/3 this is the generator's own geometric draw: the same
    variates, the same misses and the same generator state after. The index
    is never formed: one comparison of E with the least erring exponential
    E* (_least_miss), found once per call, decides each trial exactly as the
    index would. The exponentials are drawn into one buffer of _CHUNK_BUDGET
    draws, reused piece after piece.
    """
    # libm's log1p, which the generator's inversion calls; numpy's vectorised
    # log1p may differ from it by an ulp and move a draw across an integer
    rate = -math.log1p(-p_r) if p_r < 1.0 else math.inf
    least = _least_miss(n_sys, rate)
    buf = np.empty(min(_CHUNK_BUDGET, ones))
    errors = 0
    for i in range(0, ones, _CHUNK_BUDGET):
        e = rng.standard_exponential(out=buf[: min(_CHUNK_BUDGET, ones - i)])
        errors += int(np.count_nonzero(e >= least))
    return errors


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
    then one draw per bit-1 trial, _CHUNK_BUDGET at a time. At theta = 1 that
    draw is the index of the first molecule to arrive, Geometric(p_r), and
    the trial errs when it passes n_sys: P(index > n_sys) = (1 - p_r)**n_sys
    = P(count = 0). The index is ceil(E / -log1p(-p_r)) from one standard
    exponential E, which below p_r = 1/3 is the generator's own geometric
    draw, variate for variate, and at or above it the same law from another
    stream. The index is never formed: one comparison of E with the least
    exponential whose index passes n_sys decides the trial exactly as the
    index would. At theta >= 2 the draw is a received count from the
    reception-stage sampler. Split draws continue the stream, so the piece size only bounds
    memory: the path holds one piece of draws (8 bytes each), whatever
    n_trials is.
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

    ones = int(rng.binomial(n_trials, 0.5))
    # bit-0 counts are exactly zero and never cross a threshold >= 1
    if theta > 1:
        # each piece of counts is reduced and freed before the next
        errors = 0
        for i in range(0, ones, _CHUNK_BUDGET):
            size = min(_CHUNK_BUDGET, ones - i)
            errors += int(np.count_nonzero(sample_received_count(dist, rng, size) < theta))
    elif p_r > 0.0:
        errors = _first_arrival_misses(n_sys, p_r, ones, rng)
    else:
        errors = ones  # no molecule ever arrives: every bit 1 is missed, no draw
    low, high = _wilson_interval(errors, n_trials)
    return BerEstimate(
        ber=errors / n_trials,
        n_errors=errors,
        ci_low=low,
        ci_high=high,
    )
