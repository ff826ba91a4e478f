"""
Threshold detection and bit error rate of the one-shot on-off keyed link.

The receiver counts fluorescent molecules in its window at the sampling time
and declares bit 1 when the count reaches the threshold theta >= 1. With
nothing switched for bit 0, the count under bit 0 is exactly zero, so every
error is a missed detection: ber = 0.5 * P(count < theta | bit 1). At
theta = 1 a miss is a count of 0, which is the event that the first molecule
to arrive has an index past n_sys; the Monte-Carlo estimate draws that
Geometric(p_r) index instead of the count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .stats import ReceptionDistribution, sample_received_count

_Z95 = 1.959963984540054  # two-sided 95% normal quantile
_CHUNK_BUDGET = 1 << 16  # draws per piece: bounds memory, shapes no stream
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
    = P(count = 0). At theta >= 2 it is a received count from the
    reception-stage sampler. Split draws continue the stream, so the piece
    size only bounds memory: the path holds one piece of draws (8 bytes
    each), whatever n_trials is.
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
    # the generator returns _INT64_MAX for every first-arrival index of 2**63
    # or more, which is past any n_sys, so it is always a miss
    first_miss = min(n_sys + 1, _INT64_MAX)
    # each piece of draws is reduced and freed before the next; bit-0 counts
    # are exactly zero and never cross a threshold >= 1
    errors = 0
    for i in range(0, ones, _CHUNK_BUDGET):
        size = min(_CHUNK_BUDGET, ones - i)
        if theta > 1:
            errors += int(np.count_nonzero(sample_received_count(dist, rng, size) < theta))
        elif p_r > 0.0:
            errors += int(np.count_nonzero(rng.geometric(p_r, size) >= first_miss))
        else:
            errors += size  # no molecule ever arrives: every bit 1 is missed, no draw
    low, high = _wilson_interval(errors, n_trials)
    return BerEstimate(
        ber=errors / n_trials,
        n_errors=errors,
        ci_low=low,
        ci_high=high,
    )
