"""
Threshold detection and bit error rate of the one-shot on-off keyed link.

The receiver counts fluorescent molecules in its window at the sampling time
and declares bit 1 when the count reaches the threshold theta >= 1. With
nothing switched for bit 0, the count under bit 0 is exactly zero, so every
error is a missed detection: ber = 0.5 * P(count < theta | bit 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .stats import ReceptionDistribution, _binomial_pmf, sample_received_count

_Z95 = 1.959963984540054  # two-sided 95% normal quantile


def ber_analytic(n_sys: int, p_r, theta: int = 1) -> float | np.ndarray:
    """Exact bit error rate: half the probability that Binomial(n_sys, p_r)
    stays below the threshold. Evaluated through the log-space pmf, so it is
    accurate down to the smallest representable error rates.

    p_r may be a scalar, which returns a float, or an array of reception
    probabilities, which returns an array of error rates of the same shape;
    an element of an array result equals the scalar call exactly.
    """
    if n_sys < 1:
        raise ValueError("n_sys must be >= 1")
    p = np.asarray(p_r, dtype=float)
    if not np.all((p >= 0.0) & (p <= 1.0)):
        raise ValueError("p_r must be in [0, 1]")
    if theta < 1:
        raise ValueError("theta must be >= 1")
    if theta == 1:
        # Binomial pmf at zero, per element with libm, without building a pmf
        ber = np.array([0.0 if q == 1.0 else 0.5 * math.exp(n_sys * math.log1p(-q))
                        for q in p.ravel().tolist()]).reshape(p.shape)
    else:
        ks = np.arange(min(theta, n_sys + 1))
        miss = _binomial_pmf(n_sys, ks, p[..., None]).sum(axis=-1)
        ber = 0.5 * np.minimum(miss, 1.0)
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
    return max(0.0, center - half), min(1.0, center + half)


def ber_empirical(
    n_sys: int,
    p_r: float,
    n_trials: int,
    rng: np.random.Generator,
    theta: int = 1,
) -> BerEstimate:
    """Monte-Carlo bit error rate over n_trials random one-shot transmissions.

    Each trial draws an equiprobable bit; bit 1 draws a received count with
    the reception-stage sampler and applies the threshold rule, bit 0
    receives zero. Counts are drawn in bounded chunks so trial counts in the
    millions stay cheap on memory.
    """
    if n_sys < 1:
        raise ValueError("n_sys must be >= 1")
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    if theta < 1:
        raise ValueError("theta must be >= 1")
    dist = ReceptionDistribution(n_sys, p_r)

    errors = 0
    chunk = 1 << 22
    start = 0
    while start < n_trials:
        m = min(chunk, n_trials - start)
        bits = rng.random(m) < 0.5
        n_ones = int(bits.sum())
        if n_ones:
            counts = sample_received_count(dist, rng, size=n_ones)
            errors += int((counts < theta).sum())
        # bit-0 counts are exactly zero: never cross a threshold >= 1
        start += m
    low, high = _wilson_interval(errors, n_trials)
    return BerEstimate(
        ber=errors / n_trials,
        n_errors=errors,
        ci_low=low,
        ci_high=high,
    )
