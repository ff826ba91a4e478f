"""
Threshold detection and bit error rate of the one-shot on-off keyed link.

The receiver counts fluorescent molecules in its window at the sampling time
and declares bit 1 when the count reaches a threshold. With nothing switched
for bit 0, the count under bit 0 is exactly zero, so every error is a missed
detection: ber = 0.5 * P(count < threshold | bit 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .stats import (
    ReceptionDistribution,
    received_count_pmf,
    sample_received_count,
)

_Z95 = 1.959963984540054  # two-sided 95% normal quantile


@dataclass(frozen=True)
class DetectorConfig:
    threshold: int = 1   # declare bit 1 when count >= threshold

    def __post_init__(self) -> None:
        if self.threshold < 1:
            raise ValueError("threshold must be >= 1")


def detect(n_rx: int, det: DetectorConfig = DetectorConfig()) -> int:
    """Decide the transmitted bit from a received count."""
    if n_rx < 0:
        raise ValueError("n_rx must be non-negative")
    return 1 if n_rx >= det.threshold else 0


def ber_analytic(n_sys: int, p_r: float, theta: int = 1) -> float:
    """Exact bit error rate: half the probability that Binomial(n_sys, p_r)
    stays below the threshold. Evaluated through the log-space pmf, so it is
    accurate down to the smallest representable error rates."""
    if n_sys < 1:
        raise ValueError("n_sys must be >= 1")
    if not 0.0 <= p_r <= 1.0:
        raise ValueError("p_r must be in [0, 1]")
    if theta < 1:
        raise ValueError("theta must be >= 1")
    dist = ReceptionDistribution(n_sys, p_r)
    if theta == 1:
        # Binomial pmf at zero, without building an array
        if p_r == 1.0:
            return 0.0
        return 0.5 * math.exp(n_sys * math.log1p(-p_r))
    ks = np.arange(min(theta, n_sys + 1))
    miss = float(np.sum(received_count_pmf(dist, ks)))
    return 0.5 * min(miss, 1.0)


@dataclass(frozen=True)
class BerEstimate:
    ber: float
    n_errors: int
    n_trials: int
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
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    det = DetectorConfig(threshold=theta)
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
            errors += int((counts < det.threshold).sum())
        # bit-0 counts are exactly zero: never cross a threshold >= 1
        start += m
    low, high = _wilson_interval(errors, n_trials)
    return BerEstimate(
        ber=errors / n_trials,
        n_errors=errors,
        n_trials=n_trials,
        ci_low=low,
        ci_high=high,
    )
