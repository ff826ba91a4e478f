"""
End-to-end reception statistics of the one-shot link.

Conditioned on the transmitted bit, a molecule of the population is counted
at the receiver when three independent events line up: it starts inside the
illuminated interval (probability p_tx), it switches while the light is on
(switch probability), and it sits inside the counting window at the sampling
time (hit probability). Thinning a binomial keeps it binomial, so the counts
after each stage follow Binomial(n_sys, p) with the per-stage p below.

This module is the one place that composes the link budget
p_r = p_tx * p_switch * h(t). The stages below take p_switch from
``link_switch_probability``, and the particle simulation takes its switched
fraction p_tx * p_switch from ``switched_distribution``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import hit_probability
from .config import SystemConfig
from .photochem import SwitchingModel, switch_probability


@dataclass(frozen=True)
class ReceptionDistribution:
    """Binomial(trials_n, success_p) count distribution after a stage."""

    trials_n: int
    success_p: float

    def __post_init__(self) -> None:
        if self.trials_n < 0:
            raise ValueError("trials_n must be non-negative")
        if not 0.0 <= self.success_p <= 1.0:
            raise ValueError("success_p must be in [0, 1]")

    @property
    def mean(self) -> float:
        return self.trials_n * self.success_p

    @property
    def variance(self) -> float:
        return self.trials_n * self.success_p * (1.0 - self.success_p)


def link_switch_probability(cfg: SystemConfig) -> float:
    """Switch probability of the link at the configured input power density,
    evaluated once at the expected illuminated count n_sys * p_tx.

    Every analytic stage below and the particle simulation use this value.
    """
    return switch_probability(SwitchingModel.from_config(cfg), cfg.n_sys * cfg.p_tx)


def switched_distribution(cfg: SystemConfig, s: int = 1) -> ReceptionDistribution:
    """Count of molecules switched by the transmitter for bit s. Its variance
    is the transmitter noise; the noise has zero mean by construction."""
    if s not in (0, 1):
        raise ValueError("s must be 0 or 1")
    p = cfg.p_tx * link_switch_probability(cfg) if s else 0.0
    return ReceptionDistribution(cfg.n_sys, p)


def received_distribution(
    cfg: SystemConfig, s: int = 1, t: float | None = None
) -> ReceptionDistribution:
    """Count of molecules inside the counting window at time t (default: the
    configured sampling time); its mean is the expected impulse response.

    success_p is the end-to-end probability p_r = p_tx * p_switch * h(t).
    """
    switched = switched_distribution(cfg, s)
    h = hit_probability(cfg, cfg.t_s if t is None else t)
    return ReceptionDistribution(cfg.n_sys, switched.success_p * h)


def received_count_pmf(dist: ReceptionDistribution, k) -> np.ndarray | float:
    """Binomial pmf of dist at integer count(s) k, evaluated in log space.

    k must lie in [0, trials_n]; a scalar k returns a float, an array of k an
    array of the same shape. p = 0 and p = 1 are the point masses at 0 and
    trials_n.
    """
    from scipy.special import gammaln  # imported on first use: see the package docstring

    k = np.asarray(k, dtype=float)
    n = dist.trials_n
    p = dist.success_p
    if np.any(k < 0) or np.any(k > n) or np.any(k != np.floor(k)):
        raise ValueError(f"k must be an integer in [0, {n}]")
    # log(0) and 0 * -inf at p in {0, 1} are replaced by the point masses
    with np.errstate(divide="ignore", invalid="ignore"):
        log_pmf = (
            gammaln(n + 1.0) - gammaln(k + 1.0) - gammaln(n - k + 1.0)
            + k * np.log(p) + (n - k) * np.log1p(-p)
        )
        pmf = np.exp(log_pmf)
    out = np.where(p == 0.0, k == 0, np.where(p == 1.0, k == n, pmf))
    return float(out) if out.ndim == 0 else out


def sample_received_count(
    dist: ReceptionDistribution, rng: np.random.Generator, size: int
) -> np.ndarray:
    """Draw size counts from dist with the generator's binomial sampler,
    which is exact at every population; split calls continue the stream."""
    n_draws = int(size)
    if n_draws < 0:
        raise ValueError("size must be non-negative")
    return rng.binomial(dist.trials_n, dist.success_p, size=n_draws)
