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
fraction p_tx * p_switch from ``switched_distribution`` and its switched
counts from ``sample_received_count``, which draws exactly the generator's
own binomial counts.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .channel import hit_probability
from .config import SystemConfig
from .photochem import SwitchingModel, switch_probability

_INT64_MAX = np.iinfo(np.int64).max
# The table sampler of sample_received_count: draws per piece, one uniform
# each, which bounds its memory; cells of its guide table; and the width of
# the stretch around each cumulative mass inside which a uniform is
# ambiguous, _TOL_FLOOR + n * _TOL_PER_TRIAL.
_PIECE = 1 << 12
_CELLS = 1 << 12
_TOL_FLOOR = 2.0**-40
_TOL_PER_TRIAL = 2.0**-51
# The generator's inversion costs about 8 ns a draw per unit of its mean
# past about 1/4; the table about 40 us a call plus what a draw of mean 1/4
# costs the generator. The table is used from this many units of
# (mean - 1/4) * draws on. Measured on 2 cores with numpy 2.4.6, the two
# break even near 900 draws at mean 11.3, 1 800 at mean 3, 3 200 at mean 1
# and 5 000 at mean 1/2, and the table never wins at mean 1/10
_TABLE_MIN_UNITS = 1 << 14


@dataclass(frozen=True)
class ReceptionDistribution:
    """Binomial(trials_n, success_p) count distribution after a stage."""

    trials_n: int
    success_p: float

    def __post_init__(self) -> None:
        # a fractional or NaN population would be truncated by the sampler
        # and evaluated as it stands by the pmf
        if not isinstance(self.trials_n, numbers.Integral):
            raise ValueError("trials_n must be an integer")
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
    """Draw size counts from dist: exactly the values of the generator's
    binomial sampler, ``rng.binomial(trials_n, success_p, size)``, which is
    exact at every population, with the same generator state after; split
    calls continue the stream.

    Where that sampler inverts one uniform per draw (mean n * min(p, 1 - p)
    <= 30), it counts the cumulative masses S_j below the uniform. Here the
    uniforms are drawn a piece at a time with ``rng.random`` and looked up in
    a guide table of the same masses. A piece holding a uniform within the
    tolerance of a mass, or past the last one (where the generator would
    draw again), is redrawn by the generator itself from the state before
    the piece, so a rounding difference can never change a count. At larger
    means, and at too few draws for the table to pay, the generator draws.
    """
    n_draws = int(size)
    if n_draws < 0:
        raise ValueError("size must be non-negative")
    n, p = dist.trials_n, dist.success_p
    # the generator inverts at min(p, 1 - p) and mirrors the count
    p_inv = 1.0 - p if p > 0.5 else p
    mean = p_inv * n
    if n > _INT64_MAX or p == 0.0 or mean > 30.0 or (mean - 0.25) * n_draws < _TABLE_MIN_UNITS:
        return rng.binomial(n, p, size=n_draws)
    n = int(n)
    masses = _inversion_masses(n, p_inv)
    # the masses and the generator's running subtraction differ by a few
    # ulps a term. The n term covers a generator that forms q**n as
    # exp(n * log(1 - p)), whose 1 - p is off by up to 2**-54
    tol = _TOL_FLOOR + n * _TOL_PER_TRIAL
    # the ambiguous stretches [S_j - tol, S_j + tol], merged where they
    # meet, the last one running on past S_bound. A uniform past 2j of these
    # edges lies between stretches j - 1 and j, and its count is j
    edges = np.column_stack((masses - tol, masses + tol)).ravel()
    np.maximum.accumulate(edges, out=edges)
    table = _guide_table(edges)
    edges[-1] = np.inf
    out = np.empty(n_draws, dtype=np.int64)
    for i in range(0, n_draws, _PIECE):
        x = out[i:i + _PIECE]
        state = rng.bit_generator.state
        u = rng.random(x.shape[0])
        np.take(table, (u * _CELLS).astype(np.intp), out=x)
        searched = np.flatnonzero(x < 0)
        if searched.shape[0]:
            passed = np.searchsorted(edges, u[searched])
            if np.any(passed & 1):
                rng.bit_generator.state = state
                x[:] = rng.binomial(n, p, size=x.shape[0])
                continue
            x[searched] = passed >> 1
        if p > 0.5:
            np.subtract(n, x, out=x)
    return out


def _guide_table(edges: np.ndarray) -> np.ndarray:
    """Chen & Asau's guide table: cell c holds the count shared by every
    uniform in [c, c + 1) / _CELLS, or -1 where the cell meets an ambiguous
    stretch and each uniform in it is searched.

    Stretch j covers cells [floor(lo_j * _CELLS), floor(hi_j * _CELLS)],
    the cells after the previous stretch's and before this one's hold j, and
    the last stretch covers every cell to the end.
    """
    cells = (edges * _CELLS).clip(0, _CELLS - 1).astype(np.intp)
    cells[1::2] += 1
    cells[-1] = _CELLS
    np.maximum.accumulate(cells, out=cells)
    runs = cells.copy()
    runs[1:] -= cells[:-1]
    values = np.full(runs.shape[0], -1, dtype=np.int64)
    values[0::2] = np.arange(runs.shape[0] // 2)
    return np.repeat(values, runs)


def _inversion_masses(n: int, p: float) -> np.ndarray:
    """Cumulative masses S_0 .. S_bound of numpy's binomial inversion at
    0 <= p <= 1/2: one uniform U gives the count #{j : S_j < U}, and a U
    past S_bound is drawn again.

    The terms follow the generator's recurrence operation for operation,
    from q**n = exp(n * log1p(-p)). A compiler may fuse the bound's
    multiply-adds; the bound taken here is the lower integer when that could
    move it, and uniforms past it fall back to the generator.
    """
    q = 1.0 - p
    px = math.exp(n * math.log1p(-p))
    mean = n * p
    reach = mean + 10.0 * math.sqrt(mean * q + 1)
    bound = int(min(n, reach - reach * 2.0**-40))
    terms = [px]
    for x in range(1, bound + 1):
        px = ((n - x + 1) * p * px) / (x * q)
        terms.append(px)
    return np.cumsum(terms)
