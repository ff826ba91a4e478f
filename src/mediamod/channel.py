"""
Diffusion-advection transport from the illuminated interval to the counting
window.

A molecule that starts at axial position z_tx drifts with the flow and
diffuses, so its position at time t is Gaussian with mean z_tx + v*t and
variance 2*D*t. Averaging the probability of landing inside the counting
window over a uniform start position across the illuminated interval gives
the channel impulse response h(t) in closed form (erf plus Gaussian terms).
An independent two-level quadrature of the same double integral is provided
for cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from .config import SystemConfig


@dataclass(frozen=True)
class ChannelModel:
    """Transport parameters of one link, named after the config keys they
    copy; the observed (switched) state diffuses with diff_a."""

    diff_a: float      # m^2/s, diffusion coefficient of the observed state
    flow_v: float      # m/s, axial flow velocity
    z_a_tx: float      # m, illuminated interval [z_a_tx, z_b_tx]
    z_b_tx: float
    z_a_rx: float      # m, counting window [z_a_rx, z_b_rx]
    z_b_rx: float

    @classmethod
    def from_config(cls, cfg: SystemConfig) -> "ChannelModel":
        return cls(**{f.name: getattr(cfg, f.name) for f in fields(cls)})

    @property
    def l_tx(self) -> float:
        return self.z_b_tx - self.z_a_tx


def point_kernel(model: ChannelModel, t: float, z_rx, z_tx):
    """Transition density: probability density of finding a molecule at z_rx
    at time t given start z_tx. Accepts scalars or broadcastable arrays."""
    if t <= 0:
        raise ValueError("t must be positive")
    var = 2.0 * model.diff_a * t
    mean = np.asarray(z_tx) + model.flow_v * t
    arg = np.asarray(z_rx) - mean
    return np.exp(-(arg * arg) / (2.0 * var)) / math.sqrt(2.0 * math.pi * var)


def _drifted_overlap(model: ChannelModel, t: np.ndarray) -> np.ndarray:
    # zero-diffusion limit: the interval just slides with the flow
    lo = np.maximum(model.z_a_tx + model.flow_v * t, model.z_a_rx)
    hi = np.minimum(model.z_b_tx + model.flow_v * t, model.z_b_rx)
    return np.maximum(hi - lo, 0.0) / model.l_tx


def hit_probability(model: ChannelModel, t) -> float | np.ndarray:
    """Closed-form h(t): probability that a molecule starting uniformly in
    the illuminated interval is inside the counting window at time t.

    t may be a scalar, which returns a float, or an array of times, which
    returns an array of h of the same shape. Every element is evaluated by
    the same numpy ufuncs (``scipy.special.erf`` for erf), so an element of
    an array result equals the scalar call at that time exactly.
    """
    from scipy.special import erf  # imported on first use: see the package docstring

    t = np.asarray(t, dtype=float)
    if not np.all(t >= 0):
        raise ValueError("t must be non-negative")
    # overflowing t (u * u, the shift or 4*D*t = inf) and the 4*D*t == 0
    # elements, which are replaced below, compute non-finite terms silently
    with np.errstate(all="ignore"):
        four_dt = 4.0 * (model.diff_a * t)   # 0 at t = 0 even if 4*D overflows
        root = np.sqrt(four_dt)
        gauss_scale = np.sqrt(four_dt / math.pi)
        shift = model.flow_v * t
        edges = (
            model.z_b_rx - model.z_a_tx,
            model.z_b_rx - model.z_b_tx,
            model.z_a_rx - model.z_b_tx,
            model.z_a_rx - model.z_a_tx,
        )
        total = 0.0
        sign = 1.0
        for edge in edges:
            u = edge - shift
            total = total + sign * (u * erf(u / root) + gauss_scale * np.exp(-u * u / four_dt))
            sign = -sign
        h = total / (2.0 * model.l_tx)
        # clamp fp residue (-3e-16 where h is essentially 0); an infinite shift
        # or spread leaves nothing in the window; 4*D*t == 0 is the drift limit
        h = np.where(np.isinf(shift) | np.isinf(four_dt), 0.0,
                     np.minimum(np.maximum(h, 0.0), 1.0))
        h = np.where(four_dt == 0.0, _drifted_overlap(model, t), h)
    return float(h) if h.ndim == 0 else h


@lru_cache(maxsize=8)
def _gl_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(order)


def hit_probability_quadrature(model: ChannelModel, t: float, nodes: int = 2048) -> float:
    """h(t) by direct numerical integration of the double integral; slow
    reference path, independent of the closed form.

    The outer integral over start positions uses a composite 16-point
    Gauss-Legendre rule (about nodes/16 panels). The outer integrand has
    erf-shaped layers of width sqrt(2*D*t) wherever a counting-window edge
    crosses the drifted start position, so panel edges are snapped to those
    crossings and to guard points a few layer widths around them; otherwise
    low panel counts misresolve the layers. The inner integral over the
    counting window uses a single 96-point rule on the window clipped to
    +-13 diffusion standard deviations around the drifted mean, outside of
    which the kernel is far below double precision.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    if nodes < 16:
        raise ValueError("nodes must be >= 16")

    sigma = math.sqrt(2.0 * model.diff_a * t)
    panels = max(1, nodes // 16)
    edges = list(np.linspace(model.z_a_tx, model.z_b_tx, panels + 1))
    for anchor in (model.z_b_rx - model.flow_v * t, model.z_a_rx - model.flow_v * t):
        if not model.z_a_tx - 24 * sigma < anchor < model.z_b_tx + 24 * sigma:
            continue
        for offset in (0.0, 8 * sigma, -8 * sigma, 24 * sigma, -24 * sigma):
            point = anchor + offset
            if model.z_a_tx < point < model.z_b_tx and not any(
                math.isclose(point, e, rel_tol=0.0, abs_tol=1e-13) for e in edges
            ):
                edges.append(point)
    edges.sort()
    edges_arr = np.asarray(edges)

    xi, wi = _gl_nodes(16)
    mid = 0.5 * (edges_arr[1:] + edges_arr[:-1])
    half = 0.5 * (edges_arr[1:] - edges_arr[:-1])
    z_tx = (mid[:, None] + half[:, None] * xi[None, :]).ravel()
    w_tx = (half[:, None] * wi[None, :]).ravel()

    mean = z_tx + model.flow_v * t
    lo = np.maximum(model.z_a_rx, mean - 13.0 * sigma)
    hi = np.minimum(model.z_b_rx, mean + 13.0 * sigma)
    valid = hi > lo

    inner = np.zeros_like(z_tx)
    if np.any(valid):
        eta, weta = _gl_nodes(96)
        mid_in = 0.5 * (hi[valid] + lo[valid])
        half_in = 0.5 * (hi[valid] - lo[valid])
        z_rx = mid_in[:, None] + half_in[:, None] * eta[None, :]
        pdf = point_kernel(model, t, z_rx, z_tx[valid][:, None])
        inner[valid] = (pdf * weta[None, :]).sum(axis=1) * half_in

    h = float(np.dot(w_tx, inner)) / model.l_tx
    return min(max(h, 0.0), 1.0)

