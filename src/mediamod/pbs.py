"""
Particle-based Monte-Carlo simulation of the link.

Each realization places the molecule population uniformly along the duct
axis, applies the transmitter's switching as a single Bernoulli event per
molecule at the start of the symbol (the molecules are effectively static
while the light is on), then propagates the molecules with independent
Gaussian steps: dz = v*dt + sqrt(2*D*dt)*g. The axial domain is unbounded;
the observed subvolume is a counting window, not a walled box, so molecules
may drift past its edges.

States never change after modulation and the receiver counts only switched
(state-A) molecules, so only those are propagated, and the Gaussian
increments between two record times are drawn as one coalesced jump with the
summed variance. ``run_ensemble`` works on blocks of realizations: each
realization draws from its own generator, ``SeedSequence(seed,
spawn_key=(r,))``, and the arithmetic between draws runs once per block.

``init_population``, ``apply_modulation``, ``step`` and
``count_state_a_in_rx`` on a ``Population`` are the replay oracle: they take
the same draws one realization and one record gap at a time, so the tests
replay any realization of ``run_ensemble`` with them.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .config import SystemConfig
from .stats import link_switch_probability

_BLOCK_BUDGET = 1 << 15  # float64 values a block or group holds per array


class MoleculeState(enum.IntEnum):
    STATE_B = 0   # ground state, not fluorescent at the readout wavelength
    STATE_A = 1   # switched state, counted by the receiver


@dataclass
class Population:
    """Positions and states of every signaling molecule in one realization."""

    z: np.ndarray       # float64, axial positions [m]
    state: np.ndarray   # int8, MoleculeState values

    def __len__(self) -> int:
        return self.z.shape[0]


def init_population(cfg: SystemConfig, rng: np.random.Generator) -> Population:
    """Uniform positions over the observed subvolume, everything in state B."""
    z = rng.random(cfg.n_sys) * cfg.sys_length
    state = np.full(cfg.n_sys, MoleculeState.STATE_B, dtype=np.int8)
    return Population(z=z, state=state)


def apply_modulation(
    pop: Population,
    cfg: SystemConfig,
    s: int,
    p_switch: float,
    rng: np.random.Generator,
) -> int:
    """Switch molecules inside the illuminated interval for bit s.

    Always draws one uniform per molecule, so runs for s = 0 and s = 1 from
    identical generator states stay aligned step for step. Returns the number
    of molecules switched.
    """
    if s not in (0, 1):
        raise ValueError("s must be 0 or 1")
    if not 0.0 <= p_switch <= 1.0:
        raise ValueError("p_switch must be in [0, 1]")
    u = rng.random(len(pop))
    flip = (
        (pop.z >= cfg.z_a_tx) & (pop.z <= cfg.z_b_tx) & (u < s * p_switch)
    )
    pop.state[flip] = MoleculeState.STATE_A
    return int(np.count_nonzero(flip))


def step(pop: Population, cfg: SystemConfig, dt: float, rng: np.random.Generator) -> None:
    """Advance every molecule by one Gaussian increment of duration dt."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    g = rng.standard_normal(len(pop))
    sigma = np.where(
        pop.state == MoleculeState.STATE_A,
        math.sqrt(2.0 * cfg.diff_a * dt),
        math.sqrt(2.0 * cfg.diff_b * dt),
    )
    pop.z += cfg.flow_v * dt + sigma * g


def count_state_a_in_rx(pop: Population, cfg: SystemConfig) -> int:
    """Number of switched molecules inside the counting window."""
    hit = (
        (pop.state == MoleculeState.STATE_A)
        & (pop.z >= cfg.z_a_rx)
        & (pop.z <= cfg.z_b_rx)
    )
    return int(np.count_nonzero(hit))


@dataclass(frozen=True)
class PbsEnsemble:
    """Run plan for a batch of realizations."""

    realizations: int
    record_times: tuple[float, ...]  # s, non-negative, strictly increasing
    seed: int | None = None          # None: fall back to the config seed

    def __post_init__(self) -> None:
        if self.realizations < 1:
            raise ValueError("realizations must be >= 1")
        if not self.record_times:
            raise ValueError("record_times must not be empty")
        if not all(math.isfinite(t) and t >= 0 for t in self.record_times):
            raise ValueError("record_times must be finite and non-negative")
        if any(b <= a for a, b in zip(self.record_times, self.record_times[1:])):
            raise ValueError("record_times must be strictly increasing")

    @classmethod
    def from_config(cls, cfg: SystemConfig) -> "PbsEnsemble":
        """Default plan: all configured realizations, one record at the
        sampling time."""
        return cls(
            realizations=cfg.n_realizations,
            record_times=(cfg.t_s,),
            seed=cfg.seed,
        )


@dataclass(frozen=True)
class EnsembleStats:
    """Per-record-time statistics over all realizations."""

    times: np.ndarray        # (T,) record times
    mean_rx: np.ndarray      # (T,) mean switched count in the window
    stderr_rx: np.ndarray    # (T,) standard error of mean_rx
    counts_rx: np.ndarray    # (R, T) per-realization counts, int64
    n_switched: np.ndarray   # (R,) molecules switched per realization


def empirical_pmf(counts: np.ndarray, n_max: int | None = None) -> np.ndarray:
    """Relative frequency of each count value 0..n_max."""
    counts = np.asarray(counts, dtype=np.int64)
    if counts.size == 0:
        raise ValueError("counts must not be empty")
    top = int(counts.max()) if n_max is None else int(n_max)
    freq = np.bincount(counts, minlength=top + 1).astype(float)
    if freq.shape[0] > top + 1:
        raise ValueError("counts exceed n_max")
    return freq / counts.size


def run_ensemble(
    cfg: SystemConfig,
    s: int,
    ensemble: PbsEnsemble,
    irradiance: float | None = None,
) -> EnsembleStats:
    """Simulate the ensemble and return count statistics at the record times.

    Any record grid works; the count distribution at a time is a column of
    ``counts_rx``. Realization r runs on its own generator,
    ``Generator(PCG64(SeedSequence(seed, spawn_key=(r,))))``, the stream of
    the r-th child of ``SeedSequence(seed).spawn``, built when the
    realization runs, so results do not depend on execution order, seeds
    take constant memory and any single realization can be reproduced in
    isolation. The switch probability is ``stats.link_switch_probability``,
    the value the analytic chain uses.

    Realizations run in blocks of ``_BLOCK_BUDGET // (2 * n_sys)`` (at least
    one), in two passes. Pass 1 draws each realization's
    ``random(2 * n_sys)``, placement uniforms then modulation uniforms (the
    stream ``init_population`` then ``apply_modulation`` draw), and places,
    switches and gathers the switched molecules of the whole block at once.
    Pass 2 walks the block in groups of at most ``_BLOCK_BUDGET`` switched
    molecules times record times (at least one realization per group): each
    realization draws the coalesced jumps of every positive record gap for
    its switched molecules, and the group cumsums them and counts window hits
    at once. Running ``init_population``, ``apply_modulation``, ``step`` on
    the switched molecules once per positive gap and ``count_state_a_in_rx``
    at each record time on the realization's generator replays it: the draws
    are the same, and positions differ only in summation order.
    """
    if s not in (0, 1):
        raise ValueError("s must be 0 or 1")
    p_switch = link_switch_probability(cfg, irradiance)
    if not 0.0 <= p_switch <= 1.0:
        raise ValueError("p_switch must be in [0, 1]")

    times = np.asarray(ensemble.record_times, dtype=float)
    seed = cfg.seed if ensemble.seed is None else ensemble.seed
    counts, switched = _simulate(cfg, s * p_switch, times, ensemble.realizations, seed)

    mean = counts.mean(axis=0)
    if ensemble.realizations > 1:
        stderr = counts.std(axis=0, ddof=1) / math.sqrt(ensemble.realizations)
    else:
        stderr = np.zeros(times.shape[0])
    return EnsembleStats(
        times=times, mean_rx=mean, stderr_rx=stderr,
        counts_rx=counts, n_switched=switched,
    )


def _simulate(
    cfg: SystemConfig, threshold: float, times: np.ndarray, n_real: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Window counts (R, T) and switched counts (R,) of ``run_ensemble``; a
    molecule in the illuminated interval switches when its modulation
    uniform is below threshold."""
    n_times, n_sys = times.shape[0], cfg.n_sys
    counts = np.empty((n_real, n_times), dtype=np.int64)
    switched = np.empty(n_real, dtype=np.int64)

    # only a record at t = 0 can have a zero gap; it sees the initial positions
    gaps = np.diff(times, prepend=0.0)
    moving = gaps[gaps > 0]
    drift = (cfg.flow_v * moving)[:, None]
    sigma = np.sqrt(2.0 * cfg.diff_a * moving)[:, None]
    n_moves = moving.shape[0]
    block = max(1, _BLOCK_BUDGET // (2 * n_sys))
    group_cap = max(1, _BLOCK_BUDGET // n_times)  # switched molecules per group
    u = np.empty((min(block, n_real), 2 * n_sys))

    for first in range(0, n_real, block):
        rngs = [
            np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(r,))))
            for r in range(first, min(first + block, n_real))
        ]
        ub = u[:len(rngs)]
        for row, rng in zip(ub, rngs):
            rng.random(out=row)
        z0 = ub[:, :n_sys]
        z0 *= cfg.sys_length
        lit = (z0 >= cfg.z_a_tx) & (z0 <= cfg.z_b_tx) & (ub[:, n_sys:] < threshold)
        k = np.count_nonzero(lit, axis=1)
        switched[first:first + len(rngs)] = k
        za = z0[lit]  # realization-major

        ks = k.tolist()
        lo = edge = 0
        while lo < len(ks):
            hi, width = lo + 1, ks[lo]
            while hi < len(ks) and width + ks[hi] <= group_cap:
                width += ks[hi]
                hi += 1
            # z[-n_moves:] = za + cumsum(v*gap + sqrt(2*D_A*gap)*g) over the
            # positive gaps; a record at t = 0 sees za itself in row 0
            z = np.empty((n_times, width))
            jumps = z[n_times - n_moves:]
            if hi - lo == 1:
                # one realization: its rows of z are C-contiguous, so the
                # draw fills them in place in the order of a fresh array
                rngs[lo].standard_normal(out=jumps)
            else:
                col = 0
                for rng, kr in zip(rngs[lo:hi], ks[lo:hi]):
                    jumps[:, col:col + kr] = rng.standard_normal((n_moves, kr))
                    col += kr
            start = za[edge:edge + width]
            jumps *= sigma
            jumps += drift
            jumps.cumsum(axis=0, out=jumps)
            jumps += start
            if n_moves < n_times:
                z[0] = start
            inside = (z >= cfg.z_a_rx) & (z <= cfg.z_b_rx)
            if hi - lo == 1:
                # one realization: no int64 cumsum array beside z
                counts[first + lo] = np.count_nonzero(inside, axis=1)
            else:
                # hits summed over each realization's molecules: a cumsum
                # across the group read at the realization edges
                hits = np.zeros((n_times, width + 1), dtype=np.int64)
                hits[:, 1:] = inside
                hits.cumsum(axis=1, out=hits)
                ends = np.cumsum(ks[lo:hi])
                counts[first + lo:first + hi] = (hits[:, ends] - hits[:, ends - ks[lo:hi]]).T
            lo, edge = hi, edge + width
    return counts, switched
