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
(state-A) molecules, so only those are propagated. The Gaussian increments
between two record times are drawn as one coalesced jump with the summed
variance, all record gaps of a realization in one batched draw. ``step`` and
``count_state_a_in_rx`` take the same draws one gap at a time on a
``Population``, so any single realization can be replayed with them.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .config import SystemConfig
from .stats import link_switch_probability


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
    z = rng.random(cfg.n_sys) * cfg.duct.sys_length
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
        (pop.z >= cfg.tx.z_a) & (pop.z <= cfg.tx.z_b) & (u < s * p_switch)
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
        math.sqrt(2.0 * cfg.molecule.diff_a * dt),
        math.sqrt(2.0 * cfg.molecule.diff_b * dt),
    )
    pop.z += cfg.flow_v * dt + sigma * g


def count_state_a_in_rx(pop: Population, cfg: SystemConfig) -> int:
    """Number of switched molecules inside the counting window."""
    hit = (
        (pop.state == MoleculeState.STATE_A)
        & (pop.z >= cfg.rx.z_a)
        & (pop.z <= cfg.rx.z_b)
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
    ``counts_rx``. Every realization gets its own child generator spawned
    from the master seed, so results do not depend on execution order and
    any single realization can be reproduced in isolation. The switch
    probability is ``stats.link_switch_probability``, the value the analytic
    chain uses.

    Only the switched molecules are propagated after modulation: each
    realization draws the coalesced jumps of every record gap in one batch.
    Calling ``step`` on the switched molecules once per positive gap, with
    the realization's generator, and ``count_state_a_in_rx`` at each record
    time replays that realization: the draws are the same, and positions
    differ only in summation order.
    """
    p_switch = link_switch_probability(cfg, irradiance)

    times = np.asarray(ensemble.record_times, dtype=float)
    n_times = times.shape[0]
    seed = cfg.seed if ensemble.seed is None else ensemble.seed
    children = np.random.SeedSequence(seed).spawn(ensemble.realizations)

    counts = np.empty((ensemble.realizations, n_times), dtype=np.int64)
    switched = np.empty(ensemble.realizations, dtype=np.int64)

    # only a record at t = 0 can have a zero gap; it sees the initial positions
    gaps = np.diff(times, prepend=0.0)
    moving = gaps[gaps > 0]
    n_moves = moving.shape[0]
    drift = (cfg.flow_v * moving)[:, None]
    sigma = np.sqrt(2.0 * cfg.molecule.diff_a * moving)[:, None]
    state_a = MoleculeState.STATE_A
    rx_a, rx_b = cfg.rx.z_a, cfg.rx.z_b

    for r, child in enumerate(children):
        rng = np.random.default_rng(child)
        pop = init_population(cfg, rng)
        switched[r] = apply_modulation(pop, cfg, s, p_switch, rng)
        za = pop.z[pop.state == state_a]
        # (n_moves, k) positions: za + cumsum(v*gap + sqrt(2*D_A*gap)*g), in place
        z = rng.standard_normal((n_moves, za.shape[0]))
        z *= sigma
        z += drift
        z.cumsum(axis=0, out=z)
        z += za
        if n_moves < n_times:
            z = np.vstack((za, z))
        counts[r] = ((z >= rx_a) & (z <= rx_b)).sum(axis=1)

    mean = counts.mean(axis=0)
    if ensemble.realizations > 1:
        stderr = counts.std(axis=0, ddof=1) / math.sqrt(ensemble.realizations)
    else:
        stderr = np.zeros(n_times)
    return EnsembleStats(
        times=times, mean_rx=mean, stderr_rx=stderr,
        counts_rx=counts, n_switched=switched,
    )
