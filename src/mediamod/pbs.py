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
(state-A) molecules, so only those are simulated. A molecule switches when
it lies in the illuminated interval and, independently, its switching event
fires, so the switched molecules number Binomial(n_sys, q), q = p_tx *
p_switch the switched fraction of ``stats.switched_distribution``, and lie
uniformly in the interval. The Gaussian increments between two record times
are drawn as one coalesced jump with the summed variance. ``run_ensemble``
draws from three generators per run, spawned from ``cfg.seed``: the count,
place and move streams, each consumed in realization order, one draw per
stream per block of realizations; the draws do not depend on the block size.

``init_population``, ``apply_modulation``, ``step`` and
``count_state_a_in_rx`` on a ``Population`` are an independent per-molecule
reference: they place every molecule along the whole duct, draw its
switching event and move it, and the tests compare their counts with
``run_ensemble``'s in distribution.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .config import SystemConfig
from .stats import switched_distribution

# float64 values a block holds per array (positions: in expectation)
_BLOCK_BUDGET = 1 << 15


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
class EnsembleStats:
    """Per-record-time statistics over all realizations."""

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


def run_ensemble(cfg: SystemConfig, s: int, record_times) -> EnsembleStats:
    """Simulate ``cfg.n_realizations`` realizations of bit s from ``cfg.seed``
    and return count statistics at the record times.

    record_times is a non-empty sequence of finite, non-negative, strictly
    increasing times [s]; any such grid works, and the count distribution at
    a time is a column of ``counts_rx``. The switched fraction q = p_tx *
    p_switch (0 for bit 0) is ``stats.switched_distribution``'s, the value
    the analytic chain uses.

    The run draws from ``Generator(PCG64(c))`` for the three children c of
    ``SeedSequence(cfg.seed).spawn(3)``: the count, place and move streams.
    Realization r takes, after every draw of realizations 0 .. r-1,
    ``binomial(n_sys, q)`` = k from the count stream; ``random(k)`` uniforms
    u from the place stream, the switched molecules' starts z_a_tx + u *
    (z_b_tx - z_a_tx); and ``standard_normal((k, n_moves))`` from the move
    stream: each switched molecule's coalesced jump over every positive
    record gap, molecule by molecule. A realization cannot be drawn without
    the ones before it.

    Realizations run in blocks of ``_BLOCK_BUDGET`` divided by their expected
    positions, one per record time for each switched molecule (at least 32
    values, at least one realization). A block takes each stream's draws in
    one call, and these equal the realizations' draws in turn, so results do
    not depend on the block size, and beyond the returned arrays memory is
    constant in R. ``mean_rx`` and ``stderr_rx`` come from exact integer sums
    of the counts and of their squares.
    """
    n_real = cfg.n_realizations
    if n_real < 1:
        raise ValueError("n_realizations must be >= 1")
    if cfg.n_sys > np.iinfo(np.int64).max:
        raise ValueError("n_sys must be below 2**63 to simulate")
    times = np.asarray(record_times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("record_times must be a non-empty 1-d sequence")
    if not np.all(np.isfinite(times) & (times >= 0)):
        raise ValueError("record_times must be finite and non-negative")
    if np.any(np.diff(times) <= 0):
        raise ValueError("record_times must be strictly increasing")
    q = switched_distribution(cfg, s).success_p

    counts, switched = _simulate(cfg, q, times)

    # column sums in int64 make no (R, T) float copy; the mean equals
    # counts.mean, and the sample variance is exact up to one rounding
    sums = counts.sum(axis=0)
    mean = sums / n_real
    if n_real > 1:
        squares = np.einsum("ij,ij->j", counts, counts)
        stderr = np.array([
            math.sqrt((n_real * sq - sm * sm) / (n_real * (n_real - 1)) / n_real)
            for sm, sq in zip(sums.tolist(), squares.tolist())
        ])
    else:
        stderr = np.zeros(times.shape[0])
    return EnsembleStats(mean_rx=mean, stderr_rx=stderr, counts_rx=counts, n_switched=switched)


# a drift, spread or path that leaves the float range gives an inf or NaN
# position, which lies in no window: the count is 0, as hit_probability gives
@np.errstate(over="ignore", invalid="ignore")
def _simulate(
    cfg: SystemConfig, q: float, times: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Window counts (R, T) and switched counts (R,) of ``run_ensemble``; a
    molecule switches with probability q."""
    n_real, n_times, n_sys = cfg.n_realizations, times.shape[0], cfg.n_sys
    counts = np.empty((n_real, n_times), dtype=np.int64)
    switched = np.empty(n_real, dtype=np.int64)
    count_rng, place_rng, move_rng = (
        np.random.Generator(np.random.PCG64(c)) for c in np.random.SeedSequence(cfg.seed).spawn(3)
    )

    # only a record at t = 0 can have a zero gap; it sees the initial positions
    gaps = np.diff(times, prepend=0.0)
    moving = gaps[gaps > 0]
    drift = cfg.flow_v * moving
    sigma = np.sqrt(2.0 * cfg.diff_a * moving)
    n_moves = moving.shape[0]
    span = cfg.z_b_tx - cfg.z_a_tx
    # in expectation a realization holds n_times positions per switched molecule
    block = max(1, int(_BLOCK_BUDGET // max(32, n_times * n_sys * q)))

    for first in range(0, n_real, block):
        rows = slice(first, min(first + block, n_real))
        k = count_rng.binomial(n_sys, q, size=rows.stop - first)
        switched[rows] = k
        # each realization's end among the block's switched molecules
        ends = np.cumsum(k)
        za = place_rng.random(int(ends[-1]))  # realization-major
        za *= span
        za += cfg.z_a_tx

        # one row per switched molecule: za + cumsum(v*gap + sqrt(2*D_A*gap)*g)
        # over the positive gaps; a record at t = 0 sees za itself
        z = move_rng.standard_normal((za.shape[0], n_moves))
        z *= sigma
        z += drift
        z.cumsum(axis=1, out=z)
        z += za[:, None]
        hits = np.empty((za.shape[0], n_times), dtype=bool)
        hits[:, n_times - n_moves:] = (z >= cfg.z_a_rx) & (z <= cfg.z_b_rx)
        if n_moves < n_times:
            hits[:, 0] = (za >= cfg.z_a_rx) & (za <= cfg.z_b_rx)
        # hits summed over each realization's molecules: a cumsum over the
        # block's molecules read at the realization edges
        acc = np.zeros((za.shape[0] + 1, n_times), dtype=np.int64)
        np.cumsum(hits, axis=0, out=acc[1:])
        counts[rows] = acc[ends] - acc[ends - k]
    return counts, switched

