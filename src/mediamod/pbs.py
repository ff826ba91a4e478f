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
uniformly in the interval.

At time t a molecule lies at its start z0 plus the drift v*t plus a Brownian
displacement of variance 2*D_A*t. Let B = 39*sqrt(2*D_A*t_last), t_last the
last record time. Where the drifted position z0 + v*t lies B or more from
both window edges, drift alone decides the count: the displacement exceeds
B with probability below 2*Phi(-39) = 1.1e-332, under the smallest
subnormal double. Only at the other records, where the count is in doubt, is
a position drawn, from the exact joint law of drifted Brownian motion at
those times: the first with variance 2*D_A*t, each later one adding an
independent increment of variance 2*D_A*(t - t_prev), t_prev the molecule's
previous doubtful record. A record at t = 0 sees the start itself. At the
paper's parameters that is 1.4 normals per molecule on the 41-time grid
0..40 s, not one per record.

``run_ensemble`` draws from three generators per run, spawned from
``cfg.seed``: the count, place and move streams, each consumed in
realization order; the draws do not depend on the block size. The switched
counts are one call of ``stats.sample_received_count``, which returns the
count generator's own binomial draws.

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
from .stats import ReceptionDistribution, sample_received_count, switched_distribution

# values a block holds per array: count rows and switched molecules'
# doubtful positions (in expectation)
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
    ``binomial(n_sys, q)`` = k from the count stream and ``random(k)``
    uniforms u from the place stream, the switched molecules' starts z0 =
    z_a_tx + u * (z_b_tx - z_a_tx). From the move stream it takes, molecule
    by molecule and record by record, one ``standard_normal`` for each record
    where the molecule's count is in doubt: where z0 + flow_v * t lies within
    B = 39 * sqrt(2 * diff_a * t_last) of a window edge. That normal scales
    to the increment since the molecule's previous doubtful record (since
    t = 0 at its first), so the positions follow the exact joint law of
    drifted Brownian motion at those records. At the other records drift
    alone counts the molecule, which differs from the full path with
    probability below 1.1e-332. A realization cannot be drawn without the
    ones before it.

    Realizations run in blocks of ``_BLOCK_BUDGET`` values per array: a
    count row per realization, and its expected switched molecules times the
    records one can be in doubt at (at least 32 values, at least one
    realization). The run's R switched counts are one
    ``stats.sample_received_count`` call before the first block, which draws
    exactly these binomials; a block takes each other stream's draws in one
    call. These equal the realizations' draws in turn, so results do not
    depend on the block size, and beyond the returned arrays memory is
    constant in R. ``mean_rx`` and ``stderr_rx``
    come from exact integer sums of the counts and of their squares.
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
    counts, switched = _simulate(cfg, switched_distribution(cfg, s), times)

    # column sums in int64 make no (R, T) float copy; the mean equals
    # counts.mean, and the sample variance is exact up to one rounding. Where
    # a sum of squares could pass the int64 range, the sums are Python ints
    # and the mean their correctly rounded quotient
    exact = counts
    if n_real * int(counts.max()) ** 2 > np.iinfo(np.int64).max:
        exact = counts.astype(object)
    sums = exact.sum(axis=0)
    mean = (sums / n_real).astype(float)
    if n_real > 1:
        squares = np.einsum("ij,ij->j", exact, exact)
        stderr = np.array([
            math.sqrt((n_real * sq - sm * sm) / (n_real * (n_real - 1)) / n_real)
            for sm, sq in zip(sums.tolist(), squares.tolist())
        ])
    else:
        stderr = np.zeros(times.shape[0])
    return EnsembleStats(mean_rx=mean, stderr_rx=stderr, counts_rx=counts, n_switched=switched)


# a drift, spread or path that leaves the float range gives an inf or NaN
# position or band edge, which lies in no window: the count is 0, as
# hit_probability gives
@np.errstate(over="ignore", invalid="ignore")
def _simulate(
    cfg: SystemConfig, switched_dist: ReceptionDistribution, times: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Window counts (R, T) and switched counts (R,) of ``run_ensemble``; the
    switched counts follow switched_dist, Binomial(n_sys, q)."""
    n_real, n_times, n_sys = cfg.n_realizations, times.shape[0], cfg.n_sys
    q = switched_dist.success_p
    counts = np.empty((n_real, n_times), dtype=np.int64)
    count_rng, place_rng, move_rng = (
        np.random.Generator(np.random.PCG64(c)) for c in np.random.SeedSequence(cfg.seed).spawn(3)
    )
    # the count stream serves nothing else, so the whole run's switched
    # counts are one call, the draws the blocks would take in turn
    switched = sample_received_count(switched_dist, count_rng, n_real)

    span = cfg.z_b_tx - cfg.z_a_tx
    drift = cfg.flow_v * times
    band = 39.0 * math.sqrt(2.0 * (cfg.diff_a * times[-1]))
    # A start z lies below a band edge e at record j while z < e - drift[j]
    # (z <= for the downstream edges), which holds on a prefix of the grid as
    # the drift grows. For the starts the place stream can give, z_a_tx to
    # (1 - 2**-53) * span + z_a_tx, the prefix is `fixed` records long plus
    # the records of `inner` whose threshold z lies below.
    lowest, highest = cfg.z_a_tx, (1.0 - 2.0**-53) * span + cfg.z_a_tx
    prefixes, at_first = [], []
    for edge, below in ((cfg.z_a_rx - band, np.less), (cfg.z_a_rx + band, np.less),
                        (cfg.z_b_rx - band, np.less_equal), (cfg.z_b_rx + band, np.less_equal)):
        thresholds = edge - drift
        fixed = int(np.count_nonzero(below(highest, thresholds)))
        inner = thresholds[fixed:int(np.count_nonzero(below(lowest, thresholds)))]
        prefixes.append((fixed, inner[:, None], below))
        at_first.append(thresholds[0])
    # a molecule is in doubt at the records whose drift lies within 2 * band
    # of that of one of two records, so at `wide` records at most
    reach = np.searchsorted(drift, drift + 2.0 * band, "right") - np.arange(n_times)
    wide = min(n_times, 2 * int(reach.max()))
    # per realization a block holds a count row and, in expectation, its
    # switched molecules' doubtful positions
    block = max(1, int(_BLOCK_BUDGET // max(32, n_times + 1, n_sys * q * wide)))
    width = n_times + 1

    for first in range(0, n_real, block):
        rows = slice(first, min(first + block, n_real))
        n_rows = rows.stop - first
        k = switched[rows]
        za = place_rng.random(int(k.sum()))  # realization-major
        za *= span
        za += cfg.z_a_tx
        if n_times == 1:
            # one record, where the range bookkeeping below costs about as
            # much as the normals it saves: four comparisons place each start,
            # a molecule in doubt takes one normal, and one segment sum per
            # realization counts the molecules flagged inside the window (the
            # spare last slot is a segment start past the last molecule).
            # The draws and counts are those of the general path.
            t0, t1, t2, t3 = at_first
            counted = np.zeros(za.shape[0] + 1, dtype=bool)
            sure = np.less_equal(za, t2, out=counted[:-1])
            sure &= ~(za < t1)
            doubt = np.flatnonzero(~(za < t0) & (za <= t3) & ~sure)
            z = za[doubt] + drift[0]
            z += math.sqrt(2.0 * (cfg.diff_a * times[0])) * move_rng.standard_normal(doubt.shape[0])
            counted[doubt] = (z >= cfg.z_a_rx) & (z <= cfg.z_b_rx)
            hits = np.add.reduceat(counted, np.cumsum(k) - k, dtype=np.int64)
            hits[k == 0] = 0   # reduceat reads an empty segment as the flag at its start
            counts[rows, 0] = hits
            continue
        # each molecule's row in the block's flat (n_rows, n_times + 1) steps
        base = np.repeat(np.arange(0, n_rows * width, width), k)

        # i0 <= i1 and i2 <= i3: the drifted position lies below z_a_rx -
        # band before record i0, below z_a_rx + band before i1, at most
        # z_b_rx - band before i2 and at most z_b_rx + band before i3
        i0, i1, i2, i3 = (
            np.add.reduce(below(za, inner), axis=0, dtype=np.intp, initial=fixed)
            for fixed, inner, below in prefixes
        )
        # drift alone puts the molecule inside the window on [i1, end): a +1
        # and a -1 step in its row, so a running sum over the flat rows
        # counts these hits
        end = np.maximum(i1, i2)
        hits = np.bincount(base + i1, minlength=n_rows * width)
        hits -= np.bincount(base + end, minlength=n_rows * width)
        hits.cumsum(out=hits)

        # its count is in doubt on [i0, i1) and [end, i3): one row per such
        # molecule and one column per doubtful record, padded; positions at
        # these records take independent increments over the gaps between them
        doubt = np.flatnonzero((i0 < i1) | (end < i3))
        if doubt.shape[0]:
            za, base, i0, i1, end, i3 = (x[doubt][:, None] for x in (za, base, i0, i1, end, i3))
            n_first = i1 - i0
            n_doubt = n_first + (i3 - end)
            col = np.arange(int(n_doubt.max()))
            at = i0 + col
            at += (col >= n_first) * (end - i1)
            np.minimum(at, n_times - 1, out=at)
            kept = col < n_doubt
            gap = times[at]
            gap[:, 1:] -= gap[:, :-1]
            step = np.zeros(at.shape)
            step[kept] = move_rng.standard_normal(int(n_doubt.sum()))
            step *= np.sqrt(2.0 * (cfg.diff_a * gap))
            step.cumsum(axis=1, out=step)
            z = za + drift[at]
            z += step
            kept &= (z >= cfg.z_a_rx) & (z <= cfg.z_b_rx)
            hits += np.bincount((base + at)[kept], minlength=n_rows * width)
        counts[rows] = hits.reshape(n_rows, width)[:, :n_times]
    return counts, switched
