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
summed variance. ``run_ensemble`` works on blocks of realizations sized
from the expected switched count: each realization draws from its own
generator, the stream of ``SeedSequence(seed, spawn_key=(r,))``, and the
arithmetic between draws runs once per block. The child seeds are hashed in
bulk, a few thousand spawn keys at a time, by a vectorised copy of numpy's
``SeedSequence`` hash, so each stream is still realization r's child.

``init_population``, ``apply_modulation``, ``step`` and
``count_state_a_in_rx`` on a ``Population`` are the replay oracle: they take
the same draws one realization and one record gap at a time, so the tests
replay any realization of ``run_ensemble`` with them.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .config import SystemConfig
from .stats import link_switch_probability

# float64 values a block holds per array (positions: in expectation)
_BLOCK_BUDGET = 1 << 15
# spawn keys hashed at once; a power of two, so no chunk straddles 2**32
_HASH_CHUNK = 1 << 12

# numpy's SeedSequence hash (M. O'Neill's seed_seq), pool of 4 uint32 words
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_M32 = 0xFFFFFFFF


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
    a time is a column of ``counts_rx``. Realization r runs on its own
    generator, the stream of
    ``Generator(PCG64(SeedSequence(cfg.seed, spawn_key=(r,))))``, the r-th
    child of ``SeedSequence(cfg.seed).spawn``. The child seeds are hashed in
    bulk, ``_HASH_CHUNK`` spawn keys at a time, by a vectorised copy of
    numpy's ``SeedSequence`` hash, and each stream is still realization r's
    child, so results do not depend on execution order, seeds take constant
    memory and any single realization can be reproduced in isolation. The
    switch probability is ``stats.link_switch_probability``, the value the
    analytic chain uses.

    A realization holds ``2 * n_sys`` uniforms and, in expectation, one
    position per record time for each of ``n_sys * p_tx * s * p_switch``
    switched molecules; realizations run in blocks of ``_BLOCK_BUDGET``
    divided by the larger of these two sizes (at least one). Each draws
    ``random(2 * n_sys)``, placement uniforms then modulation uniforms (the
    stream ``init_population`` then ``apply_modulation`` draw), and the block
    places, switches and gathers its switched molecules at once. Then each
    realization draws the coalesced jumps of every positive record gap for
    its switched molecules, and the block cumsums them and counts window hits
    at once. Running ``init_population``, ``apply_modulation``, ``step`` on
    the switched molecules once per positive gap and ``count_state_a_in_rx``
    at each record time on the realization's generator replays it: the draws
    are the same, and positions differ only in summation order.
    """
    if s not in (0, 1):
        raise ValueError("s must be 0 or 1")
    n_real = cfg.n_realizations
    if n_real < 1:
        raise ValueError("n_realizations must be >= 1")
    times = np.asarray(record_times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("record_times must be a non-empty 1-d sequence")
    if not np.all(np.isfinite(times) & (times >= 0)):
        raise ValueError("record_times must be finite and non-negative")
    if np.any(np.diff(times) <= 0):
        raise ValueError("record_times must be strictly increasing")
    p_switch = link_switch_probability(cfg)
    if not 0.0 <= p_switch <= 1.0:
        raise ValueError("p_switch must be in [0, 1]")

    counts, switched = _simulate(cfg, s * p_switch, times)

    mean = counts.mean(axis=0)
    if n_real > 1:
        stderr = counts.std(axis=0, ddof=1) / math.sqrt(n_real)
    else:
        stderr = np.zeros(times.shape[0])
    return EnsembleStats(mean_rx=mean, stderr_rx=stderr, counts_rx=counts, n_switched=switched)


def _simulate(
    cfg: SystemConfig, threshold: float, times: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Window counts (R, T) and switched counts (R,) of ``run_ensemble``; a
    molecule in the illuminated interval switches when its modulation
    uniform is below threshold."""
    n_real, n_times, n_sys = cfg.n_realizations, times.shape[0], cfg.n_sys
    counts = np.empty((n_real, n_times), dtype=np.int64)
    switched = np.empty(n_real, dtype=np.int64)

    # only a record at t = 0 can have a zero gap; it sees the initial positions
    gaps = np.diff(times, prepend=0.0)
    moving = gaps[gaps > 0]
    drift = (cfg.flow_v * moving)[:, None]
    sigma = np.sqrt(2.0 * cfg.diff_a * moving)[:, None]
    n_moves = moving.shape[0]
    # a realization holds 2 * n_sys uniforms and, in expectation, n_times
    # positions per switched molecule
    per_real = max(2 * n_sys, n_times * n_sys * cfg.p_tx * threshold)
    block = max(1, int(_BLOCK_BUDGET // per_real))
    u = np.empty((min(block, n_real), 2 * n_sys))

    seeds = _child_seeds(cfg.seed, n_real)
    for first in range(0, n_real, block):
        rngs = [np.random.Generator(np.random.PCG64(ss)) for ss in itertools.islice(seeds, block)]
        ub = u[:len(rngs)]
        for row, rng in zip(ub, rngs):
            rng.random(out=row)
        z0 = ub[:, :n_sys]
        z0 *= cfg.sys_length
        lit = (z0 >= cfg.z_a_tx) & (z0 <= cfg.z_b_tx) & (ub[:, n_sys:] < threshold)
        k = np.count_nonzero(lit, axis=1)
        switched[first:first + len(rngs)] = k
        za = z0[lit]  # realization-major

        # z[-n_moves:] = za + cumsum(v*gap + sqrt(2*D_A*gap)*g) over the
        # positive gaps; a record at t = 0 sees za itself in row 0
        z = np.empty((n_times, za.shape[0]))
        jumps = z[n_times - n_moves:]
        col = 0
        for rng, kr in zip(rngs, k.tolist()):
            jumps[:, col:col + kr] = rng.standard_normal((n_moves, kr))
            col += kr
        jumps *= sigma
        jumps += drift
        jumps.cumsum(axis=0, out=jumps)
        jumps += za
        if n_moves < n_times:
            z[0] = za
        # hits summed over each realization's molecules: a cumsum across the
        # block read at the realization edges
        hits = np.zeros((n_times, za.shape[0] + 1), dtype=np.int64)
        hits[:, 1:] = (z >= cfg.z_a_rx) & (z <= cfg.z_b_rx)
        hits.cumsum(axis=1, out=hits)
        ends = np.cumsum(k)
        counts[first:first + len(rngs)] = (hits[:, ends] - hits[:, ends - k]).T
    return counts, switched


class _Words(np.random.bit_generator.ISeedSequence):
    """A seed sequence that hands its bit generator precomputed state words."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words  # PCG64 asks for 4 np.uint64 words, the rows' shape


def _child_seeds(seed: int, n_real: int):
    """Realization r's seed sequence for r = 0 .. n_real - 1, hashed
    ``_HASH_CHUNK`` spawn keys at a time."""
    for first in range(0, n_real, _HASH_CHUNK):
        for words in _child_states(seed, first, min(first + _HASH_CHUNK, n_real)):
            yield _Words(words)


def _child_states(seed: int, first: int, last: int) -> np.ndarray:
    """``SeedSequence(seed, spawn_key=(r,)).generate_state(4, np.uint64)`` for
    r in range(first, last), one row each: numpy's hash, run once over all the
    keys with uint32 array arithmetic."""
    if first < 1 << 32 < last:  # keys from 2**32 on enter the hash as two words
        return np.concatenate(
            [_child_states(seed, first, 1 << 32), _child_states(seed, 1 << 32, last)]
        )
    keys = np.arange(first, last, dtype=np.uint64)
    # entropy: the seed's words, zero-padded to the pool size, then the key's
    entropy = [np.full(1, seed >> shift & _M32, dtype=np.uint32)
               for shift in range(0, max(128, seed.bit_length()), 32)]
    entropy.append(keys.astype(np.uint32))
    if first >= 1 << 32:
        entropy.append((keys >> 32).astype(np.uint32))

    consts = _hash_constants(_INIT_A, _MULT_A)
    pool = [_hashmix(word, consts) for word in entropy[:4]]
    for src, dst in itertools.permutations(range(4), 2):
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], _hashmix(word, consts))

    # generate_state(4, np.uint64): eight words cycling over the pool, paired
    # low word first
    consts = _hash_constants(_INIT_B, _MULT_B)
    state = [_hashmix(pool[i % 4], consts).astype(np.uint64) for i in range(8)]
    return np.stack([state[i] | state[i + 1] << 32 for i in range(0, 8, 2)], axis=1)


def _hash_constants(init: int, mult: int):
    """Successive (xor, multiply) constants of the hash: init, init * mult,
    init * mult**2, ... mod 2**32, taken in overlapping pairs."""
    powers = itertools.accumulate(itertools.repeat(mult), lambda h, m: h * m & _M32, initial=init)
    return itertools.pairwise(powers)


def _hashmix(value: np.ndarray, consts) -> np.ndarray:
    xor, mult = next(consts)
    value = (value ^ xor) * mult
    return value ^ (value >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * _MIX_MULT_L - y * _MIX_MULT_R
    return result ^ (result >> 16)
