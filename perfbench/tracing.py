"""Per-layer spans recorded from outside the package.

Tracing rebinds each traced public function, in every ``mediamod`` module
namespace that binds it, to a timing wrapper, and restores the original
objects afterwards. Nothing inside ``src/`` changes. Spans are aggregated in
memory per (name, parent): calls, total time, and time covered by child
spans, so self time is total minus children.

A few boundaries also record exact counts of the work done, so that later
changes can cite a count instead of a speed (see LAYERS.md).
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager

import numpy as np

# (module, attribute) of every traced function; the span name is
# "<module>.<attribute>". cli.main is the root of every op.
TARGETS = (
    ("config", "build_config"),
    ("photochem", "switch_probability"),
    ("photochem", "SwitchingModel.from_config"),
    ("channel", "hit_probability"),
    ("stats", "sample_received_count"),
    ("stats", "received_count_pmf"),
    ("detect", "ber_empirical"),
    ("detect", "ber_analytic"),
    ("pbs", "run_ensemble"),
    ("pbs", "init_population"),
    ("pbs", "apply_modulation"),
    ("pbs", "empirical_pmf"),
    ("pbs", "step"),
    ("pbs", "count_state_a_in_rx"),
    ("cli", "main"),
)

# numpy's PCG64 advances a 128-bit LCG by one step per 64-bit word drawn
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def pcg64_words(before: dict, after: dict) -> int:
    """64-bit words a PCG64 generator drew between two of its states.

    Jump-ahead distance of the underlying LCG, found one bit at a time
    (Brown, "Random number generation with arbitrary strides", 1994).
    """
    if before["bit_generator"] != "PCG64" or after["bit_generator"] != "PCG64":
        raise TypeError("draw counting supports PCG64 generators only")
    cur = before["state"]["state"]
    new = after["state"]["state"]
    mult, plus = _PCG64_MULT, before["state"]["inc"]
    bit, distance = 1, 0
    while cur != new:
        if (cur ^ new) & bit:
            cur = (cur * mult + plus) & _MASK128
            distance |= bit
        bit <<= 1
        plus = ((mult + 1) * plus) & _MASK128
        mult = (mult * mult) & _MASK128
    return distance


def _step_counts(counts: dict, args, kwargs):
    pop = args[0]
    counts["pbs.step.molecules"] += len(pop)
    # states are 0 (B) or 1 (A); only state-A positions reach any output
    counts["pbs.step.state_a"] += int(np.count_nonzero(pop.state))
    return None


def _rng_before(counts: dict, args, kwargs):
    rng = kwargs["rng"] if "rng" in kwargs else args[1]
    return rng, rng.bit_generator.state


def _rng_after(counts: dict, token) -> None:
    rng, before = token
    counts["stats.sample_received_count.draws"] += pcg64_words(before, rng.bit_generator.state)


def _pmf_points(counts: dict, args, kwargs):
    k = kwargs["k"] if "k" in kwargs else args[1]
    counts["stats.received_count_pmf.points"] += int(np.size(k))
    return None


# name -> (before hook, after hook); hooks run outside the span's timer
_COUNTERS = {
    "pbs.step": (_step_counts, None),
    "stats.sample_received_count": (_rng_before, _rng_after),
    "stats.received_count_pmf": (_pmf_points, None),
}


def is_timing(name: str) -> bool:
    """Layer metrics that are times or shares of time; the others are exact
    counts, which repeat for a given op seed."""
    return name.endswith((".s", ".self_s")) or name.startswith("trace.")


class Tracer:
    """Span aggregates and counts for one traced op."""

    def __init__(self) -> None:
        self.spans: dict[tuple[str, str | None], list] = {}  # -> [calls, total_s, child_s]
        self.counts: dict[str, int] = {
            "pbs.step.molecules": 0,
            "pbs.step.state_a": 0,
            "stats.sample_received_count.draws": 0,
            "stats.received_count_pmf.points": 0,
        }
        self._stack: list[list] = []   # open spans: [name, child_s]

    def wrap(self, name: str, fn):
        stack, spans, counts, clock = self._stack, self.spans, self.counts, time.perf_counter
        before, after = _COUNTERS.get(name, (None, None))

        def traced(*args, **kwargs):
            token = before(counts, args, kwargs) if before else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                parent = stack[-1][0] if stack else None
                if stack:
                    stack[-1][1] += dt
                rec = spans.get((name, parent))
                if rec is None:
                    rec = spans[(name, parent)] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += frame[1]
                if after:
                    after(counts, token)

        return traced

    @contextmanager
    def installed(self):
        """Rebind every target for the duration of the block."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "mediamod" or n.startswith("mediamod."))]
        undo: list[tuple[object, str, object]] = []
        try:
            for module, attr in TARGETS:
                name = f"{module}.{attr}"
                owner = sys.modules[f"mediamod.{module}"]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    original = cls.__dict__[meth]
                    setattr(cls, meth, classmethod(self.wrap(name, original.__func__)))
                    undo.append((cls, meth, original))
                    continue
                original = getattr(owner, attr)
                wrapper = self.wrap(name, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                            undo.append((mod, key, original))
            yield self
        finally:
            for obj, key, original in reversed(undo):
                setattr(obj, key, original)

    def metrics(self, wall: float) -> dict[str, float]:
        """Per-op layer metrics: calls, total and self time per traced name,
        the recorded counts, and the share of the op wall that self times
        cover."""
        out: dict[str, float] = {}
        for module, attr in TARGETS:
            name = f"{module}.{attr}"
            out[f"{name}.calls"] = 0
            out[f"{name}.s"] = 0.0
            out[f"{name}.self_s"] = 0.0
        self_total = 0.0
        for (name, _parent), (calls, total, child) in self.spans.items():
            out[f"{name}.calls"] += calls
            out[f"{name}.s"] += total
            out[f"{name}.self_s"] += total - child
            self_total += total - child
        out.update(self.counts)
        molecules = self.counts["pbs.step.molecules"]
        out["pbs.step.useful_frac"] = self.counts["pbs.step.state_a"] / molecules if molecules else 0.0
        out["trace.self_sum_frac"] = self_total / wall
        return out
