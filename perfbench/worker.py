"""One benchmark process: run a workload's ops against mediamod.cli.main.

run.py starts this file in a fresh single-threaded process, so the process's
peak resident memory belongs to one workload. Modes:

  worker.py --setup-only
      import the package and load a config, report the monotonic clock
      reading at that moment, and exit (run.py measures set-up from spawn)
  worker.py --workload W --seed N --seconds S --trace 0|1
      run one untimed warm-up op, then ops back to back for S seconds, then
      repeat the first timed op; print one JSON result line

Every op is checked by the workload's gate outside the timed region. With
--trace 1, ops alternate untraced and traced, so the tracing overhead is
measured in the same process.
"""

import time
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import mediamod.cli  # noqa: E402  numpy, scipy.special and every module

mediamod.cli.build_config({})
CONFIG_LOADED = time.monotonic()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from contextlib import nullcontext, redirect_stdout  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402

from tracing import Tracer, is_timing  # noqa: E402
from workloads import WORKLOADS, Table  # noqa: E402


def op_seed(workload: str, seed: int, index: int) -> int:
    """Seed of op `index`, derived from the workload seed only."""
    digest = hashlib.sha256(f"{workload}/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def run_calls(argvs: list[list[str]], tracer: Tracer | None) -> tuple[float, list[str], list[int]]:
    """Call mediamod.cli.main once per argv, as a user of the CLI would, and
    return the wall time, the CSV each call wrote, and the exit codes."""
    texts, codes = [], []
    gc.collect()
    with tracer.installed() if tracer else nullcontext():
        t0 = time.perf_counter()
        for argv in argvs:
            buf = io.StringIO()
            with redirect_stdout(buf):
                codes.append(mediamod.cli.main(argv))
            texts.append(buf.getvalue())
        wall = time.perf_counter() - t0
    return wall, texts, codes


def same_output(first: list[str], again: list[str]) -> list[str]:
    return [] if first == again else ["rerun with the same argv wrote different bytes"]


class Runner:
    def __init__(self, name: str, seed: int):
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.ops: list[dict] = []
        self.spans: dict[tuple, list] = {}

    def attempt(self, index: int, traced: bool) -> tuple[dict, list[str], list[Table]]:
        """Run and gate op `index`; the record says whether it failed."""
        seed = op_seed(self.name, self.seed, index)
        tracer = Tracer() if traced else None
        rec = {"index": index, "seed": seed, "traced": traced, "problems": []}
        texts: list[str] = []
        tables: list[Table] = []
        try:
            wall, texts, codes = run_calls(self.workload.calls(seed), tracer)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            rec["problems"].append(f"raised {exc!r}")
            self.ops.append(rec)
            return rec, texts, tables
        rec["wall"] = wall
        if any(codes):
            rec["problems"].append(f"exit codes {codes}")
        try:
            tables = [Table.parse(t) for t in texts]
            rec["problems"] += self.workload.check(tables, seed)
            rec["units"] = self.workload.units(tables)
            rec["rows"] = sum(len(t.rows) for t in tables)
        except (ValueError, KeyError, IndexError) as exc:
            rec["problems"].append(f"unreadable output: {exc!r}")
        rec["csv_bytes"] = sum(len(t.encode()) for t in texts)
        if tracer:
            layers = tracer.metrics(wall)
            layers["cli.rows"] = rec.get("rows", 0)
            layers["cli.csv_bytes"] = rec["csv_bytes"]
            rec["layers"] = layers
            for key, (calls, total, child) in tracer.spans.items():
                agg = self.spans.setdefault(key, [0, 0.0, 0.0])
                agg[0] += calls
                agg[1] += total
                agg[2] += child
        self.ops.append(rec)
        return rec, texts, tables

    def selftest(self, warm: dict, texts: list[str], tables: list[Table]) -> dict[str, bool]:
        """The gate must reject a good output with one value moved by ten
        tolerances, and the rerun check must reject one changed byte."""
        if warm["problems"] or not tables:
            return {"gate_rejects_shifted_value": False, "rerun_rejects_changed_byte": False}
        broken = [Table.parse(t) for t in self.workload.corrupt(tables)]
        last = texts[-1]
        i = max(j for j, ch in enumerate(last) if ch.isdigit())
        flipped = texts[:-1] + [last[:i] + str((int(last[i]) + 1) % 10) + last[i + 1:]]
        return {
            "gate_rejects_shifted_value": bool(self.workload.check(broken, warm["seed"])),
            "rerun_rejects_changed_byte": bool(same_output(texts, flipped)),
        }


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    runner = Runner(name, seed)
    selftest = runner.selftest(*runner.attempt(0, traced=False))

    first_texts: list[str] = []
    index = 1
    start = time.perf_counter()
    while True:
        _, texts, _ = runner.attempt(index, traced=trace and index % 2 == 1)
        if index == 1:
            first_texts = texts
        index += 1
        if time.perf_counter() - start >= seconds and (not trace or index > 2):
            break

    again, again_texts, _ = runner.attempt(1, traced=trace)
    again["repeat"] = True
    again["problems"] += same_output(first_texts, again_texts)
    if trace and "layers" in again and "layers" in runner.ops[1]:
        if counts_of(again["layers"]) != counts_of(runner.ops[1]["layers"]):
            again["problems"].append("rerun recorded different layer counts")

    timed = [o for o in runner.ops[1:] if "wall" in o and not o.get("repeat")]
    return {
        "config_loaded": CONFIG_LOADED,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
        "ops": runner.ops,
        "selftest": selftest,
        "end_to_end": end_to_end([o for o in timed if not o["traced"]]),
        "layers": layer_metrics(timed) if trace else {},
        "spans": [[name, parent, *agg] for (name, parent), agg in sorted(
            runner.spans.items(), key=lambda kv: -kv[1][1])],
    }


def counts_of(layers: dict) -> dict:
    return {k: v for k, v in layers.items() if not is_timing(k)}


def end_to_end(untraced: list[dict]) -> dict:
    walls = sorted(o["wall"] for o in untraced)
    n = len(walls)
    out = {
        "op_p50_s": statistics.median(walls),
        "units_per_s": sum(o.get("units", 0) for o in untraced) / sum(walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": n,
    }
    if n > 10:
        # highest percentile with ten ops beyond it
        out["op_tail_s"] = walls[n - 11]
        out["op_tail_percentile"] = 100.0 * (n - 10) / n
    return out


def layer_metrics(timed: list[dict]) -> dict:
    """Times are medians over the traced ops; counts come from the first
    traced op, so they depend on the workload seed only."""
    traced = [o for o in timed if o["traced"] and "layers" in o]
    out = {}
    for key, value in traced[0]["layers"].items():
        out[key] = statistics.median(o["layers"][key] for o in traced) if is_timing(key) else value
    plain = statistics.median(o["wall"] for o in timed if not o["traced"])
    out["trace.overhead_frac"] = statistics.median(o["wall"] for o in traced) / plain - 1.0
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    args = parser.parse_args()

    src = (ROOT / "src").resolve()
    if src not in Path(mediamod.__file__).resolve().parents:
        print(f"error: mediamod imported from {mediamod.__file__}, not {src}", file=sys.stderr)
        return 2
    if args.setup_only:
        result = {"config_loaded": CONFIG_LOADED}
    else:
        if args.workload is None or args.seed is None or args.seconds is None or args.trace is None:
            parser.error("--workload, --seed, --seconds and --trace are required")
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
