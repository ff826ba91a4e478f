"""mediamod benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
./src. Workloads, metrics and their bounds are declared in BENCHMARK.json
next to this directory; LAYERS.md says what each workload stresses and which
end-to-end metric each layer metric should move.

One run:
  1. starts one unmeasured and then five measured set-up processes; set-up
     time is spawn to a loaded config (import mediamod, first build_config),
     reported as the median;
  2. starts the workload's own process (worker.py), single-threaded, which
     runs a warm-up op, then ops back to back for S seconds, then repeats the
     first timed op and requires identical bytes; every op's output is
     gated outside the timed region;
  3. prints a summary, writes a record with the environment, every op and
     every span to .perfbench_out/, and prints as its last line one JSON
     object: correct, attempted, failed and metrics. With --trace 0 the
     metrics are the end-to-end ones, with --trace 1 the per-layer ones.

Exits non-zero without a result when the benchmark cannot run, e.g. when the
checkout has no package source.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 5
# single-threaded BLAS/OpenMP and a fixed hash seed in every process
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
             "PYTHONHASHSEED": "0"}
SETUP_TIMEOUT_S = 20.0
RUN_OVERHEAD_S = 120.0   # warm-up, repeat and gates on top of --seconds


class BenchError(RuntimeError):
    pass


def spawn(args: list[str], timeout: float) -> tuple[float, dict]:
    """Start worker.py with args, wait for it, and return the monotonic
    clock reading at spawn with the worker's JSON result. A worker that
    overruns is killed and waited for by subprocess.run."""
    env = dict(os.environ, **CHILD_ENV)
    spawned = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args], cwd=ROOT,
                              env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args} did not finish within {timeout} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return spawned, json.loads(proc.stdout.splitlines()[-1])


def setup_seconds() -> list[float]:
    spawn(["--setup-only"], SETUP_TIMEOUT_S)   # fills the bytecode cache
    samples = []
    for _ in range(SETUP_SAMPLES):
        spawned, result = spawn(["--setup-only"], SETUP_TIMEOUT_S)
        samples.append(result["config_loaded"] - spawned)
    return samples


def environment() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            model = next((line.split(":", 1)[1].strip() for line in f
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": model,
            "python": platform.python_version(), "loadavg_start": os.getloadavg()}


def main() -> int:
    parser = argparse.ArgumentParser(description="mediamod benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        parser.error(f"unknown workload {args.workload!r}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    env = environment()
    try:
        setup = setup_seconds()
        _, result = spawn(["--workload", args.workload, "--seed", str(args.seed),
                           "--seconds", repr(args.seconds), "--trace", str(args.trace)],
                          args.seconds + RUN_OVERHEAD_S)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    env["loadavg_end"] = os.getloadavg()
    env.update(result["versions"])

    values = dict(result["end_to_end"], setup_s=statistics.median(setup))
    values.update(result["layers"])
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    ops = result["ops"]
    failed = sum(1 for o in ops if o["problems"])
    correct = failed == 0 and all(result["selftest"].values())

    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "setup_s_samples": setup,
              "end_to_end": result["end_to_end"], "layers": result["layers"],
              "selftest": result["selftest"], "ops": ops,
              "spans": [dict(zip(("name", "parent", "calls", "total_s", "child_s"), s))
                        for s in result["spans"]]}
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))

    e2e = result["end_to_end"]
    tail = (f"op_tail_s {e2e['op_tail_s']:.6g} s at p{e2e['op_tail_percentile']:.1f}"
            if "op_tail_s" in e2e else "op_tail_s not reported (10 or fewer ops)")
    print(f"# {args.workload} seed {args.seed}: {e2e['ops']} timed untraced ops; "
          f"op_p50_s {e2e['op_p50_s']:.6g} s; {tail}; "
          f"failed_frac {failed / len(ops):.6g} ({failed}/{len(ops)}); "
          f"gate self-test {result['selftest']}")
    print(f"# environment {json.dumps(env)}")
    for o in ops:
        for problem in o["problems"][:3]:
            print(f"# op {o['index']} seed {o['seed']}: {problem}")
    print(f"# record {path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
