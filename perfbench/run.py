"""Benchmark of the neelwall pipeline: four workloads, one command.

    python3 perfbench/run.py --workload {sweep,gap,mobility,orbital} \
        --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; it imports ``neelwall`` from ``src``
and needs no install.  Each workload runs in fresh worker processes (see
worker.py) with one BLAS thread.

--trace 0  Two set-up-only workers and one measuring worker.  Prints the
           end-to-end metrics: setup_s (median of the three set-ups),
           total_s (setup_s plus the median round), peak_rss_mb and
           work_per_s (median over rounds).  Times are the workers' CPU
           time; worker.py says why.
--trace 1  One plain and one traced measuring worker.  Prints the
           per-layer metrics of one pass (set-up plus one round) from the
           traced worker, and the tracing overhead from the pair.  The
           spans go to perfbench/out/.

The last line of the output is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 0 only when every worker
ran to its end.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 3           # set-ups per measured run, setup_s is their median
BLAS_THREADS = "1"
DEADLINE_S = 170         # the whole command ends within this, or fails
START = time.monotonic()


def spec(key: str) -> dict:
    """Workloads or metrics as BENCHMARK.json lists them: name -> entry."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {item["name"]: item for item in json.load(fh)[key]}


class BenchError(RuntimeError):
    pass


def spawn(args, phase, trace, trace_out=None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--phase", phase,
           "--trace", str(trace)]
    if trace_out:
        cmd += ["--trace-out", str(trace_out)]
    timeout = max(1.0, DEADLINE_S - (time.monotonic() - START))
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{phase} worker still running after "
                         f"{DEADLINE_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{phase} worker exited with {proc.returncode}:\n"
                         f"{proc.stderr[-4000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{phase} worker printed nothing:\n{proc.stderr}")
    return json.loads(lines[-1])


def report(full: dict):
    print(f"machine: {json.dumps(full['machine'])}")
    print(f"workload {full['workload']} seed {full['seed']} inputs "
          f"{json.dumps(full['inputs'])}: {len(full['round_s'])} rounds, "
          f"median {full['round_median_s']:.3f} s CPU, "
          f"{full['round_median_wall_s']:.3f} s wall")
    for c in full["checks"]:
        mark = {True: "ok", False: "FAIL", None: "info"}[c["ok"]]
        print(f"  [{mark}] {c['name']}: {c['detail']}")


def measure(args) -> dict:
    setups = [spawn(args, "setup", 0)["setup_s"]
              for _ in range(SETUP_RUNS - 1)]
    full = spawn(args, "full", 0)
    setups.append(full["setup_s"])
    report(full)
    setup_s = statistics.median(setups)
    metrics = {"setup_s": setup_s,
               "total_s": setup_s + full["round_median_s"],
               "peak_rss_mb": full["peak_rss_mb"],
               "work_per_s": full["work_per_s"]}
    return {"correct": full["correct"], "attempted": full["attempted"],
            "failed": full["failed"],
            "metrics": {k: {"value": metrics[k], "unit": m["unit"]}
                        for k, m in spec("end_to_end").items()}}


def trace(args) -> dict:
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    spans = out_dir / f"spans-{args.workload}-seed{args.seed}.csv"
    plain = spawn(args, "full", 0)
    traced = spawn(args, "full", 1, trace_out=spans)
    report(traced)
    plain_total = plain["setup_s"] + plain["round_median_s"]
    traced_total = traced["setup_s"] + traced["round_median_s"]
    layers = dict(traced["layers"])
    layers["trace.total_s"] = traced_total
    layers["trace.overhead_pct"] = 100.0 * (traced_total / plain_total - 1.0)
    metrics = {k: {"value": float(layers.get(k, 0.0)), "unit": m["unit"]}
               for k, m in spec("per_layer").items()}
    with open(out_dir / f"layers-{args.workload}-seed{args.seed}.json", "w",
              encoding="ascii") as fh:
        json.dump({"plain_total_s": plain_total, "metrics": metrics}, fh,
                  indent=1)
    print(f"spans written to {spans.relative_to(ROOT)}")
    return {"correct": plain["correct"] and traced["correct"],
            "attempted": plain["attempted"] + traced["attempted"],
            "failed": plain["failed"] + traced["failed"],
            "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(spec("workloads")),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "neelwall" / "__init__.py").is_file():
        print(f"no neelwall sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = trace(args) if args.trace else measure(args)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
