"""One workload in one fresh process; run.py starts it.

    python3 perfbench/worker.py --workload W --seed N --seconds S \
        --phase {setup,full} --trace {0,1} [--trace-out FILE]

It imports ``neelwall`` from the checkout's ``src`` and sets the workload
up.  With ``--phase setup`` it stops there.  With ``--phase full`` it runs
whole rounds until ``--seconds`` of wall time have passed, then runs the
workload's checks.  With ``--trace 1`` every round and the set-up run under
the span recorder.  The last line of its output is one JSON object.

Times are the process's CPU time (``time.process_time``).  The process has
one thread (one BLAS thread) and does no I/O while it is measured, so on an
idle machine its CPU time equals its wall time; unlike wall time it leaves
out the time a hypervisor takes the CPU away (steal), which on shared
virtual machines changes the wall time of the same work by up to 2x within
minutes.  Wall times are reported beside them for reference.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def machine_stamp() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"cores": os.cpu_count(),
            "cores_usable": len(os.sched_getaffinity(0)),
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "python": platform.python_version()}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--phase", choices=("setup", "full"), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args()

    import neelwall
    if not Path(neelwall.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"neelwall imported from {neelwall.__file__}, not from the "
              f"checkout", file=sys.stderr)
        return 2
    from tracer import Tracer
    from workloads import WORKLOADS

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()

    wl = WORKLOADS[args.workload]
    inputs = wl.inputs(args.seed)
    state = wl.setup(inputs)
    setup_s = time.process_time()      # CPU time since the process started
    if args.phase == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    if tracer is not None:
        tracer.phase = "round"
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < args.seconds:
        cpu, wall = time.process_time(), time.perf_counter()
        rnd = wl.round(state)
        rnd.seconds = time.process_time() - cpu
        rnd.wall_s = time.perf_counter() - wall
        rounds.append(rnd)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    layers = None
    if tracer is not None:
        tracer.uninstall()
        if args.trace_out:
            tracer.write(args.trace_out)
        layers = tracer.metrics(len(rounds))

    checks = wl.check(state, rounds)
    rates = [r.work / (r.busy_s if r.busy_s is not None else r.seconds)
             for r in rounds]
    print(json.dumps({
        "workload": wl.name,
        "seed": args.seed,
        "inputs": inputs,
        "setup_s": setup_s,
        "round_s": [r.seconds for r in rounds],
        "round_wall_s": [r.wall_s for r in rounds],
        "round_median_s": statistics.median(r.seconds for r in rounds),
        "round_median_wall_s": statistics.median(r.wall_s for r in rounds),
        "work_per_s": statistics.median(rates),
        "peak_rss_mb": peak_rss_mb,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "checks": checks,
        "correct": all(c["ok"] is not False for c in checks),
        "layers": layers,
        "machine": machine_stamp(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
