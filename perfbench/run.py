#!/usr/bin/env python3
"""Benchmark of the edgeworth package: seeded workloads, end-to-end metrics,
oracle checks of every op, and a per-layer traced run.

Run from the repository root:

    python3 perfbench/run.py --workload exact_algebra --seed 1 --seconds 24 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer metrics (see
BENCHMARK.json and perfbench/README.md).  Per-op records, result digests,
the environment and, for traced runs, the spans are written under
``.perfbench_out/`` in the current directory.

This process only orchestrates.  It starts SETUP_REPS fresh interpreters
one after another, each importing the program from ``./src``, generating
the inputs from the seed and warming up; ``setup_s`` is the median of their
times from spawn to ready.  The last of them then runs the timed passes: a
closed loop, one caller, each op started when the previous one returned.
Passes repeat while the next one is expected to fit in ``--seconds``; at
least one always runs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOAD_NAMES = ("exact_algebra", "mc_sums", "trig_roots")
SETUP_REPS = 3
TIME_LIMIT_S = 170.0
# One BLAS thread: OpenBLAS then computes in the calling thread, so BLAS
# threads plus the CLI's --workers never exceed the two cores the
# workloads are sized for.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
OUT_DIR = ".perfbench_out"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--role", choices=("setup", "measure"), help=argparse.SUPPRESS)
    p.add_argument("--rep", type=int, default=0, help=argparse.SUPPRESS)
    p.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "edgeworth", "__init__.py")):
        print("perfbench: ./src/edgeworth not found; run from the repository root", file=sys.stderr)
        return 2
    if args.role:
        from child import run_child

        return run_child(args, root)
    return orchestrate(args, root)


def orchestrate(args, root: str) -> int:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0", **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(root, "src"), HERE])
    deadline = time.monotonic() + TIME_LIMIT_S
    setups, record = [], None
    for rep in range(SETUP_REPS):
        role = "measure" if rep == SETUP_REPS - 1 else "setup"
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace), "--role", role, "--rep", str(rep),
               "--spawned-at", repr(time.perf_counter())]
        try:
            proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True,
                                  timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            print(f"perfbench: {role} process exceeded {TIME_LIMIT_S:.0f} s", file=sys.stderr)
            return 1
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"perfbench: {role} process failed with exit code {proc.returncode}", file=sys.stderr)
            return 1
        record = json.loads(lines[-1])
        setups.append(record["setup_s"])
    for note in record["notes"]:
        print(note)
    metrics = record["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    print(f"setup_s samples: {', '.join(f'{s:.4f}' for s in setups)}")
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed")} | {"metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
