"""The measuring side of the benchmark: one fresh interpreter that builds the
inputs, warms up, and (in the measuring role) runs the timed passes.

Every op result is verified outside the timed region: on the first pass by
its oracle check, on later passes by its digest, which must equal the first
pass's byte for byte.  An op that raises, fails its check or changes its
digest counts as failed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
from time import perf_counter

import numpy as np
import scipy

import workloads
from run import OUT_DIR, THREAD_ENV
from spans import LAYERS, Tracer


class Runner:
    def __init__(self, ops):
        self.ops = ops
        self.digest0 = [None] * len(ops)
        self.verdict0 = [None] * len(ops)
        self.walls, self.latencies = [], []  # per pass
        self.traced = []  # per pass: whether the tracer was installed
        self.attempted = self.failed = 0
        self.failures = []

    def run_pass(self, tracer=None) -> None:
        lat, results = [], []
        start = perf_counter()
        for op in self.ops:
            t0 = perf_counter()
            try:
                result = op.run() if tracer is None else tracer.run_op(op.key[0], op.run)
                err = None
            except Exception as exc:  # a failing op is a measured outcome, not a harness error
                result, err = None, f"raised {type(exc).__name__}: {exc}"
            lat.append(perf_counter() - t0)
            results.append((result, err))
        wall = perf_counter() - start
        self.walls.append(wall)
        self.latencies.append(lat)
        self.traced.append(tracer is not None)
        for i, (op, (result, err)) in enumerate(zip(self.ops, results)):
            self.attempted += 1
            if err is None:
                err = self._verify(i, op, result)
            if err is not None:
                self.failed += 1
                self.failures.append(f"{op.key}: {err}")

    def _verify(self, i, op, result):
        try:
            digest = op.digest(result)
            if self.digest0[i] is None:
                self.digest0[i] = digest
                self.verdict0[i] = op.check(result)
            elif digest != self.digest0[i]:
                return f"result digest {digest} differs from the first pass's {self.digest0[i]}"
            return self.verdict0[i]
        except Exception as exc:
            return f"check raised {type(exc).__name__}: {exc}"


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "blas": blas,
        "blas_threads_env": {k: os.environ.get(k) for k in THREAD_ENV},
    }


def _tail(latencies):
    """The highest whole percentile with at least ten ops beyond it."""
    level = max(50, math.floor(100.0 * (1.0 - 10.0 / len(latencies))))
    return level, float(np.percentile(latencies, level))


def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(path) for f in files)


def layer_metrics(summary: dict, passes: int, overhead_s: float, bytes_written: int) -> dict:
    stats, counters = summary["stats"], summary["counters"]
    incl = lambda key: stats.get(key, [0, 0.0, 0.0])[2] / passes
    calls = lambda key: stats.get(key, [0])[0] / passes
    owned = lambda key: summary["owner_self_s"].get(key, 0.0) / passes
    layer_self = lambda layer: sum(st[1] for k, st in stats.items() if k.split(".")[0] == layer) / passes
    layer_calls = lambda layer: sum(st[0] for k, st in stats.items() if k.split(".")[0] == layer) / passes
    s = {
        "corrector.build_s": incl("corrector.corrector_polynomial"),
        "corrector.eval_s": incl("corrector.edgeworth_expectation") + incl("corrector.CorrectorPolynomial.evaluate"),
        "moments.exact_sum_moment_s": incl("moments.exact_sum_moment"),
        "moments.pushforward_s": incl("moments.pushforward_moment"),
        "kernels.build_s": incl("kernels.build_super_kernel"),
        "kernels.mollify_s": incl("kernels.mollify"),
        "sampling.sample_sum_s": incl("sampling.sample_sum"),
        "moments.sample_component_s": incl("moments.sample_component"),
        "moments.icdf_s": incl("moments.component_icdf"),
        "sampling.mc_expectation_s": incl("sampling.mc_expectation"),
        "sampling.nummelin_s": incl("sampling.nummelin_sample"),
        "experiments.rate.self_s": owned("experiments.rate_experiment"),
        "experiments.density.self_s": owned("experiments.density_experiment"),
        "experiments.occupation.self_s": owned("experiments.occupation_time"),
        "experiments.roots.self_s": owned("experiments.kac_rice_roots"),
        "experiments.smallball.self_s": owned("experiments.small_ball"),
        "trace.overhead_s": overhead_s,
    }
    for layer in LAYERS:
        s[f"{layer}.self_s"] = layer_self(layer)
    counts = {
        "corrector.build_calls": calls("corrector.corrector_polynomial"),
        "corrector.compose_calls": calls("corrector.DiffOp.compose"),
        "corrector.terms": counters.get("corrector.terms", 0) / passes,
        "moments.pushforward_calls": calls("moments.pushforward_moment"),
        "multiindex.calls": layer_calls("multiindex"),
        "hermite.calls": layer_calls("hermite"),
        "sampling.sample_sum_draws": counters.get("sampling.sample_sum_draws", 0) / passes,
        "moments.draws": counters.get("moments.draws", 0) / passes,
        "sampling.streams": calls("sampling.RngStream.generator"),
        "cli.bytes_written": bytes_written,
    }
    out = {k: {"value": v, "unit": "s"} for k, v in s.items()}
    out.update({k: {"value": v, "unit": "count"} for k, v in counts.items()})
    return out


def run_child(args, root: str) -> int:
    build, warm = workloads.WORKLOADS[args.workload]
    base = os.path.join(root, OUT_DIR, f"{args.workload}-seed{args.seed}")
    workdir = os.path.join(base, f"rep{args.rep}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    chains = build(args.seed, workdir)
    order = np.random.default_rng([args.seed, 7]).permutation(len(chains))
    ops = [op for i in order for op in chains[i]]
    warm(chains)
    setup_s = perf_counter() - args.spawned_at
    if args.role == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    runner = Runner(ops)
    tracer = Tracer() if args.trace else None
    # traced runs alternate untraced and traced passes, so the overhead is
    # measured against untraced passes taken in the same stretch of time
    while True:
        traced = tracer is not None and len(runner.walls) % 2 == 1
        if traced:
            tracer.install()
        runner.run_pass(tracer if traced else None)
        if traced:
            tracer.remove()
        done = sum(runner.walls)
        if (not args.trace or len(runner.walls) >= 2) and done + done / len(runner.walls) > args.seconds:
            break

    # each op's fastest latency over the untraced passes: load from outside
    # the process slows the machine by up to half for seconds at a time, and
    # the fastest of several passes is the figure such bursts leave alone
    untraced = [lat for lat, t in zip(runner.latencies, runner.traced) if not t]
    per_op = [min(col) for col in zip(*untraced)]
    wall_s = math.fsum(per_op)
    draws = sum(op.draws for op in ops)
    level, tail = _tail(per_op)
    combined = hashlib.sha256("".join(d or "-" for d in runner.digest0).encode()).hexdigest()[:16]
    tag = f"trace{args.trace}"
    record_path = os.path.join(base, f"{tag}.json")
    notes = [
        f"workload {args.workload} seed {args.seed}: {len(runner.walls)} passes of {len(ops)} ops "
        f"({'alternately untraced and traced' if args.trace else 'untraced'})",
        f"op_tail_s is p{level} of {len(per_op)} per-op latencies, each the fastest of {len(untraced)} untraced passes",
        f"ops_failed_frac {runner.failed / runner.attempted:.4g} ({runner.failed} of {runner.attempted})",
        f"draws_per_s counts {draws} scalar variates per pass, computed from the inputs",
        f"result digest {combined}",
        f"records {os.path.relpath(record_path, root)}",
    ] + [f"FAILED {f}" for f in runner.failures[:10]]
    record = {
        "args": {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace},
        "environment": environment(),
        "setup_s": setup_s,
        "pass_walls_s": runner.walls,
        "pass_traced": runner.traced,
        "tail": {"percentile": level, "count": len(per_op)},
        "draws_per_pass": draws,
        "result_digest": combined,
        "failures": runner.failures,
        "ops": [
            {"key": list(op.key), "latencies_s": [lat[i] for lat in runner.latencies], "digest": runner.digest0[i],
             "check": runner.verdict0[i] or "ok"}
            for i, op in enumerate(ops)
        ],
    }
    if args.trace:
        traced = [w for w, t in zip(runner.walls, runner.traced) if t]
        passes = len(traced)
        bytes_written = sum(_dir_bytes(op.out_dir) for op in ops if op.out_dir)
        summary = tracer.summary()
        traced_per_op = [min(col) for col in zip(*(lat for lat, t in zip(runner.latencies, runner.traced) if t))]
        metrics = layer_metrics(summary, passes, math.fsum(traced_per_op) - wall_s, bytes_written)
        record["trace"] = summary | {"traced_passes": passes}
        shares = {k: round(v["value"] / statistics.median(traced), 4) for k, v in metrics.items()
                  if v["unit"] == "s" and k.endswith(".self_s") and k.count(".") == 1}
        notes.append(f"layer self-time shares of a traced pass: {json.dumps(shares)}")
    else:
        metrics = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "op_p50_s": {"value": statistics.median(per_op), "unit": "s"},
            "op_tail_s": {"value": tail, "unit": "s"},
            "draws_per_s": {"value": draws / wall_s, "unit": "1/s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        }
    record["metrics"] = metrics
    with open(record_path, "w") as fh:
        json.dump(record, fh, default=str)
    print(json.dumps({"setup_s": setup_s, "correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics, "notes": notes}))
    return 0
