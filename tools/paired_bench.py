#!/usr/bin/env python3
"""Paired benchmark runs of a base commit against the working tree.

Run from anywhere inside the repository:

    python3 tools/paired_bench.py --base HEAD --tag my_change --seeds 3601-3610 \\
        --workloads exact_algebra mc_sums trig_roots

The base commit is extracted with ``git archive`` into ``--workdir`` (a new
temporary directory by default), which leaves the repository's own state
alone.  For each workload and seed, ``perfbench/run.py --trace 0`` runs once
on each tree, each from its own checkout and its own ``perfbench/``, in
alternating order: the base first on odd-numbered pairs and the working tree
first on even-numbered ones, so that a drift of the machine's speed during a
session does not favour one side.  One A/A pair per workload, the base twice
on that workload's first seed, shows how far two runs of the same program
differ, next to that workload's verdicts.

It prints, per workload and end-to-end metric, the pairs the working tree
won, each side's median and quartiles, the relative change of the medians
and a verdict against the metric's bound in ``BENCHMARK.json`` (see
``verdict``), then the workload's A/A pair, and writes ``BENCH_<tag>.json``
at the repository root: per workload each side's runs, medians and
quartiles, the verdicts, the result digests of every seed, the median of
each op kind's fastest latency, from the per-op records that ``perfbench``
writes under ``.perfbench_out/``, and the A/A pair.  It
exits 1, printing each reason (see ``failures``), when a run is not
correct, the change fails more ops than the base or a verdict is
``worse``, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COMMAND = "python3 perfbench/run.py --workload <w> --seconds {seconds:g} --trace 0 --seed <s>"


def quartiles(values: list) -> dict:
    q1, q3 = np.percentile(values, [25, 75])
    return {"median": float(statistics.median(values)), "q1": float(q1), "q3": float(q3), "runs": list(values)}


def compare(parent: list, change: list, unit: str, better: str, bound: float) -> dict:
    """Both sides' runs of one metric, one entry per pair: how many pairs
    the change won, the relative change of the medians, and the verdict
    against ``bound``, the largest relative loss of the median that counts
    as no regression."""
    p, c = quartiles(parent), quartiles(change)
    won = sum((b < a) if better == "lower" else (b > a) for a, b in zip(parent, change))
    entry = {"unit": unit, "better": better, "bound": bound, "parent": p, "change": c, "change_wins": won,
             "relative_median_change": c["median"] / p["median"] - 1.0 if p["median"] else None,
             "parent_iqr": p["q3"] - p["q1"]}
    return entry | {"verdict": verdict(entry)}


def verdict(m: dict) -> str:
    """``better`` when the change won at least nine tenths of the pairs and
    its median is better by more than the parent's interquartile range;
    else ``unresolved`` when that range exceeds the bound relative to the
    parent's median, unless every run of the change is better than every
    run of the parent; else ``worse`` when the median is worse by more than
    the bound, and ``within`` otherwise."""
    p, c = m["parent"], m["change"]
    sign = 1.0 if m["better"] == "lower" else -1.0
    gain = sign * (p["median"] - c["median"])
    if m["change_wins"] >= 0.9 * len(p["runs"]) and gain > m["parent_iqr"]:
        return "better"
    every = max(sign * x for x in c["runs"]) < min(sign * x for x in p["runs"])
    if m["parent_iqr"] > m["bound"] * abs(p["median"]) and not every:
        return "unresolved"
    return "worse" if -gain > m["bound"] * abs(p["median"]) else "within"


def failures(workloads: dict) -> list:
    """Why the runs refuse the change, one line per reason, from the
    workloads' entries of :func:`aggregate`: a run that is not ``correct``,
    more failed ops on the change's side than on the parent's, or a metric
    whose verdict is ``worse``.  Empty when there is none."""
    reasons = []
    for workload, entry in workloads.items():
        if not entry["correct"]:
            reasons.append(f"{workload}: a run is not correct")
        failed = entry["failed"]
        if failed["change"] > failed["parent"]:
            reasons.append(f"{workload}: the change failed {failed['change']} ops, the parent {failed['parent']}")
        reasons += [f"{workload}: {name} is worse than the parent by more than its bound of {100 * m['bound']:g} %"
                    for name, m in entry["metrics"].items() if m["verdict"] == "worse"]
    return reasons


def op_kind(key: list) -> str:
    """An op's kind: its name, and for a model's op whether the model is iid."""
    name, iid = key[0], key[-1]
    return name if not isinstance(iid, bool) else f"{name} ({'iid' if iid else 'non-iid'})"


def per_op_medians(records: list) -> dict:
    """Median over the ops of each kind and over the runs of each op's
    fastest latency."""
    kinds: dict = {}
    for record in records:
        for op in record["ops"]:
            kinds.setdefault(op_kind(op["key"]), []).append(min(op["latencies_s"]))
    return {kind: float(statistics.median(v)) for kind, v in sorted(kinds.items())}


def aggregate(seeds: list, parent: list, change: list, end_to_end: dict) -> dict:
    """One workload's entry of the BENCH file from its pairs of runs, one
    run per seed and side, and ``end_to_end``, ``BENCHMARK.json``'s metric
    entries by name.  A run is perfbench's summary line (``correct``,
    ``attempted``, ``failed``, ``metrics``) with the run's record
    (``.perfbench_out/<workload>-seed<s>/trace0.json``) under ``record``."""
    sides = {"parent": parent, "change": change}
    digests = {str(s): {side: runs[i]["record"]["result_digest"] for side, runs in sides.items()}
               for i, s in enumerate(seeds)}
    metrics = {}
    for name in parent[0]["metrics"]:
        values = {side: [run["metrics"][name]["value"] for run in runs] for side, runs in sides.items()}
        metrics[name] = compare(values["parent"], values["change"], parent[0]["metrics"][name]["unit"],
                                end_to_end[name]["better"], end_to_end[name]["bound"])
    medians = {side: per_op_medians([run["record"] for run in runs]) for side, runs in sides.items()}
    return {
        "seeds": list(seeds),
        "correct": all(run["correct"] for runs in sides.values() for run in runs),
        "failed": {side: sum(run["failed"] for run in runs) for side, runs in sides.items()},
        "attempted": {side: sum(run["attempted"] for run in runs) for side, runs in sides.items()},
        "digests_equal": all(d["parent"] == d["change"] for d in digests.values()),
        "digests": digests,
        "metrics": metrics,
        "per_op_medians_s": {"note": "median over the ops of each kind and the seeds of each op's fastest latency,"
                                     " from the runs' trace0.json records"}
        | {kind: {side: medians[side].get(kind) for side in sides} for kind in medians["parent"]},
    }


def aa_pair(first: dict, second: dict) -> dict:
    """Relative difference of each metric between two runs of one tree."""
    return {name: {"first": m["value"], "second": second["metrics"][name]["value"],
                   "relative": second["metrics"][name]["value"] / m["value"] - 1.0 if m["value"] else None}
            for name, m in first["metrics"].items()}


def report(workload: str, entry: dict) -> str:
    """The workload's table of metrics, then its A/A pair if it has one."""
    lines = [f"{workload}: correct {entry['correct']}, failed {entry['failed']}, "
             f"digests equal {entry['digests_equal']}",
             f"  {'metric':12s} {'won':>5s} {'parent median [q1, q3]':>34s} {'change median [q1, q3]':>34s} {'change':>8s}"
             f"  verdict (bound)"]
    for name, m in entry["metrics"].items():
        side = lambda s: f"{m[s]['median']:.4g} [{m[s]['q1']:.4g}, {m[s]['q3']:.4g}]"
        rel = m["relative_median_change"]
        lines.append(f"  {name:12s} {m['change_wins']:>2d}/{len(entry['seeds']):<2d} {side('parent'):>34s} "
                     f"{side('change'):>34s} {'' if rel is None else f'{100 * rel:+.1f} %':>8s}"
                     f"  {m['verdict']} ({100 * m['bound']:g} %)")
    if "aa_pair" in entry:
        aa = entry["aa_pair"]
        lines.append(f"  A/A pair (seed {aa['seed']}): " + ", ".join(
            f"{k} {100 * v['relative']:+.1f} %" for k, v in aa["metrics"].items() if v["relative"] is not None))
    return "\n".join(lines)


def parse_seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def extract(commit: str, dest: str) -> str:
    """The files of ``commit`` in ``dest``; returns the full commit hash."""
    full = subprocess.run(["git", "rev-parse", commit], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()
    tar = subprocess.run(["git", "archive", full], cwd=ROOT, check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    return full


def run_once(tree: str, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {proc.returncode}:\n{proc.stderr}")
    run = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(tree, ".perfbench_out", f"{workload}-seed{seed}", "trace0.json")) as fh:
        record = json.load(fh)
    run["record"] = {k: record[k] for k in ("result_digest", "ops", "environment")}
    return run


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", required=True, help="commit to compare the working tree against")
    p.add_argument("--tag", required=True, help="the BENCH_<tag>.json to write")
    p.add_argument("--seeds", required=True, help="a range lo-hi or a comma-separated list")
    p.add_argument("--workloads", nargs="+", default=["exact_algebra", "mc_sums", "trig_roots"])
    p.add_argument("--seconds", type=float, default=24.0)
    p.add_argument("--workdir", help="where to extract the base commit (default: a new temporary directory)")
    p.add_argument("--claim", default="", help="the claim the runs test, recorded in the BENCH file")
    args = p.parse_args(argv)

    seeds = parse_seeds(args.seeds)
    base = os.path.join(args.workdir or tempfile.mkdtemp(prefix="paired_bench_"), "base")
    os.makedirs(base)
    commit = extract(args.base, base)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        end_to_end = {m["name"]: m for m in json.load(fh)["end_to_end"]}

    workloads = {}
    for workload in args.workloads:
        aa = aa_pair(*(run_once(base, workload, seeds[0], args.seconds) for _ in range(2)))
        runs: dict = {"parent": [], "change": []}
        for i, seed in enumerate(seeds):
            order = [("parent", base), ("change", ROOT)]
            for side, tree in order if i % 2 == 0 else order[::-1]:
                runs[side].append(run_once(tree, workload, seed, args.seconds))
        workloads[workload] = aggregate(seeds, runs["parent"], runs["change"], end_to_end) | {"aa_pair": {
            "seed": seeds[0], "note": "the parent run twice, the second against the first", "metrics": aa}}
        print(report(workload, workloads[workload]), flush=True)

    doc = {
        "parent_commit": commit,
        "command": COMMAND.format(seconds=args.seconds),
        "design": f"{len(seeds)} alternating pairs per workload on seeds {args.seeds}, the parent from `git archive` "
                  "of its commit and the change from the working tree; the parent runs first on odd-numbered pairs, "
                  "the change on even-numbered ones; workloads run one after another "
                  f"({', '.join(args.workloads)}); written by tools/paired_bench.py",
        "machine": runs["change"][0]["record"]["environment"],
        "quartiles": "numpy.percentile 25 and 75, linear interpolation",
        "claim": args.claim,
        "workloads": workloads,
    }
    path = os.path.join(ROOT, f"BENCH_{args.tag}.json")
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"wrote {os.path.relpath(path)}")
    reasons = failures(workloads)
    for reason in reasons:
        print(f"FAIL {reason}")
    return 1 if reasons else 0


if __name__ == "__main__":
    sys.exit(main())
