"""The three benchmark workloads: seeded inputs, the op list, and the
oracle check of every op.

An op is one call into the program that the benchmark times on its own: a
library call in ``exact_algebra``, one ``edgeworth.cli.main`` run in
``mc_sums`` and ``trig_roots``.  Inputs (models, test functions, CLI
configs, CLI seeds) come only from the workload seed; the program receives
them as the same JSON documents a user would write.  Sizes are fixed per
workload, so the cost of a pass does not depend on the seed.

Library functions are looked up on their module at call time, so the
tracer's wrappers see every call.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import edgeworth.cli as ew_cli
import edgeworth.corrector as ew_corrector
import edgeworth.hermite as ew_hermite
import edgeworth.kernels as ew_kernels
import edgeworth.moments as ew_moments

import oracles

Z = 5.0  # Monte Carlo checks accept |estimate - exact| <= Z standard errors
# KS critical value at level 1e-6 (two-sample, equal sizes); the 1% value
# 1.628 would flag one seed in a hundred with nothing wrong
KS_C = math.sqrt(-0.5 * math.log(0.5e-6))


@dataclass
class Op:
    key: tuple  # (op, n, N, d, iid) for the per-op records
    run: Callable[[], Any]
    check: Callable[[Any], str | None]  # failure message, or None when correct
    digest: Callable[[Any], str]
    draws: int = 0  # scalar variates the op consumes, computed from its inputs
    out_dir: str | None = None  # where a CLI op writes its CSV and JSON


def _sha(text: str | bytes) -> str:
    if isinstance(text, str):
        text = text.encode()
    return hashlib.sha256(text).hexdigest()[:16]


def _close(value: float, exact: float, tol: float, what: str) -> str | None:
    if math.isfinite(value) and abs(value - exact) <= tol:
        return None
    return f"{what}: {value!r} vs exact {exact!r} (tol {tol:.3g})"


# ---------------------------------------------------------------------------
# exact_algebra


def _normalized(C: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(C @ C.T)
    return (vecs * (1.0 / np.sqrt(vals))) @ vecs.T @ C


def _skewed_two_point(p: float) -> dict:
    return {"kind": "two_point", "p": p, "a": math.sqrt((1 - p) / p), "b": math.sqrt(p / (1 - p))}


def _asymmetric_mixture(rng) -> dict:
    w = float(rng.uniform(0.2, 0.4))
    mu1 = float(rng.uniform(0.5, 0.9))
    mu2 = -w * mu1 / (1 - w)
    s = math.sqrt(1 - w * mu1**2 - (1 - w) * mu2**2)
    return {"kind": "gaussian_mixture", "w": w, "mu1": mu1, "sigma1": s, "mu2": mu2, "sigma2": s}


_CATALOG = ("rademacher", "uniform_centered", "two_point", "gaussian_mixture", "standard_normal")


def _catalog_component(rng) -> dict:
    kind = _CATALOG[int(rng.integers(len(_CATALOG)))]
    if kind == "two_point":
        return _skewed_two_point(float(rng.uniform(0.15, 0.45)))
    if kind == "gaussian_mixture":
        return _asymmetric_mixture(rng)
    return {"kind": kind}


def _iid_doc(rng, d: int, n: int) -> dict:
    """iid model whose components are all skewed, so every moment is
    nonzero and the cost does not depend on the draw."""
    comps = [_skewed_two_point(float(rng.uniform(0.15, 0.45)))] + [_asymmetric_mixture(rng) for _ in range(d - 1)]
    C = _normalized(np.eye(d) + rng.normal(scale=0.3, size=(d, d)))
    return {"d": d, "n": n, "iid": True, "summands": [{"C": C.tolist(), "components": comps}]}


def _noniid_doc(rng, d: int, n: int) -> dict:
    Cs = [np.eye(d) + rng.normal(scale=0.5, size=(d, d)) for _ in range(n)]
    vals, vecs = np.linalg.eigh(sum(C @ C.T for C in Cs) / n)
    inv_sqrt = (vecs * (1.0 / np.sqrt(vals))) @ vecs.T
    return {
        "d": d,
        "n": n,
        "iid": False,
        "summands": [
            {"C": (inv_sqrt @ C).tolist(), "components": [_catalog_component(rng) for _ in range(d)]} for C in Cs
        ],
    }


def _f_support(d: int, N: int) -> list[tuple]:
    """Monomials of orders N+1 and N+2: the order-N corrector reproduces
    their expectations exactly, so the exact-mode rate error is an identity."""
    if d == 1:
        return [(N + 1,), (N + 2,)]
    second = (N + 1, 1) if d == 2 else (N, 1, 1)
    return [(N + 2,) + (0,) * (d - 1), second]


def _poly_digest(phi) -> str:
    return _sha(repr((phi.constant, sorted(phi.terms.items()))))


def _corrector_chain(rng, doc: dict, N: int) -> list[Op]:
    """corrector_polynomial, edgeworth_expectation and the exact sum moments
    of one model: the exact-mode rate error of rate_experiment."""
    d, n, iid = doc["d"], doc["n"], doc["iid"]
    model = ew_moments.ModelSpec.from_json(doc)
    f_terms = {b: float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.5)) for b in _f_support(d, N)}
    f = ew_hermite.Polynomial(d, f_terms)
    state: dict = {}

    def build():
        state["phi"] = ew_corrector.corrector_polynomial(model, N)
        return state["phi"]

    def check_build(phi):
        if phi.constant != 1.0:
            return f"Phi constant {phi.constant!r} != 1"
        ref = oracles.corrector_terms(doc, N)
        by_order: dict = {}
        for b, c in ref.items():
            by_order[sum(b)] = max(by_order.get(sum(b), 0.0), abs(c))
        for b in set(ref) | set(phi.terms):
            a, r = phi.terms.get(b, 0.0), ref.get(b, 0.0)
            if abs(a - r) > 1e-9 * max(abs(r), 1e-6 * by_order.get(sum(b), 0.0)):
                return f"corrector term {b}: {a!r} vs oracle {r!r}"
        return None

    def expect():
        state["corrected"] = ew_corrector.edgeworth_expectation(f, (0,) * d, state["phi"])
        return state["corrected"]

    def check_expect(value):
        exact = oracles.corrected_expectation(f_terms, state["phi"].constant, state["phi"].terms)
        scale = sum(abs(c) * oracles.gaussian_scale(b) for b, c in f_terms.items())
        return _close(value, exact, 1e-9 * scale, "E[f(W) Phi(W)]")

    def moments():
        return math.fsum(c * ew_moments.exact_sum_moment(model, b) for b, c in f_terms.items())

    def check_moments(truth):
        exact = math.fsum(c * oracles.sum_moment(doc, b) for b, c in f_terms.items())
        scale = sum(abs(c) * oracles.gaussian_scale(b) for b, c in f_terms.items())
        return _close(truth, exact, 1e-9 * scale, "E[f(S_n)]") or _close(
            state["corrected"], truth, 1e-9 * scale, "rate error of an order <= N+2 test function"
        )

    key = lambda op: (op, n, N, d, iid)
    return [
        Op(key("corrector_polynomial"), build, check_build, _poly_digest, draws=n * d),
        Op(key("edgeworth_expectation"), expect, check_expect, repr),
        Op(key("exact_sum_moment"), moments, check_moments, repr, draws=n * d),
    ]


def _moment8_chain(rng, n: int = 1000) -> list[Op]:
    doc = _iid_doc(rng, 1, n)
    model = ew_moments.ModelSpec.from_json(doc)

    def check(value):
        exact = oracles.sum_moment(doc, (8,))
        return _close(value, exact, 1e-9 * abs(exact), "E[S_n^8]")

    run = lambda: ew_moments.exact_sum_moment(model, (8,))
    return [Op(("exact_sum_moment_order8", n, None, 1, True), run, check, repr, draws=n)]


def _kernel_chain(rng) -> list[Op]:
    # integer windows whose grid moments all pass the program's 1e-6 guard;
    # between them the guard's margin oscillates and some windows fail it
    plateau, rolloff = float(rng.integers(8, 13)), float(rng.choice([18, 20, 22, 24]))
    coeffs = rng.uniform(-1.0, 1.0, size=5)
    poly = lambda y: coeffs[0] + y * (coeffs[1] + y * (coeffs[2] + y * (coeffs[3] + y * coeffs[4])))
    xs = np.linspace(-2.0, 2.0, 65)
    state: dict = {}

    def build():
        state["kernel"] = ew_kernels.build_super_kernel(plateau=plateau, rolloff=rolloff)
        return state["kernel"]

    def check_build(kernel):
        w = np.full(len(kernel.x), kernel.spacing)
        w[[0, -1]] *= 0.5
        for k in range(7):
            m = float(np.sum(w * kernel.values * kernel.x**k))
            if abs(m - (k == 0)) > 1e-6:
                return f"kernel moment {k} = {m!r}"
        return None

    def moll(delta):
        return lambda: ew_kernels.mollify(poly, state["kernel"], delta, xs)

    def check_moll(values):
        exact = poly(xs)
        err = float(np.max(np.abs(values - exact)))
        return None if err <= 1e-8 * (1.0 + float(np.max(np.abs(exact)))) else f"mollified quartic off by {err:.3g}"

    arr_digest = lambda a: _sha(np.ascontiguousarray(a).tobytes())
    return [
        Op(("build_super_kernel", None, None, 1, None), build, check_build, lambda k: arr_digest(k.values)),
        Op(("mollify", None, None, 1, None), moll(0.3), check_moll, arr_digest),
        Op(("mollify", None, None, 1, None), moll(0.8), check_moll, arr_digest),
    ]


# iid grid (d, n, N).  It leaves out n = 10^4 and (2, 10^3, 4): each of
# those chains costs 0.9 to 15 s, and a pass must stay near 3 s so that a
# run holds enough passes for each op's fastest latency to be steady.
IID_GRID = [(d, n, N) for d in (1, 2) for n in (100, 1000) for N in (2, 3, 4) if (d, n, N) != (2, 1000, 4)]
NONIID_GRID = [(d, 30, N) for d in (1, 2, 3) for N in (1, 2, 3)]


def exact_algebra(seed: int, workdir: str) -> list[list[Op]]:
    rng = np.random.default_rng([seed, 101])
    chains = [_corrector_chain(rng, _iid_doc(rng, d, n), N) for d, n, N in IID_GRID]
    chains += [_corrector_chain(rng, _noniid_doc(rng, d, n), N) for d, n, N in NONIID_GRID]
    chains.append(_moment8_chain(rng))
    chains.append(_kernel_chain(rng))
    return chains


def warm_exact_algebra(chains) -> None:
    """Small instances of every op kind: first calls pay one-off costs (the
    first Gauss-Legendre eigensolve, lazy imports) that a steady pass does not."""
    rng = np.random.default_rng(0)
    for chain in (_corrector_chain(rng, _iid_doc(rng, 2, 10), 4), _corrector_chain(rng, _noniid_doc(rng, 3, 4), 3),
                  _kernel_chain(rng)):
        for op in chain:
            op.run()


# ---------------------------------------------------------------------------
# CLI workloads


def _read_csv(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _cli_op(workdir: str, name: str, config: dict, workers: int, seed: int, key: tuple, draws: int, check) -> Op:
    config = dict(config, out_stem=name)
    cfg_path = os.path.join(workdir, "configs", name + ".json")
    out_dir = os.path.join(workdir, "out", name)
    os.makedirs(os.path.dirname(cfg_path), exist_ok=True)
    with open(cfg_path, "w") as fh:
        json.dump(config, fh)
    argv = [config["experiment"], "--config", cfg_path, "--seed", str(seed), "--workers", str(workers),
            "--out-dir", out_dir]
    csv_path = os.path.join(out_dir, name + ".csv")

    def run():
        code = ew_cli.main(argv)
        if code != 0:
            raise RuntimeError(f"edgeworth {config['experiment']} exited with code {code}")
        return csv_path

    def check_csv(path):
        return check(_read_csv(path))

    def digest(path):
        with open(path, "rb") as fh:
            return _sha(fh.read())

    return Op(key, run, check_csv, digest, draws=draws, out_dir=out_dir)


def _rows_within(rows, value_col, se_col, exact_fn, what, slack=lambda row: 0.0):
    for row in rows:
        value, se, exact = float(row[value_col]), float(row[se_col]), exact_fn(row)
        msg = _close(value, exact, Z * se + slack(row), f"{what} at n={row.get('n', '?')}")
        if msg:
            return msg
    return None


def _he4(x: float) -> float:
    return x**4 - 6 * x**2 + 3


def mc_sums(seed: int, workdir: str) -> list[list[Op]]:
    rng = np.random.default_rng([seed, 202])
    seeds = iter(rng.integers(1, 2**31, size=64).tolist())
    ops = []
    for rep in range(2):
        for N in (1, 2):
            for crn in (False, True):
                comp = _skewed_two_point(float(rng.uniform(0.15, 0.45)))
                grid, samples = [8, 32, 128], 1 << 16
                f = {"[3]": float(rng.uniform(0.5, 1.5)), "[4]": float(rng.uniform(0.5, 1.5))}
                docs = {n: {"d": 1, "n": n, "iid": True, "summands": [{"C": [[1.0]], "components": [comp]}]}
                        for n in grid}
                exact = lambda row, f=f, docs=docs: sum(
                    c * oracles.sum_moment(docs[int(row["n"])], tuple(json.loads(b))) for b, c in f.items()
                )
                check = lambda rows, exact=exact: _rows_within(rows, "estimate", "se", exact, "E[f(S_n)] estimate")
                cfg = {"experiment": "rate", "component": comp, "N": N, "n_grid": grid, "f": f, "mode": "mc",
                       "samples": samples, "crn": crn}
                draws = samples * (max(grid) if crn else sum(grid))
                ops.append(_cli_op(workdir, f"rate_{N}_{'crn' if crn else 'mc'}_{rep}", cfg, 2, next(seeds),
                                   ("rate", max(grid), N, 1, True), draws, check))
    for rep in range(4):
        a, grid, samples = float(rng.uniform(-1.5, 1.5)), [16, 64, 256], 1 << 14
        cfg = {"experiment": "density", "component": {"kind": "standard_normal"}, "N": 0, "n_grid": grid,
               "a": [a], "samples": samples}
        exact = lambda row, a=a: oracles.gaussian_box_density(a, float(row["delta"]))
        check = lambda rows, exact=exact: _rows_within(rows, "estimate", "se", exact, "Gaussian box density")
        ops.append(_cli_op(workdir, f"density_gauss_{rep}", cfg, 2, next(seeds), ("density", max(grid), 0, 1, True),
                           samples * sum(grid), check))
    for rep in range(4):
        a, grid, samples = float(rng.uniform(-1.5, 1.5)), [16, 64, 128], 1 << 15
        cfg = {"experiment": "density", "component": {"kind": "uniform_centered"}, "N": 2, "n_grid": grid,
               "a": [a], "samples": samples, "delta_exponent": 0.75}
        phi_ref = lambda n, a=a: math.exp(-0.5 * a * a) / math.sqrt(2 * math.pi) * (1 - 1.2 / (24 * n) * _he4(a))

        def check(rows, phi_ref=phi_ref):
            for row in rows:
                n = int(row["n"])
                msg = _close(float(row["reference"]), phi_ref(n), 1e-12, f"corrected density at n={n}")
                if msg:
                    return msg
            # the order-2 expansion is accurate to n^{-3/2}; the box average adds O(delta^2)
            return _rows_within(rows, "estimate", "se", lambda row: phi_ref(int(row["n"])), "uniform box density",
                                slack=lambda row: int(row["n"]) ** -1.5 + float(row["delta"]) ** 2)

        ops.append(_cli_op(workdir, f"density_unif_{rep}", cfg, 2, next(seeds), ("density", max(grid), 2, 1, True),
                           samples * sum(grid), check))
    for rep in range(2):
        for kind in ("rademacher", "uniform_centered"):
            grid, samples = [64, 256], 512
            cfg = {"experiment": "occupation", "component": {"kind": kind}, "rho": 0.5, "n_grid": grid,
                   "samples": samples}
            ops.append(_cli_op(workdir, f"occupation_{kind}_{rep}", cfg, 2, next(seeds),
                               ("occupation", max(grid), None, 1, True), samples * sum(grid) + samples * 10_000,
                               _check_occupation))
    for rep in range(2):
        for comp, radius, eps in (({"kind": "standard_normal"}, 0.5, 0.2), ({"kind": "uniform_centered"}, 0.5, 0.25)):
            samples = 1 << 17
            cfg = {"experiment": "nummelin", "component": comp, "center": 0.0, "radius": radius, "epsilon": eps,
                   "samples": samples}
            ops.append(_cli_op(workdir, f"nummelin_{comp['kind']}_{rep}", cfg, 2, next(seeds),
                               ("nummelin", None, None, 1, None), 2 * samples, _check_nummelin))
    return [[op] for op in ops]


def _check_occupation(rows):
    for row in rows:
        n, eps = int(row["n"]), float(row["eps"])
        msg = _close(float(row["gaussian_exact"]), oracles.gaussian_occupation(n, eps), 1e-12,
                     f"exact Gaussian occupation at n={n}")
        if msg:
            return msg
    return _rows_within(rows, "occupation_gaussian", "se_gaussian", lambda row: float(row["gaussian_exact"]),
                        "Gaussian-walk occupation")


def _check_nummelin(rows):
    stat, n = float(rows[0]["ks_statistic"]), int(rows[0]["samples"])
    crit = KS_C * math.sqrt(2.0 / n)
    return None if stat < crit else f"KS statistic {stat:.4g} above the 1e-6 critical value {crit:.4g}"


def warm_cli(chains) -> None:
    """One run of the cheapest op of each experiment kind."""
    cheapest: dict = {}
    for (op,) in chains:
        if op.key[0] not in cheapest or op.draws < cheapest[op.key[0]].draws:
            cheapest[op.key[0]] = op
    for op in cheapest.values():
        op.run()


def trig_roots(seed: int, workdir: str) -> list[list[Op]]:
    rng = np.random.default_rng([seed, 303])
    seeds = iter(rng.integers(1, 2**31, size=64).tolist())
    ops = []
    for kind in ("standard_normal", "uniform_centered"):
        for n, reps, samples in ((25, 4, 100), (50, 2, 100), (100, 1, 50)):
            for rep in range(reps):
                cfg = {"experiment": "roots", "component": {"kind": kind}, "n_grid": [n], "samples": samples}
                check = lambda rows, n=n, gaussian=kind == "standard_normal": _check_roots(rows, n, gaussian)
                ops.append(_cli_op(workdir, f"roots_{kind}_{n}_{rep}", cfg, 1, next(seeds),
                                   ("roots", n, None, 1, True), samples * 2 * n, check))
    for n in (25, 50, 100):
        for rep in range(4):
            samples = 1 << 12
            cfg = {"experiment": "smallball", "component": {"kind": "standard_normal"}, "n": n, "samples": samples}
            check = lambda rows, n=n, samples=samples: _check_smallball(rows, n, samples)
            ops.append(_cli_op(workdir, f"smallball_{n}_{rep}", cfg, 1, next(seeds), ("smallball", n, None, 2, True),
                               samples * 2 * n, check))
    return [[op] for op in ops]


def _check_roots(rows, n: int, gaussian: bool):
    if int(rows[0]["max_count"]) > 2 * n:
        return f"max_count {rows[0]['max_count']} above 2n = {2 * n}"
    cols = [("roots_per_n_gaussian", "se_gaussian")] + ([("roots_per_n", "se")] if gaussian else [])
    for value, se in cols:
        msg = _rows_within(rows, value, se, lambda _: oracles.kac_roots_per_n(n), f"{value} against Kac's mean")
        if msg:
            return msg
    return None


def _check_smallball(rows, n: int, samples: int):
    for row in rows:
        if row["section"] == "pointwise":
            p = oracles.smallball_gaussian(n, float(row["eta"]))
            msg = _close(int(row["hits"]) / samples, p, Z * math.sqrt(p * (1 - p) / samples),
                         f"P(|S_n| <= {row['eta']})")
            if msg:
                return msg
    return None


WORKLOADS = {
    "exact_algebra": (exact_algebra, warm_exact_algebra),
    "mc_sums": (mc_sums, warm_cli),
    "trig_roots": (trig_roots, warm_cli),
}
