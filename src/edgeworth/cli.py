"""Command-line front end: parse a JSON experiment config, dispatch, write
one CSV of rows plus one JSON summary, print a one-screen verdict table.

Exit codes: 0 success, 2 config/validation error, 3 numerical-guard abort.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .corrector import corrector_polynomial
from .errors import ConfigError, NumericalGuardError, check_fields
from .experiments import (
    ExperimentResult,
    density_experiment,
    kac_rice_roots,
    occupation_time,
    rate_experiment,
    small_ball,
)
from .hermite import Polynomial
from .kernels import build_super_kernel, mollify
from .moments import ComponentDistribution, ModelSpec, Summand
from .sampling import DoeblinCert, RngStream, doeblin_check, nummelin_sample, sample_component

N_CAP = 4


def _load_model(doc: dict, base_dir: str) -> ModelSpec:
    if "model_path" in doc:
        path = doc["model_path"]
        if not os.path.isabs(path):
            path = os.path.join(base_dir, path)
        with open(path) as fh:
            return ModelSpec.from_json(json.load(fh))
    return ModelSpec.from_json(doc["model"])


def _component(doc: dict) -> ComponentDistribution:
    return ComponentDistribution.from_json(doc)


def _n_family(cfg: dict, base_dir: str, experiment: str):
    """Dimension and n -> model map of the config's component or
    one-record model: that record with count n."""
    if "component" in cfg:
        d, rec = 1, Summand(np.eye(1), (_component(cfg["component"]),))
    else:
        base = _load_model(cfg, base_dir)
        if len(base.records) != 1:
            raise ConfigError(f"{experiment} experiment over an n-grid needs an iid model or a component")
        d, rec = base.d, base.records[0][0]
    return d, lambda n: ModelSpec(d=d, records=((rec, n),))


def _check_order(N: int) -> int:
    N = int(N)
    if not 0 <= N <= N_CAP:
        raise ConfigError(f"field 'N' must be in 0..{N_CAP}, got {N}")
    return N


def _polynomial_from_config(doc, d: int) -> Polynomial:
    """Test function as {"x^3": 1.0} style monomial map: key is a JSON list
    of exponents."""
    terms = {}
    for key, coeff in doc.items():
        beta = tuple(json.loads(key))
        terms[beta] = float(coeff)
    return Polynomial(d, terms)


def _write(result: ExperimentResult, out_dir: str, stem: str) -> tuple[str, str]:
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, stem + ".csv")
    json_path = os.path.join(out_dir, stem + ".json")
    result.write_csv(csv_path)
    result.write_json(json_path)
    return csv_path, json_path


def _print_table(result: ExperimentResult) -> None:
    cols = result.columns
    widths = {c: max(len(c), 12) for c in cols}
    print(f"== {result.name} (seed={result.seed}, hash={result.config_hash()}) ==")
    print(" ".join(c.ljust(widths[c]) for c in cols))
    for row in result.rows:
        cells = []
        for c in cols:
            v = row.get(c)
            if isinstance(v, float):
                cells.append(f"{v:.6g}".ljust(widths[c]))
            else:
                cells.append(str(v).ljust(widths[c]))
        print(" ".join(cells))
    if result.fitted_slope is not None:
        print(f"fitted slope: {result.fitted_slope:.4f} (stderr {result.slope_stderr})")
    for k, v in result.notes.items():
        print(f"note {k}: {v}")


def cmd_expand(args) -> int:
    with open(args.model) as fh:
        model = ModelSpec.from_json(json.load(fh))
    N = _check_order(args.N)
    phi = corrector_polynomial(model, N)
    print(phi.to_json_str())
    return 0


def _run_rate(cfg, base_dir, seed, workers):
    check_fields(
        cfg, {"experiment", "N", "n_grid", "f"},
        {"model", "model_path", "component", "gamma", "mode", "samples", "crn",
         "seed", "workers", "out_stem"},
        "rate config",
    )
    N = _check_order(cfg["N"])
    d, builder = _n_family(cfg, base_dir, "rate")
    f = _polynomial_from_config(cfg["f"], d)
    return rate_experiment(
        builder, f, N, cfg["n_grid"],
        gamma=tuple(cfg["gamma"]) if cfg.get("gamma") else None,
        mode=cfg.get("mode", "exact"),
        samples=int(cfg.get("samples", 100_000)),
        seed=seed, workers=workers,
        crn=bool(cfg.get("crn", False)),
    )


def _run_density(cfg, base_dir, seed, workers):
    check_fields(
        cfg, {"experiment", "N", "n_grid", "a"},
        {"component", "model", "model_path", "samples", "delta_exponent", "delta_scale",
         "seed", "workers", "out_stem"},
        "density config",
    )
    N = _check_order(cfg["N"])
    _, builder = _n_family(cfg, base_dir, "density")
    expo = float(cfg.get("delta_exponent", 0.5 * (N + 1)))
    scale = float(cfg.get("delta_scale", 1.0))
    return density_experiment(
        builder, N, np.asarray(cfg["a"], dtype=float), cfg["n_grid"],
        delta_rule=lambda n: scale * float(n) ** (-expo),
        samples=int(cfg.get("samples", 1_000_000)),
        seed=seed, workers=workers,
    )


def _run_occupation(cfg, base_dir, seed, workers):
    check_fields(
        cfg, {"experiment", "component", "rho", "n_grid"},
        {"samples", "crn", "ref_grid", "ref_eps", "seed", "workers", "out_stem"},
        "occupation config",
    )
    return occupation_time(
        _component(cfg["component"]), float(cfg["rho"]), cfg["n_grid"],
        samples=int(cfg.get("samples", 10_000)),
        seed=seed, workers=workers,
        crn=bool(cfg.get("crn", True)),
        ref_grid=int(cfg.get("ref_grid", 10_000)),
        ref_eps=cfg.get("ref_eps"),
    )


def _run_roots(cfg, base_dir, seed, workers):
    check_fields(
        cfg, {"experiment", "component", "n_grid"},
        {"samples", "oversample", "crn", "seed", "workers", "out_stem"},
        "roots config",
    )
    return kac_rice_roots(
        _component(cfg["component"]), cfg["n_grid"],
        samples=int(cfg.get("samples", 2000)),
        seed=seed, workers=workers,
        oversample=int(cfg.get("oversample", 8)),
        crn=bool(cfg.get("crn", True)),
    )


def _run_smallball(cfg, base_dir, seed, workers):
    check_fields(
        cfg, {"experiment", "component", "n"},
        {"theta", "a_exp", "u_point", "eta_grid", "u_grid_size", "samples",
         "seed", "workers", "out_stem"},
        "smallball config",
    )
    return small_ball(
        _component(cfg["component"]), int(cfg["n"]),
        theta=float(cfg.get("theta", 1.0)),
        a_exp=float(cfg.get("a_exp", 0.0)),
        u_point=float(cfg.get("u_point", 1.0)),
        eta_grid=cfg.get("eta_grid"),
        u_grid_size=int(cfg.get("u_grid_size", 64)),
        samples=int(cfg.get("samples", 100_000)),
        seed=seed, workers=workers,
    )


def _run_nummelin(cfg, base_dir, seed, workers):
    check_fields(
        cfg, {"experiment", "component", "center", "radius", "epsilon"},
        {"samples", "grid_points", "seed", "workers", "out_stem"},
        "nummelin config",
    )
    from scipy.stats import ks_2samp

    dist = _component(cfg["component"])
    center, radius, epsilon = float(cfg["center"]), float(cfg["radius"]), float(cfg["epsilon"])
    ok, margin = doeblin_check(dist, center, radius, epsilon, int(cfg.get("grid_points", 256)))
    if not ok:
        raise NumericalGuardError(f"lower-bound check failed: margin {margin:.3e}")
    cert = DoeblinCert(center, radius, epsilon)
    samples = int(cfg.get("samples", 100_000))
    rng = RngStream(seed, 0).generator()
    split = nummelin_sample(dist, cert, rng, samples)
    direct = sample_component(dist, RngStream(seed, 1).generator(), samples)
    stat = float(ks_2samp(split, direct).statistic)
    crit = 1.628 * np.sqrt(2.0 / samples)
    in_band = float(np.mean(np.abs(split - center) <= cert.support_radius))
    rows = [
        {
            "samples": samples,
            "ks_statistic": stat,
            "ks_critical_1pct": float(crit),
            "split_probability": cert.split_probability,
            "bump_mass": cert.mass,
            "margin": margin,
            "mean_split": float(split.mean()),
            "mean_direct": float(direct.mean()),
            "in_band_fraction": in_band,
        }
    ]
    return ExperimentResult(
        name="nummelin",
        parameters={k: cfg[k] for k in ("component", "center", "radius", "epsilon")}
        | {"samples": samples},
        columns=list(rows[0].keys()),
        rows=rows,
        seed=seed,
        workers=workers,
        notes={"ks_pass": stat < crit},
    )


def _run_kernel(cfg, base_dir, seed, workers):
    check_fields(
        cfg, {"experiment"},
        {"plateau", "rolloff", "half_width", "points", "moment_bound", "seed",
         "workers", "out_stem"},
        "kernel config",
    )
    kernel = build_super_kernel(
        plateau=float(cfg.get("plateau", 10.0)),
        rolloff=float(cfg.get("rolloff", 20.0)),
        half_width=float(cfg.get("half_width", 22.0)),
        points=int(cfg.get("points", 1 << 13)),
        moment_bound=float(cfg.get("moment_bound", 1e-6)),
    )
    rows = [
        {"quantity": "mass", "value": kernel.mass()},
        {"quantity": "abs_norm", "value": kernel.abs_norm()},
    ]
    for k in range(1, 7):
        rows.append({"quantity": f"moment_{k}", "value": kernel.moment(k)})
    probe = Polynomial(1, {(0,): -7.0, (1,): 1.0, (3,): -2.0, (4,): 1.5})
    xs = np.linspace(-2.0, 2.0, 9)
    err = float(np.max(np.abs(mollify(lambda y: probe(y.reshape(-1, 1)).reshape(y.shape), kernel, 0.5, xs) - probe(xs.reshape(-1, 1)))))
    rows.append({"quantity": "degree4_reproduction_error", "value": err})
    return ExperimentResult(
        name="kernel",
        parameters={
            k: cfg.get(k) for k in ("plateau", "rolloff", "half_width", "points", "moment_bound") if k in cfg
        },
        columns=["quantity", "value"],
        rows=rows,
        seed=seed,
        workers=workers,
    )


_RUNNERS = {
    "rate": _run_rate,
    "density": _run_density,
    "occupation": _run_occupation,
    "roots": _run_roots,
    "smallball": _run_smallball,
    "nummelin": _run_nummelin,
    "kernel": _run_kernel,
}


def cmd_run(args, experiment: str) -> int:
    with open(args.config) as fh:
        cfg = json.load(fh)
    if cfg.get("experiment") != experiment:
        raise ConfigError(
            f"config field 'experiment' is {cfg.get('experiment')!r}, expected {experiment!r}"
        )
    seed = int(args.seed) if args.seed is not None else int(cfg.get("seed", 0))
    workers = int(args.workers) if args.workers is not None else int(cfg.get("workers", 1))
    base_dir = os.path.dirname(os.path.abspath(args.config))
    result = _RUNNERS[experiment](cfg, base_dir, seed, workers)
    stem = cfg.get("out_stem", experiment)
    csv_path, json_path = _write(result, args.out_dir, stem)
    _print_table(result)
    print(f"wrote {csv_path} and {json_path}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="edgeworth",
        description="corrector polynomials and rate experiments for sums of "
        "independent non-identically distributed random vectors",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_expand = sub.add_parser("expand", help="print the corrector polynomial of a model as JSON")
    p_expand.add_argument("--model", required=True, help="path to a model JSON document")
    p_expand.add_argument("--N", type=int, required=True, help="expansion order (0..4)")

    for name in _RUNNERS:
        p = sub.add_parser(name, help=f"run the {name} experiment from a JSON config")
        p.add_argument("--config", required=True)
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--workers", type=int, default=None, help="override the config worker count")
        p.add_argument("--out-dir", default=".", help="directory for the CSV/JSON outputs")

    args = parser.parse_args(argv)
    try:
        if args.command == "expand":
            return cmd_expand(args)
        return cmd_run(args, args.command)
    except (ConfigError, FileNotFoundError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalGuardError as exc:
        print(f"numerical guard: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
