"""Command-line front end: parse a JSON experiment config, dispatch, write
one CSV of rows plus one JSON summary, print a one-screen verdict table.

Each experiment subcommand is one ``SPECS`` entry: its required and
optional config fields, each with a converter, and the runner of its
library driver.  Required fields are passed positionally in spec order,
optional ones by name and only when the config sets them, so every default
is the driver's own.

Exit codes: 0 success, 2 config/validation error, 3 numerical-guard abort.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import experiments
from .corrector import corrector_polynomial
from .errors import ConfigError, NumericalGuardError, check_fields
from .experiments import ExperimentResult
from .hermite import Polynomial
from .moments import ComponentDistribution, ModelSpec, iid_model

N_CAP = 4


def _integral(value) -> bool:
    return not isinstance(value, bool) and (isinstance(value, int) or isinstance(value, float) and value.is_integer())


def _order(N) -> int:
    if not _integral(N) or not 0 <= N <= N_CAP:
        raise ConfigError(f"field 'N' must be in 0..{N_CAP}, got {N}")
    return int(N)


def _n_grid(grid) -> list:
    if not isinstance(grid, list) or not all(map(_integral, grid)):
        raise ConfigError(f"field 'n_grid' must be a list of integers, got {grid!r}")
    return [int(n) for n in grid]


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _ref_eps(eps):
    if eps is not None and not _number(eps):
        raise ConfigError(f"field 'ref_eps' must be a number or null, got {eps!r}")
    return eps


def _eta_grid(grid):
    if grid is not None and not (isinstance(grid, list) and all(map(_number, grid))):
        raise ConfigError(f"field 'eta_grid' must be a list of numbers or null, got {grid!r}")
    return grid


def _field(name: str, conv, value):
    """``value`` through ``conv`` (None: as is); an integer field takes only
    an integral number, a boolean field only true or false and a float
    field only a number."""
    if conv is int and not _integral(value):
        raise ConfigError(f"field {name!r} must be an integer, got {value!r}")
    if conv is bool and not isinstance(value, bool):
        raise ConfigError(f"field {name!r} must be true or false, got {value!r}")
    if conv is float and not _number(value):
        raise ConfigError(f"field {name!r} must be a number, got {value!r}")
    return value if conv is None else conv(value)


def _n_family(kw: dict, base_dir: str, experiment: str):
    """Pops the config's component or one-record model (inline or by a path
    from the config's directory); returns d and the n -> model-of-n map."""
    if "component" in kw:
        base = iid_model(kw["component"], 1)
    elif "model_path" in kw:
        with open(os.path.join(base_dir, kw["model_path"])) as fh:
            base = ModelSpec.from_json(json.load(fh))
    else:
        base = ModelSpec.from_json(kw["model"])
    if len(base.records) != 1:
        raise ConfigError(f"{experiment} experiment over an n-grid needs an iid model or a component")
    d, rec = base.d, base.records[0][0]
    for key in ("component", "model", "model_path"):
        kw.pop(key, None)
    return d, lambda n: ModelSpec(d=d, records=((rec, n),))


def _rate(base_dir, N, n_grid, f, **kw):
    """Rate driver over the n-family; ``f`` maps exponent lists to coefficients."""
    d, family = _n_family(kw, base_dir, "rate")
    f = Polynomial(d, {tuple(json.loads(key)): float(c) for key, c in f.items()})
    return experiments.rate_experiment(family, f, N, n_grid, **kw)


def _density(base_dir, N, n_grid, a, delta_exponent=None, delta_scale=1.0, **kw):
    """Density driver over the n-family; the box half-width is
    delta_scale * n^-delta_exponent, the exponent (N+1)/2 unless set."""
    _, family = _n_family(kw, base_dir, "density")
    expo = 0.5 * (N + 1) if delta_exponent is None else delta_exponent
    return experiments.density_experiment(
        family, N, a, n_grid, delta_rule=lambda n: delta_scale * float(n) ** (-expo), **kw
    )


def _driver(name: str):
    """Runner of ``experiments.<name>``, a driver that takes no worker count:
    the count is dropped.  The driver is looked up at call time, so wrappers
    on the module see the call."""
    return lambda base_dir, *args, workers=None, **kw: getattr(experiments, name)(*args, **kw)


# Fields of every subcommand: the seed goes to the driver, the worker count
# reaches the rate and density drivers and is recorded in every summary.
COMMON = {"seed": int, "workers": int, "out_stem": str}
_COMPONENT = ComponentDistribution.from_json
_N_FAMILY = {"component": _COMPONENT, "model": None, "model_path": None}

# subcommand -> (required fields, optional fields, runner); each field maps to
# its converter (None: as is); the runner takes (config dir, *required, **optional)
SPECS = {
    "rate": ({"N": _order, "n_grid": _n_grid, "f": None},
             {**_N_FAMILY, "gamma": None, "mode": None, "samples": int, "crn": bool}, _rate),
    "density": ({"N": _order, "n_grid": _n_grid, "a": None},
                {**_N_FAMILY, "samples": int, "delta_exponent": float, "delta_scale": float}, _density),
    "occupation": ({"component": _COMPONENT, "rho": float, "n_grid": _n_grid},
                   {"samples": int, "crn": bool, "ref_grid": int, "ref_eps": _ref_eps}, _driver("occupation_time")),
    "roots": ({"component": _COMPONENT, "n_grid": _n_grid},
              {"samples": int, "oversample": int, "crn": bool}, _driver("kac_rice_roots")),
    "smallball": ({"component": _COMPONENT, "n": int},
                  {"theta": float, "a_exp": float, "u_point": float, "eta_grid": _eta_grid, "u_grid_size": int,
                   "samples": int}, _driver("small_ball")),
    "nummelin": ({"component": _COMPONENT, "center": float, "radius": float, "epsilon": float},
                 {"samples": int, "grid_points": int}, _driver("nummelin_experiment")),
    "kernel": ({}, {"plateau": float, "rolloff": float, "half_width": float, "points": int, "moment_bound": float},
               _driver("kernel_experiment")),
}


def _print_table(result: ExperimentResult) -> None:
    widths = [max(len(c), 12) for c in result.columns]

    def line(cells):
        return " ".join((f"{v:.6g}" if isinstance(v, float) else str(v)).ljust(w) for v, w in zip(cells, widths))

    print(f"== {result.name} (seed={result.seed}, hash={result.config_hash()}) ==")
    print(line(result.columns))
    for row in result.rows:
        print(line(map(row.get, result.columns)))
    if result.fitted_slope is not None:
        print(f"fitted slope: {result.fitted_slope:.4f} (stderr {result.slope_stderr})")
    for k, v in result.notes.items():
        print(f"note {k}: {v}")


def cmd_expand(args) -> int:
    with open(args.model) as fh:
        model = ModelSpec.from_json(json.load(fh))
    print(corrector_polynomial(model, _order(args.N)).to_json_str())
    return 0


def cmd_run(args, experiment: str) -> int:
    with open(args.config) as fh:
        cfg = json.load(fh)
    if cfg.get("experiment") != experiment:
        raise ConfigError(f"config field 'experiment' is {cfg.get('experiment')!r}, expected {experiment!r}")
    required, optional, run = SPECS[experiment]
    check_fields(cfg, {"experiment", *required}, optional.keys() | COMMON.keys(), f"{experiment} config")
    cfg |= {k: v for k, v in (("seed", args.seed), ("workers", args.workers)) if v is not None}
    convs = required | optional | COMMON
    kw = {k: _field(k, convs[k], v) for k, v in cfg.items() if k != "experiment"}
    stem = kw.pop("out_stem", experiment)
    positional = [kw.pop(k) for k in required]
    result = run(os.path.dirname(os.path.abspath(args.config)), *positional, **kw)
    result.workers = kw.get("workers", result.workers)
    os.makedirs(args.out_dir, exist_ok=True)
    csv_path, json_path = (os.path.join(args.out_dir, stem + ext) for ext in (".csv", ".json"))
    result.write_csv(csv_path)
    result.write_json(json_path)
    _print_table(result)
    print(f"wrote {csv_path} and {json_path}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="edgeworth", description="corrector polynomials and rate experiments "
                                     "for sums of independent non-identically distributed random vectors")
    sub = parser.add_subparsers(dest="command", required=True)

    p_expand = sub.add_parser("expand", help="print the corrector polynomial of a model as JSON")
    p_expand.add_argument("--model", required=True, help="path to a model JSON document")
    p_expand.add_argument("--N", type=int, required=True, help="expansion order (0..4)")

    for name in SPECS:
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
