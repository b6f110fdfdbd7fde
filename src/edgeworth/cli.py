"""Command-line front end: parse a JSON experiment config, dispatch, write
one CSV of rows plus one JSON summary, print a one-screen verdict table.

Each experiment subcommand is one ``SPECS`` entry: its required and
optional config fields, each with its :class:`Field` type, and the runner
of its library driver.  Required fields are passed positionally in spec
order, optional ones by name and only when the config sets them, so every
default is the driver's own.

Exit codes: 0 success, 2 config/validation error, 3 numerical-guard abort.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import experiments
from .corrector import corrector_polynomial
from .errors import (BOOLEAN, INTEGER, NUMBER, OBJECT, STRING, ConfigError, Field, NumericalGuardError, check_object,
                     read_field, read_fields)
from .experiments import ExperimentResult
from .hermite import Polynomial
from .moments import ComponentDistribution, ModelSpec, iid_model

N_CAP = 4


def _numbers(value) -> bool:
    return isinstance(value, list) and all(map(NUMBER.ok, value))


def _index(value) -> bool:
    """A list of non-negative integers."""
    return isinstance(value, list) and all(INTEGER.ok(b) and b >= 0 for b in value)


def _monomial_key(key: str) -> bool:
    """A JSON document of a nonempty list of non-negative integers."""
    try:
        beta = json.loads(key)
    except json.JSONDecodeError:
        return False
    return _index(beta) and len(beta) > 0


ORDER = Field(lambda N: INTEGER.ok(N) and 0 <= N <= N_CAP, f"in 0..{N_CAP}", int)
WORKERS = Field(lambda workers: INTEGER.ok(workers) and workers >= 1, "an integer at least 1", int)
N_GRID = Field(lambda grid: isinstance(grid, list) and all(map(INTEGER.ok, grid)), "a list of integers",
               lambda grid: [int(n) for n in grid])
COMPONENT = Field(OBJECT.ok, OBJECT.what, ComponentDistribution.from_json)


def _n_family(kw: dict, base_dir: str, experiment: str):
    """Pops the config's component or one-record model (inline or by a path
    from the config's directory); returns d and the n -> model-of-n map."""
    if "component" in kw:
        base = iid_model(kw["component"], 1)
    elif "model_path" in kw:
        with open(os.path.join(base_dir, kw["model_path"])) as fh:
            base = ModelSpec.from_json(json.load(fh))
    else:
        base = kw["model"]
    if len(base.records) != 1:
        raise ConfigError(f"{experiment} experiment over an n-grid needs an iid model or a component")
    d, rec = base.d, base.records[0][0]
    for key in ("component", "model", "model_path"):
        kw.pop(key, None)
    return d, lambda n: ModelSpec(d=d, records=((rec, n),))


def _rate(base_dir, N, n_grid, f, **kw):
    """Rate driver over the n-family; ``f`` maps exponent tuples to coefficients."""
    d, family = _n_family(kw, base_dir, "rate")
    return experiments.rate_experiment(family, Polynomial(d, f), N, n_grid, **kw)


def _density(base_dir, N, n_grid, a, delta_exponent=None, delta_scale=1.0, **kw):
    """Density driver over the n-family; the box half-width is
    delta_scale * n^-delta_exponent, the exponent (N+1)/2 unless set."""
    _, family = _n_family(kw, base_dir, "density")
    expo = 0.5 * (N + 1) if delta_exponent is None else delta_exponent
    return experiments.density_experiment(
        family, N, a, n_grid, delta_rule=lambda n: delta_scale * float(n) ** (-expo), **kw
    )


def _driver(name: str, blocks: bool = True):
    """Runner of ``experiments.<name>``; a driver without blocks
    (``blocks=False``) takes no worker count, which is then dropped.  The
    driver is looked up at call time, so wrappers on the module see the
    call."""
    if blocks:
        return lambda base_dir, *args, **kw: getattr(experiments, name)(*args, **kw)
    return lambda base_dir, *args, workers=None, **kw: getattr(experiments, name)(*args, **kw)


# Fields of every subcommand: the seed goes to the driver, the worker count
# reaches every driver that runs blocks, which records it in its summary;
# the nummelin and kernel summaries record the one thread they ran in.
COMMON = {"seed": INTEGER, "workers": WORKERS, "out_stem": STRING}
_N_FAMILY = {"component": COMPONENT, "model": Field(OBJECT.ok, OBJECT.what, ModelSpec.from_json),
             "model_path": STRING}
_F = Field(lambda f: isinstance(f, dict) and all(_monomial_key(k) and NUMBER.ok(c) for k, c in f.items()),
           "an object from JSON lists of non-negative integers to numbers",
           lambda f: {tuple(json.loads(key)): float(c) for key, c in f.items()})
_MODE = Field(lambda mode: mode in ("exact", "mc"), '"exact" or "mc"')

# subcommand -> (required fields, optional fields, runner); each field maps to
# its Field; the runner takes (config dir, *required, **optional)
SPECS = {
    "rate": ({"N": ORDER, "n_grid": N_GRID, "f": _F},
             {**_N_FAMILY, "gamma": Field(lambda g: g is None or _index(g), "a list of non-negative integers or null"),
              "mode": _MODE, "samples": INTEGER, "crn": BOOLEAN}, _rate),
    "density": ({"N": ORDER, "n_grid": N_GRID, "a": Field(_numbers, "a list of numbers")},
                {**_N_FAMILY, "samples": INTEGER, "delta_exponent": NUMBER, "delta_scale": NUMBER}, _density),
    "occupation": ({"component": COMPONENT, "rho": NUMBER, "n_grid": N_GRID},
                   {"samples": INTEGER, "ref_eps": Field(lambda eps: eps is None or NUMBER.ok(eps), "a number or null")},
                   _driver("occupation_time")),
    "roots": ({"component": COMPONENT, "n_grid": N_GRID}, {"samples": INTEGER, "oversample": INTEGER},
              _driver("kac_rice_roots")),
    "smallball": ({"component": COMPONENT, "n": INTEGER},
                  {"theta": NUMBER, "u_point": NUMBER,
                   "eta_grid": Field(lambda grid: grid is None or _numbers(grid), "a list of numbers or null"),
                   "u_grid_size": INTEGER, "samples": INTEGER}, _driver("small_ball")),
    "nummelin": ({"component": COMPONENT, "center": NUMBER, "radius": NUMBER, "epsilon": NUMBER},
                 {"samples": INTEGER}, _driver("nummelin_experiment", blocks=False)),
    "kernel": ({}, {"plateau": NUMBER, "rolloff": NUMBER, "half_width": NUMBER, "points": INTEGER,
                    "moment_bound": NUMBER}, _driver("kernel_experiment", blocks=False)),
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
    print(corrector_polynomial(model, read_field("N", ORDER, args.N)).to_json_str())
    return 0


def cmd_run(args, experiment: str) -> int:
    with open(args.config) as fh:
        cfg = json.load(fh)
    check_object(cfg, f"{experiment} config")
    if cfg.get("experiment") != experiment:
        raise ConfigError(f"config field 'experiment' is {cfg.get('experiment')!r}, expected {experiment!r}")
    required, optional, run = SPECS[experiment]
    cfg |= {k: v for k, v in (("seed", args.seed), ("workers", args.workers)) if v is not None}
    kw = read_fields(cfg, {"experiment": STRING, **required}, optional | COMMON, f"{experiment} config")
    del kw["experiment"]
    stem = kw.pop("out_stem", experiment)
    positional = [kw.pop(k) for k in required]
    result = run(os.path.dirname(os.path.abspath(args.config)), *positional, **kw)
    os.makedirs(args.out_dir, exist_ok=True)
    csv_path, json_path = (os.path.join(args.out_dir, stem + ext) for ext in (".csv", ".json"))
    result.write_csv(csv_path)
    result.write_json(json_path)
    _print_table(result)
    print(f"wrote {csv_path} and {json_path}")
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: each parse returns a
    fresh namespace, so ``main`` can run any number of times."""
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
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
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
