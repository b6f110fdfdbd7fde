import contextlib
import hashlib
import inspect
import io
import json
import math
import os
import re
import string
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeworth import cli, experiments, sampling
from edgeworth.cli import COMMON, SPECS, main
from edgeworth.corrector import CorrectorPolynomial, corrector_polynomial
from edgeworth.moments import iid_model, uniform_centered
from ill_typed import (ILL_TYPED, NOT_INTEGER, NOT_LIST, NOT_NUMBER_ENTRY, NOT_NUMBER_OR_NULL, NOT_OBJECT, NOT_STRING,
                       list_with)

MODEL_UNIFORM = {
    "d": 1,
    "n": 100,
    "iid": True,
    "summands": [{"C": [[1.0]], "components": [{"kind": "uniform_centered"}]}],
}

MODEL_GAUSSIAN = {
    "d": 1,
    "n": 50,
    "iid": True,
    "summands": [{"C": [[1.0]], "components": [{"kind": "standard_normal"}]}],
}


@pytest.fixture
def model_path(tmp_path):
    p = tmp_path / "model.json"
    p.write_text(json.dumps(MODEL_UNIFORM))
    return str(p)


def test_expand_roundtrip(model_path, capsys):
    assert main(["expand", "--model", model_path, "--N", "2"]) == 0
    out = capsys.readouterr().out.strip()
    phi = CorrectorPolynomial.from_json(json.loads(out))
    direct = corrector_polynomial(iid_model(uniform_centered(), 100), 2)
    assert phi.terms == direct.terms and phi.constant == direct.constant
    assert phi.terms == pytest.approx({(4,): -5e-4})


def test_expand_gaussian_constant_one(tmp_path, capsys):
    p = tmp_path / "g.json"
    p.write_text(json.dumps(MODEL_GAUSSIAN))
    assert main(["expand", "--model", str(p), "--N", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["terms"] == [] and doc["constant"] == 1.0


@pytest.mark.parametrize("field, value", [("iid", "false"), ("idd", True)])
def test_expand_rejects_loose_model(tmp_path, capsys, field, value):
    # a string flag and a misspelt field are errors, not an iid model
    doc = {"d": 1, "n": 5, field: value,
           "summands": [{"C": [[1.0]], "components": [{"kind": "rademacher"}]}]}
    p = tmp_path / "loose.json"
    p.write_text(json.dumps(doc))
    assert main(["expand", "--model", str(p), "--N", "2"]) == 2
    assert field in capsys.readouterr().err


def test_expand_reads_counted_records(tmp_path, capsys):
    doc = dict(MODEL_UNIFORM, summands=[dict(MODEL_UNIFORM["summands"][0], count=100)])
    del doc["iid"]
    p = tmp_path / "counted.json"
    p.write_text(json.dumps(doc))
    assert main(["expand", "--model", str(p), "--N", "2"]) == 0
    phi = CorrectorPolynomial.from_json(json.loads(capsys.readouterr().out))
    assert phi.terms == corrector_polynomial(iid_model(uniform_centered(), 100), 2).terms


@pytest.mark.parametrize("experiment, fields", [("rate", {"f": {"[4]": 1.0}}), ("density", {"a": [0.3]})])
def test_n_grid_needs_one_record(tmp_path, capsys, experiment, fields):
    model = {"d": 1, "n": 2, "summands": [{"C": [[1.0]], "components": [{"kind": "rademacher"}]},
                                          {"C": [[1.0]], "components": [{"kind": "uniform_centered"}]}]}
    cfg = {"experiment": experiment, "model": model, "N": 1, "n_grid": [8], **fields}
    cpath = tmp_path / "cfg.json"
    cpath.write_text(json.dumps(cfg))
    assert main([experiment, "--config", str(cpath), "--out-dir", str(tmp_path)]) == 2
    assert f"{experiment} experiment over an n-grid needs an iid model or a component" in capsys.readouterr().err


@pytest.mark.parametrize("model, field", [
    ({"d": 1, "n": 1, "summands": 3}, "summands"),
    ({"d": 1, "n": 1, "summands": [{"C": [[1.0]], "components": 3}]}, "components"),
])
def test_rate_rejects_model_without_lists(tmp_path, capsys, model, field):
    cfg = {"experiment": "rate", "model": model, "N": 1, "n_grid": [8], "f": {"[4]": 1.0}}
    cpath = tmp_path / "cfg.json"
    cpath.write_text(json.dumps(cfg))
    assert main(["rate", "--config", str(cpath), "--out-dir", str(tmp_path)]) == 2
    assert f"'{field}' must be a JSON list" in capsys.readouterr().err


@pytest.mark.parametrize("C", [
    # each of these used to load: the first two as [[1.0]], the third into a NaN corrector
    [["1.0"]], [[True]], [[math.nan]],
    [[1.0], [1.0, 2.0]], "abc",
])
def test_ill_typed_matrix_names_it(tmp_path, capsys, C):
    # through a model file and through an inline model
    model = {"d": 1, "n": 1, "summands": [{"C": C, "components": [{"kind": "rademacher"}]}]}
    mpath, cpath = tmp_path / "model.json", tmp_path / "cfg.json"
    mpath.write_text(json.dumps(model))
    cpath.write_text(json.dumps({"experiment": "rate", "model": model, "N": 1, "n_grid": [8], "f": {"[4]": 1.0}}))
    for argv in (["expand", "--model", str(mpath), "--N", "2"],
                 ["rate", "--config", str(cpath), "--out-dir", str(tmp_path)]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "config error: model record field 'C' must be a list of equal-length lists of numbers" in err


@pytest.mark.parametrize("doc", ["[]", "3", '"rate"', "null"])
def test_config_must_be_an_object(tmp_path, capsys, doc):
    cpath = tmp_path / "cfg.json"
    cpath.write_text(doc)
    assert main(["rate", "--config", str(cpath), "--out-dir", str(tmp_path)]) == 2
    assert f"rate config must be a JSON object, got {json.loads(doc)!r}" in capsys.readouterr().err


def test_expand_overflowing_matrix_entry_is_config_error(tmp_path, capsys):
    doc = {"d": 1, "n": 2, "summands": [{"C": [[1e200]], "components": [{"kind": "rademacher"}], "count": 2}]}
    p = tmp_path / "huge.json"
    p.write_text(json.dumps(doc))
    assert main(["expand", "--model", str(p), "--N", "2"]) == 2
    assert "config error: mixing matrix entry 1e+200 to the power 4 overflows a float" in capsys.readouterr().err


def test_expand_rejects_large_order(model_path, capsys):
    assert main(["expand", "--model", model_path, "--N", "9"]) == 2
    assert "N" in capsys.readouterr().err


def test_rate_subcommand_and_outputs(tmp_path, capsys):
    cfg = {
        "experiment": "rate",
        "component": {"kind": "two_point", "p": 0.2, "a": 2.0, "b": 0.5},
        "N": 1,
        "n_grid": [8, 16, 32],
        "f": {"[3]": 1.0, "[4]": 1.0},
        "seed": 3,
    }
    cpath = tmp_path / "rate.json"
    cpath.write_text(json.dumps(cfg))
    assert main(["rate", "--config", str(cpath), "--out-dir", str(tmp_path)]) == 0
    csv = (tmp_path / "rate.csv").read_text()
    assert csv.splitlines()[0] == "n,estimate,se,corrected,error,degenerate"
    assert len(csv.splitlines()) == 4
    summary = json.loads((tmp_path / "rate.json").read_text())
    assert summary["fitted_slope"] == pytest.approx(-1.0, abs=1e-9)
    assert summary["seed"] == 3 and "config_hash" in summary


def test_rate_with_inline_model(tmp_path):
    cfg = {
        "experiment": "rate",
        "model": MODEL_UNIFORM,
        "N": 2,
        "n_grid": [16, 64],
        "f": {"[4]": 1.0},
        "seed": 1,
    }
    cpath = tmp_path / "rate_model.json"
    cpath.write_text(json.dumps(cfg))
    assert main(["rate", "--config", str(cpath), "--out-dir", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "rate.json").read_text())
    # order-2 corrector reproduces the fourth moment of uniform sums exactly
    assert summary["notes"]["all_degenerate"] is True


def test_rate_crn_without_inverse_cdf_is_config_error(tmp_path, capsys):
    cfg = {
        "experiment": "rate",
        "component": {"kind": "gaussian_mixture", "w": 0.5, "mu1": 0.6, "sigma1": 0.8,
                      "mu2": -0.6, "sigma2": 0.8},
        "N": 1,
        "n_grid": [8, 16],
        "f": {"[4]": 1.0},
        "mode": "mc",
        "crn": True,
        "samples": 1000,
    }
    cpath = tmp_path / "rate_crn.json"
    cpath.write_text(json.dumps(cfg))
    assert main(["rate", "--config", str(cpath), "--out-dir", str(tmp_path)]) == 2
    assert "config error" in capsys.readouterr().err


MINIMAL_OCCUPATION = {"experiment": "occupation", "component": {"kind": "rademacher"}, "rho": 0.5, "n_grid": [16],
                      "samples": 100}
MINIMAL_ROOTS = {"experiment": "roots", "component": {"kind": "standard_normal"}, "n_grid": [5], "samples": 20}


@pytest.mark.parametrize(
    "cfg, field",
    [
        pytest.param(
            {"experiment": "rate", "component": {"kind": "rademacher"}, "N": 0,
             "n_grid": [8], "f": {"[4]": 1.0}, "typo_field": 1},
            "typo_field",
            id="rate",
        ),
        pytest.param(
            {"experiment": "roots", "component": {"kind": "standard_normal"},
             "n_grid": [5], "samples": 4, "tol": 1e-12},
            "tol",
            id="roots",
        ),
        pytest.param(
            {"experiment": "occupation", "component": {"kind": "rademacher"}, "rho": 0.5,
             "n_grid": [16], "samples": 100, "ref_paths": 1000},
            "ref_paths",
            id="occupation",
        ),
        # the Brownian reference is a closed form, with no grid to set
        pytest.param(MINIMAL_OCCUPATION | {"ref_grid": 100}, "ref_grid", id="occupation-ref_grid"),
        # the law's inverse CDF picks the coupling of these two
        pytest.param(MINIMAL_OCCUPATION | {"crn": False}, "crn", id="occupation-crn"),
        pytest.param(MINIMAL_ROOTS | {"crn": True}, "crn", id="roots-crn"),
    ],
)
def test_unknown_field_rejected(tmp_path, capsys, cfg, field):
    cpath = tmp_path / "bad.json"
    cpath.write_text(json.dumps(cfg))
    assert main([cfg["experiment"], "--config", str(cpath), "--out-dir", str(tmp_path)]) == 2
    assert field in capsys.readouterr().err


def test_wrong_experiment_name(tmp_path):
    cpath = tmp_path / "cfg.json"
    cpath.write_text(json.dumps({"experiment": "density"}))
    assert main(["rate", "--config", str(cpath), "--out-dir", str(tmp_path)]) == 2


def test_numerical_guard_exit_code(tmp_path, capsys):
    # kernel grid far too short for the moment bound: guard aborts with 3
    cfg = {"experiment": "kernel", "plateau": 2.0, "rolloff": 4.0, "half_width": 22.0,
           "points": 1 << 12}
    cpath = tmp_path / "k.json"
    cpath.write_text(json.dumps(cfg))
    assert main(["kernel", "--config", str(cpath), "--out-dir", str(tmp_path)]) == 3
    assert "moment" in capsys.readouterr().err


def test_kernel_subcommand(tmp_path):
    cfg = {"experiment": "kernel"}
    cpath = tmp_path / "k.json"
    cpath.write_text(json.dumps(cfg))
    assert main(["kernel", "--config", str(cpath), "--out-dir", str(tmp_path)]) == 0
    rows = {r.split(",")[0]: float(r.split(",")[1])
            for r in (tmp_path / "kernel.csv").read_text().splitlines()[1:]}
    assert abs(rows["mass"] - 1.0) <= 1e-8
    assert abs(rows["moment_4"]) <= 1e-6
    assert rows["degree4_reproduction_error"] <= 1e-6
    default_hash = json.loads((tmp_path / "kernel.json").read_text())["config_hash"]
    # every field that shapes the kernel enters the config hash
    cpath.write_text(json.dumps(dict(cfg, moment_bound=1e-3, out_stem="kernel_bound")))
    assert main(["kernel", "--config", str(cpath), "--out-dir", str(tmp_path)]) == 0
    assert json.loads((tmp_path / "kernel_bound.json").read_text())["config_hash"] != default_hash


def test_nummelin_subcommand(tmp_path):
    cfg = {
        "experiment": "nummelin",
        "component": {"kind": "uniform_centered"},
        "center": 0.0,
        "radius": 0.25,
        "epsilon": 0.2,
        "samples": 20_000,
        "seed": 777,
    }
    cpath = tmp_path / "n.json"
    cpath.write_text(json.dumps(cfg))
    assert main(["nummelin", "--config", str(cpath), "--out-dir", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "nummelin.json").read_text())
    assert summary["notes"]["ks_pass"] is True


def test_nummelin_law_without_density_is_config_error():
    cfg = MINIMAL["nummelin"][0] | {"component": {"kind": "rademacher"}}
    code, err = _run_config(cfg, "nummelin")
    assert code == 2
    assert "config error: nummelin splitting needs a law with a density; rademacher has none" in err


@pytest.mark.parametrize("component", [
    # this used to run, and wrote a CSV whose se column read 0.0
    {"kind": "two_point", "p": math.nan, "a": 1.0, "b": 1.0},
    {"kind": "gaussian_mixture", "w": 2.0, "mu1": 0.0, "sigma1": 1.0, "mu2": 0.0, "sigma2": 1.0},
])
def test_law_outside_its_domain_is_config_error(component):
    code, err = _run_config(MINIMAL_OCCUPATION | {"component": component}, "occupation")
    assert code == 2 and "config error: " in err


def test_nummelin_without_samples_is_config_error():
    # the size check names the field before anything is drawn
    for samples in (0, -3):
        code, err = _run_config(MINIMAL["nummelin"][0] | {"samples": samples}, "nummelin")
        assert code == 2
        assert f"config error: 'samples' must be at least 1, got {samples}" in err


def test_cli_import_leaves_scipy_special_out():
    # scipy.special is imported by the calls that need it, not at start-up
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run([sys.executable, "-c", "import sys, edgeworth.cli; print('scipy.special' in sys.modules)"],
                         capture_output=True, text=True, check=True, env=os.environ | {"PYTHONPATH": src})
    assert out.stdout.strip() == "False"


def test_cli_import_leaves_scipy_stats_out(tmp_path):
    # a nummelin run (the two-sample KS statistic) must not import it either
    cpath = tmp_path / "nummelin.json"
    cpath.write_text(json.dumps(MINIMAL["nummelin"][0]))
    code = ("import contextlib, io, sys, edgeworth.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert edgeworth.cli.main(['nummelin', '--config', {str(cpath)!r}, '--out-dir', {str(tmp_path)!r}]) == 0\n"
            "print('scipy.stats' in sys.modules)")
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env=os.environ | {"PYTHONPATH": src})
    assert out.stdout.strip() == "False"
    assert (tmp_path / "nummelin.csv").exists()


def test_seed_determinism_byte_identical(tmp_path):
    cfg = {
        "experiment": "smallball",
        "component": {"kind": "uniform_centered"},
        "n": 20,
        "samples": 4000,
        "u_grid_size": 16,
        "eta_grid": [0.2, 0.4],
        "seed": 7,
    }
    cpath = tmp_path / "sb.json"
    cpath.write_text(json.dumps(cfg))
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert main(["smallball", "--config", str(cpath), "--seed", "7", "--out-dir", str(out1)]) == 0
    assert main(["smallball", "--config", str(cpath), "--seed", "7", "--out-dir", str(out2)]) == 0
    assert (out1 / "smallball.csv").read_bytes() == (out2 / "smallball.csv").read_bytes()
    cfg_seed9 = tmp_path / "run3"
    assert main(["smallball", "--config", str(cpath), "--seed", "9", "--out-dir", str(cfg_seed9)]) == 0
    assert (out1 / "smallball.csv").read_bytes() != (cfg_seed9 / "smallball.csv").read_bytes()


@pytest.mark.parametrize(
    "cfg",
    [
        # each config runs at least two blocks of its driver
        pytest.param(
            {"experiment": "rate", "component": {"kind": "two_point", "p": 0.2, "a": 2.0, "b": 0.5},
             "N": 1, "n_grid": [8, 16], "f": {"[3]": 1.0, "[4]": 1.0}, "mode": "mc",
             "samples": 20_000, "seed": 5},
            id="rate-mc",
        ),
        pytest.param(
            {"experiment": "rate", "component": {"kind": "uniform_centered"}, "N": 1,
             "n_grid": [1024, 8192], "f": {"[4]": 1.0}, "mode": "mc", "crn": True,
             "samples": 600, "seed": 5},
            id="rate-mc-crn",
        ),
        # several row chunks per block, the last one short
        pytest.param(
            {"experiment": "rate", "component": {"kind": "two_point", "p": 0.2, "a": 2.0, "b": 0.5},
             "N": 2, "n_grid": [7, 100], "f": {"[3]": 1.0, "[4]": 0.5}, "mode": "mc", "crn": True,
             "samples": 50_000, "seed": 5},
            id="rate-mc-crn-chunked",
        ),
        # two blocks per n, so entries of one n are summed from different threads
        pytest.param(
            {"experiment": "density", "component": {"kind": "uniform_centered"}, "N": 1,
             "a": [0.3], "n_grid": [4, 8], "samples": 70_000, "seed": 5},
            id="density",
        ),
        # one block per n: the plan spans the n-grid
        pytest.param(
            {"experiment": "density", "component": {"kind": "uniform_centered"}, "N": 1,
             "a": [0.3], "n_grid": [4, 8], "samples": 20_000, "seed": 5},
            id="density-one-block-per-n",
        ),
        pytest.param(
            {"experiment": "occupation", "component": {"kind": "rademacher"}, "rho": 0.5,
             "n_grid": [4096], "samples": 600, "seed": 5},
            id="occupation",
        ),
        pytest.param(
            {"experiment": "roots", "component": {"kind": "uniform_centered"},
             "n_grid": [8, 16], "samples": 600, "oversample": 512, "seed": 5},
            id="roots",
        ),
        pytest.param(
            {"experiment": "smallball", "component": {"kind": "uniform_centered"}, "n": 10,
             "samples": 9000, "u_grid_size": 16, "eta_grid": [0.2, 0.4], "seed": 5},
            id="smallball",
        ),
    ],
)
def test_worker_count_never_changes_csv(tmp_path, monkeypatch, cfg):
    plans, counts, real = [], set(), sampling.run_blocks

    def counted(plan, block_fn, workers=1):
        plans.append(len(plan))
        counts.add(workers)
        return real(plan, block_fn, workers)

    # every driver reaches the engine through sampling.run_grid
    monkeypatch.setattr(sampling, "run_blocks", counted)
    cpath = tmp_path / "cfg.json"
    cpath.write_text(json.dumps(cfg))
    csvs = []
    for workers in (1, 4):
        out = tmp_path / f"w{workers}"
        args = [cfg["experiment"], "--config", str(cpath), "--workers", str(workers), "--out-dir", str(out)]
        assert main(args) == 0
        csvs.append((out / f"{cfg['experiment']}.csv").read_bytes())
    assert csvs[0] == csvs[1]
    assert max(plans) >= 2
    assert counts == {1, 4}  # the requested count reaches the engine


DRIVERS = ("rate_experiment", "density_experiment", "occupation_time", "kac_rice_roots", "small_ball",
           "nummelin_experiment", "kernel_experiment")


@pytest.mark.parametrize("experiment", sorted(SPECS))
def test_workers_reach_exactly_the_drivers_that_take_them(tmp_path, monkeypatch, experiment):
    real = {name: getattr(experiments, name) for name in DRIVERS}
    calls = []

    def wrap(name):
        def driver(*args, **kw):
            calls.append((name, kw.get("workers")))
            return real[name](*args, **kw)

        return driver

    for name in DRIVERS:
        monkeypatch.setattr(experiments, name, wrap(name))
    cpath = tmp_path / "cfg.json"
    cpath.write_text(json.dumps(MINIMAL[experiment][0]))
    assert main([experiment, "--config", str(cpath), "--workers", "3", "--out-dir", str(tmp_path)]) == 0
    [(name, workers)] = calls
    takes_workers = "workers" in inspect.signature(real[name]).parameters
    assert workers == (3 if takes_workers else None)
    # the summary records the count the driver ran with
    assert json.loads((tmp_path / f"{experiment}.json").read_text())["workers"] == (3 if takes_workers else 1)


# one cheap, well-typed config per subcommand with the config_hash it had
# before the subcommands were field specs (occupation's since its config
# lost the Brownian grid size, smallball's since its parameters lost a_exp,
# rate's and density's since their parameters hold the model)
MINIMAL = {
    "rate": ({"experiment": "rate", "component": {"kind": "rademacher"}, "N": 1, "n_grid": [8, 16],
              "f": {"[4]": 1.0}}, "f4c5c19b8aa3d94a"),
    "density": ({"experiment": "density", "component": {"kind": "uniform_centered"}, "N": 1, "a": [0.3],
                 "n_grid": [4, 8], "samples": 2000}, "c5360855e0c71e1b"),
    "occupation": (MINIMAL_OCCUPATION, "dd6de41754f781ed"),
    "roots": (MINIMAL_ROOTS, "fc8e957d29679d8d"),
    "smallball": ({"experiment": "smallball", "component": {"kind": "uniform_centered"}, "n": 10, "samples": 500,
                   "u_grid_size": 8}, "ce58953bbf4eda57"),
    "nummelin": ({"experiment": "nummelin", "component": {"kind": "uniform_centered"}, "center": 0.0,
                  "radius": 0.25, "epsilon": 0.2, "samples": 2000}, "95d34cbf19aaf72f"),
    "kernel": ({"experiment": "kernel"}, "44136fa355b3678a"),
}


@pytest.mark.parametrize("experiment", ["rate", "density"])
def test_config_hash_tells_laws_apart(tmp_path, experiment):
    # the n-grid drivers' parameters hold the model, so two configs that
    # differ only in the component law differ in config_hash
    hashes = []
    for kind in ("rademacher", "uniform_centered"):
        cfg = MINIMAL[experiment][0] | {"component": {"kind": kind}}
        out = tmp_path / kind
        cpath = tmp_path / f"{kind}.json"
        cpath.write_text(json.dumps(cfg))
        assert main([experiment, "--config", str(cpath), "--out-dir", str(out)]) == 0
        hashes.append(json.loads((out / f"{experiment}.json").read_text())["config_hash"])
    assert hashes[0] != hashes[1]


def test_minimal_configs_cover_every_subcommand():
    assert MINIMAL.keys() == SPECS.keys()


def _reject_constant(name):
    raise ValueError(f"summary holds the non-JSON constant {name}")


@pytest.mark.parametrize("experiment", sorted(MINIMAL))
def test_config_hash_pinned(tmp_path, experiment):
    # the summary is strict JSON: NaN and infinities are written as null,
    # as the two-point grids' slope standard errors of rate and density
    cfg, expected = MINIMAL[experiment]
    cpath = tmp_path / "cfg.json"
    cpath.write_text(json.dumps(cfg))
    assert main([experiment, "--config", str(cpath), "--out-dir", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / f"{experiment}.json").read_text(), parse_constant=_reject_constant)
    assert summary["config_hash"] == expected


# the rate Monte Carlo path, which evaluates the test function on sampled
# rows, without and with common random numbers; a continuous law, so the
# values of x**3 and x**4 are not a handful of lattice points; and the
# common-random-number path through a skewed two-point law's inverse CDF
RATE_MC = MINIMAL["rate"][0] | {"component": {"kind": "uniform_centered"}, "f": {"[3]": 1.0, "[4]": 1.0},
                                "mode": "mc"}
RATE_MC_CASES = {"rate_mc": RATE_MC | {"crn": False}, "rate_mc_crn": RATE_MC | {"crn": True},
                 "rate_mc_crn_two_point": RATE_MC | {"crn": True,
                                                     "component": {"kind": "two_point", "p": 0.2, "a": 2.0, "b": 0.5}}}

# sha256 of each MINIMAL config's CSV, of the README rate.json's and of the
# RATE_MC_CASES', at the config's own seed; a change that moves Monte Carlo
# numbers on purpose updates these and records the old and new values
CSV_DIGESTS = {
    "density": "9edb1ea62c37423d3a5b2f891becf20537a913cc9334f105bad25728adc38e07",
    "kernel": "0c3fb490882109e1639c6d7333d58c3048614d30ae8a261b16e7e536d59da7a8",
    "nummelin": "7f6839a42bec45782029dbe6d5b787eb4324be2d6558aa91528433b96d5db6f9",
    "occupation": "e07773e1b66a89305d207ac45397f76bc3c23cae151f27cc98588e2d671845f8",
    "rate": "3b4e3273921957ef6c61692735c414cf94d793025f98f812ca9b0687d9e8c709",
    "rate_mc": "e276e2da644a88592655177f2c657905126167efe41b4ef0bce07615d5b5565e",
    "rate_mc_crn": "7500e2cbffe8d28a1dfb77ffecd98b1583806a0670edab3fae65312c5387ef8f",
    "rate_mc_crn_two_point": "463868cc81be9e78b8798fa4a9da9267d3380fe4e8b4a8436175dfd269c72901",
    "readme_rate": "3fc79e6e3b1fbc59001a3fe3046512c9f4fdd14b808187449bfd800c8253fb24",
    "roots": "c4df964911bfc1f938dc1b69d736f32ed10d43a6bfa280d1d8d9a907eef6e05a",
    "smallball": "0b171e27cec31a54b878a97a5dce6a8f73cbff9943895150e450038b5e748dbf",
}


def _readme_rate_config() -> str:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return re.search(r"Example config \(`rate.json`\):\s*```json\n(.*?)```", readme, re.S).group(1)


def _case_config(case: str) -> str:
    if case == "readme_rate":
        return _readme_rate_config()
    return json.dumps(RATE_MC_CASES[case] if case in RATE_MC_CASES else MINIMAL[case][0])


@pytest.mark.parametrize("case", sorted(CSV_DIGESTS))
def test_csv_bytes_pinned(tmp_path, case):
    text = _case_config(case)
    experiment = json.loads(text)["experiment"]
    cpath = tmp_path / "cfg.json"
    cpath.write_text(text)
    assert main([experiment, "--config", str(cpath), "--out-dir", str(tmp_path)]) == 0
    assert hashlib.sha256((tmp_path / f"{experiment}.csv").read_bytes()).hexdigest() == CSV_DIGESTS[case]


# numpy's loops as an x86 machine without AVX-512 dispatches them; on such a
# machine both runs below take the same loops
BELOW_AVX512 = {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}
# kernel is left out: its table's np.exp round-off still differs in the last
# digits between the two targets
PORTABLE_CASES = ("density", "nummelin", "occupation", "rate", "rate_mc", "rate_mc_crn", "rate_mc_crn_two_point",
                  "readme_rate", "roots", "smallball")


def test_csv_bytes_portable_below_avx512(tmp_path):
    runs = {}
    for case in PORTABLE_CASES:
        text = _case_config(case)
        (tmp_path / f"{case}.json").write_text(text)
        runs[case] = [json.loads(text)["experiment"], "--config", str(tmp_path / f"{case}.json"), "--out-dir"]
    code = "import json, sys; from edgeworth.cli import main; sys.exit(any(main(a) for a in json.loads(sys.argv[1])))"
    src = str(Path(__file__).resolve().parents[1] / "src")
    argvs = [argv + [str(tmp_path / "below" / case)] for case, argv in runs.items()]
    subprocess.run([sys.executable, "-c", code, json.dumps(argvs)], capture_output=True, check=True,
                   env=os.environ | BELOW_AVX512 | {"PYTHONPATH": src})
    for case, argv in runs.items():
        assert main(argv + [str(tmp_path / "native" / case)]) == 0
        native, below = (tmp_path / target / case / argv[0] for target in ("native", "below"))
        assert below.with_suffix(".csv").read_bytes() == native.with_suffix(".csv").read_bytes(), case
        hashes = [json.loads(out.with_suffix(".json").read_text())["config_hash"] for out in (native, below)]
        assert hashes[0] == hashes[1], case


def test_one_parser_serves_every_call(tmp_path):
    # two subcommands and a bad argument in one process: each CSV equals a
    # fresh interpreter's, and argparse still exits 2 on the bad argument
    def args(experiment, out):
        cpath = tmp_path / f"{experiment}.json"
        cpath.write_text(json.dumps(MINIMAL[experiment][0]))
        return [experiment, "--config", str(cpath), "--out-dir", str(tmp_path / out)]

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for experiment in ("roots", "smallball"):
            assert main(args(experiment, "here")) == 0
        with pytest.raises(SystemExit) as exc:
            main(["roots", "--config"])
        assert exc.value.code == 2
        assert main(args("roots", "after")) == 0
    src = str(Path(__file__).resolve().parents[1] / "src")
    for experiment in ("roots", "smallball"):
        subprocess.run([sys.executable, "-m", "edgeworth.cli", *args(experiment, "fresh")], capture_output=True,
                       check=True, env=os.environ | {"PYTHONPATH": src})
        fresh = (tmp_path / "fresh" / f"{experiment}.csv").read_bytes()
        assert (tmp_path / "here" / f"{experiment}.csv").read_bytes() == fresh
    assert (tmp_path / "after" / "roots.csv").read_bytes() == (tmp_path / "fresh" / "roots.csv").read_bytes()
    assert cli._parser.cache_info().currsize == 1


def test_csv_digests_cover_every_minimal_config():
    assert CSV_DIGESTS.keys() == MINIMAL.keys() | {"readme_rate"} | RATE_MC_CASES.keys()


def _run_config(cfg: dict, experiment: str, *flags: str) -> tuple[int, str]:
    """Exit code and standard error of one run, with command-line ``flags``,
    in a fresh directory."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        cpath = Path(tmp) / "cfg.json"
        cpath.write_text(json.dumps(cfg))
        code = main([experiment, "--config", str(cpath), "--out-dir", tmp, *flags])
    return code, err.getvalue()


def _fields(experiment: str) -> dict:
    required, optional, _ = SPECS[experiment]
    return required | optional | COMMON


# every Field of cli.SPECS and COMMON, and the values it must reject
_ILL_TYPED = {
    **ILL_TYPED,
    cli.ORDER: st.one_of(NOT_INTEGER, st.integers(max_value=-1), st.integers(min_value=cli.N_CAP + 1)),
    cli.N_GRID: st.one_of(st.none(), NOT_LIST, list_with(NOT_INTEGER)),
    cli.COMPONENT: NOT_OBJECT,
    cli.WORKERS: st.one_of(NOT_INTEGER, st.integers(max_value=0)),
}
_ILL_TYPED_BY_NAME = {
    "model": NOT_OBJECT,
    "f": st.one_of(NOT_OBJECT,
                   st.dictionaries(st.sampled_from(["3", "[]", "[true]", "[1.5]", "[-1]", "x", "{}"]), st.floats(),
                                   min_size=1, max_size=2),
                   st.dictionaries(st.just("[4]"), NOT_NUMBER_ENTRY, min_size=1)),
    "a": st.one_of(st.none(), NOT_LIST, list_with(NOT_NUMBER_ENTRY)),
    "gamma": st.one_of(NOT_LIST, list_with(st.one_of(NOT_INTEGER, st.integers(max_value=-1)))),
    "ref_eps": NOT_NUMBER_OR_NULL,
    "eta_grid": st.one_of(NOT_LIST, list_with(NOT_NUMBER_ENTRY)),
    "mode": st.one_of(NOT_STRING, st.text(max_size=5).filter(lambda mode: mode not in ("exact", "mc"))),
}
_ALL_FIELDS = [(experiment, name) for experiment in sorted(SPECS) for name in _fields(experiment)]


@settings(max_examples=60, deadline=None)
@given(experiment=st.sampled_from(sorted(SPECS)), data=st.data())
def test_spec_rejects_unknown_field(experiment, data):
    fields = _fields(experiment)
    name = data.draw(st.text(string.ascii_lowercase + "_", min_size=1, max_size=12)
                     .filter(lambda k: k not in fields and k != "experiment"))
    code, err = _run_config(MINIMAL[experiment][0] | {name: 1}, experiment)
    assert code == 2 and f"'{name}'" in err


@settings(max_examples=40, deadline=None)
@given(experiment=st.sampled_from(sorted(SPECS)), data=st.data())
def test_spec_rejects_missing_required_field(experiment, data):
    name = data.draw(st.sampled_from(["experiment", *SPECS[experiment][0]]))
    cfg = dict(MINIMAL[experiment][0])
    del cfg[name]
    code, err = _run_config(cfg, experiment)
    assert code == 2 and f"'{name}'" in err


def test_every_field_has_ill_typed_values():
    missing = [(e, name) for e, name in _ALL_FIELDS
               if name not in _ILL_TYPED_BY_NAME and _fields(e)[name] not in _ILL_TYPED]
    assert not missing


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_spec_rejects_ill_typed_field(data):
    # each example puts one ill-typed value in every field of every subcommand
    for experiment, name in _ALL_FIELDS:
        strategy = _ILL_TYPED_BY_NAME[name] if name in _ILL_TYPED_BY_NAME else _ILL_TYPED[_fields(experiment)[name]]
        value = data.draw(strategy, label=f"{experiment}.{name}")
        code, err = _run_config(MINIMAL[experiment][0] | {name: value}, experiment)
        assert code == 2 and f"field '{name}'" in err, (experiment, name, value)


@pytest.mark.parametrize(
    "experiment, field, value",
    [
        ("rate", "crn", "false"),  # bool("false") used to switch common random numbers on
        ("rate", "N", 1.7),  # used to run at N = 1
        ("rate", "n_grid", [8, 16.5]),
        ("occupation", "rho", "0.5"),  # used to run as 0.5
        ("smallball", "theta", None),  # used to end in a TypeError traceback
        ("smallball", "eta_grid", 0.2),
        ("occupation", "ref_eps", "0.01"),
        # each of these used to end in a traceback
        ("roots", "component", "rademacher"),
        ("rate", "model", []),
        ("rate", "model_path", 3),
        ("rate", "f", []),
        ("rate", "f", {"3": 1.0}),
        ("rate", "gamma", 1.5),
        # each of these used to run
        ("density", "a", None),  # at a NaN point
        ("density", "a", "0.5"),
        ("rate", "gamma", [True]),  # as gamma = [1]
        ("rate", "out_stem", 3),
        ("rate", "mode", None),  # exit 2 without naming the field
        ("rate", "mode", "bogus"),  # named no field, and failed only after the first corrector build
        # each of these used to run: eta nan in an infimum row, an all-zero table
        ("smallball", "theta", math.nan),
        ("density", "a", [math.inf]),
        ("occupation", "ref_eps", math.nan),
        ("occupation", "rho", 10**400),  # used to end in an OverflowError traceback
    ],
)
def test_ill_typed_field_names_it(experiment, field, value):
    code, err = _run_config(MINIMAL[experiment][0] | {field: value}, experiment)
    assert code == 2 and f"field '{field}'" in err


@pytest.mark.parametrize(
    "cfg, field",
    [
        # each of these used to end in a traceback
        pytest.param(MINIMAL["density"][0] | {"samples": 0}, "samples", id="density-samples-0"),
        pytest.param(MINIMAL_OCCUPATION | {"samples": 0}, "samples", id="occupation-samples-0"),
        pytest.param(MINIMAL_OCCUPATION | {"samples": -3}, "samples", id="occupation-samples-negative"),
        pytest.param(MINIMAL_ROOTS | {"samples": 0}, "samples", id="roots-samples-0"),
        pytest.param(MINIMAL_ROOTS | {"samples": -3}, "samples", id="roots-samples-negative"),
        pytest.param(RATE_MC | {"crn": True, "samples": 0}, "samples", id="rate-crn-samples-0"),
        pytest.param(MINIMAL_OCCUPATION | {"n_grid": [0]}, "n_grid", id="occupation-n_grid-0"),
        pytest.param(MINIMAL_ROOTS | {"n_grid": [0]}, "n_grid", id="roots-n_grid-0"),
        pytest.param(MINIMAL["smallball"][0] | {"n": 0}, "n", id="smallball-n-0"),
        pytest.param(MINIMAL_ROOTS | {"oversample": 0}, "oversample", id="roots-oversample-0"),
        # these exited 2 with a numpy message that named no field
        pytest.param(MINIMAL["smallball"][0] | {"samples": 0}, "samples", id="smallball-samples-0"),
        pytest.param(MINIMAL["smallball"][0] | {"u_grid_size": 0}, "u_grid_size", id="smallball-u_grid_size-0"),
        # this ran to an empty table noted all_degenerate
        pytest.param(MINIMAL["rate"][0] | {"n_grid": []}, "n_grid", id="rate-n_grid-empty"),
        # the common-random-number path ran below the plain path's floor of 100
        pytest.param(RATE_MC | {"crn": True, "samples": 5}, "samples", id="rate-crn-samples-5"),
        # a worker count below 1 ran serially, exited 0 and was written to the summary
        *(pytest.param(MINIMAL[experiment][0] | {"workers": workers}, "workers", id=f"{experiment}-workers-{workers}")
          for experiment in sorted(MINIMAL) for workers in (0, -3)),
        # these exited 2 with "math domain error" or 3 from the certificate
        pytest.param(MINIMAL["nummelin"][0] | {"radius": -1}, "radius", id="nummelin-radius-negative"),
        pytest.param(MINIMAL["nummelin"][0] | {"radius": 0}, "radius", id="nummelin-radius-0"),
        pytest.param(MINIMAL["nummelin"][0] | {"epsilon": -0.2}, "epsilon", id="nummelin-epsilon-negative"),
    ],
)
def test_bad_size_names_its_field(cfg, field):
    code, err = _run_config(cfg, cfg["experiment"])
    assert code == 2 and f"'{field}'" in err


@pytest.mark.parametrize("experiment", sorted(SPECS))
@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_flag_below_one_names_it(experiment, workers):
    code, err = _run_config(MINIMAL[experiment][0], experiment, "--workers", workers)
    assert code == 2 and "'workers'" in err


def test_integral_float_is_an_integer(tmp_path):
    cfg = MINIMAL["roots"][0]
    outs = []
    for samples in (20, 20.0):
        cpath = tmp_path / "cfg.json"
        cpath.write_text(json.dumps(cfg | {"samples": samples}))
        assert main(["roots", "--config", str(cpath), "--out-dir", str(tmp_path)]) == 0
        outs.append((tmp_path / "roots.json").read_text())
    assert outs[0] == outs[1]


@pytest.mark.parametrize(
    "component, field",
    [
        ({"kind": "uniform_centered", "p": 0.3}, "p"),
        ({"kind": "two_point", "p": 0.2, "a": 2.0, "bb": 0.5}, "b"),
        ({"kind": "two_point", "p": 0.2, "a": 2.0, "b": 0.5, "w": 9}, "w"),
        ({"kind": "gaussian_mixture", "w": 0.5, "mu1": 0.6, "sigma1": 0.8, "mu2": -0.6, "sigma_2": 0.8}, "sigma2"),
        ({"kind": "two_point", "p": None, "a": 2.0, "b": 0.5}, "p"),  # used to end in a TypeError traceback
        ({"kind": "two_point", "p": 10**400, "a": 2.0, "b": 0.5}, "p"),  # used to end in an OverflowError traceback
        ({"kind": "two_point", "p": math.nan, "a": 1.0, "b": 1.0}, "p"),  # exited 2 without naming the field
    ],
)
def test_misspelt_component_field_rejected(component, field):
    code, err = _run_config(MINIMAL["roots"][0] | {"component": component}, "roots")
    assert code == 2 and f"'{field}'" in err


def test_readme_rate_config_runs(tmp_path):
    cpath = tmp_path / "rate.json"
    cpath.write_text(_readme_rate_config())
    assert main(["rate", "--config", str(cpath), "--out-dir", str(tmp_path)]) == 0
    assert (tmp_path / "rate.csv").read_text().startswith("n,estimate,se,corrected,error,degenerate\n")


def test_readme_csv_table_matches_headers(tmp_path):
    # the CSV header is the key order of the driver's rows; the README's
    # "CSV columns" table documents it, one row per subcommand
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("CSV columns", 1)[1]
    for experiment, (cfg, _) in MINIMAL.items():
        documented = re.search(rf"^\| {experiment} +\| `([^`]*)`", table, re.M).group(1)
        cpath = tmp_path / f"{experiment}.json"
        cpath.write_text(json.dumps(cfg))
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([experiment, "--config", str(cpath), "--out-dir", str(tmp_path)]) == 0
        header = (tmp_path / f"{experiment}.csv").read_text().splitlines()[0]
        assert documented.split(", ") == header.split(","), experiment


def test_readme_catalog_table_matches_laws():
    # the README's component catalog table documents the law table, one row
    # per kind: its parameters and which closed forms it has
    from edgeworth.moments import _LAWS

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("Component catalog", 1)[1]
    rows = re.findall(r"^\| `(\w+)` \| (.*?) \| (yes|no) \| (yes|no) \| (yes|no) \|$", table, re.M)
    assert [row[0] for row in rows] == list(_LAWS)
    for kind, params, density, icdf, fold_sum in rows:
        law = _LAWS[kind]
        assert re.findall(r"`(\w+)`", params) == list(law.params), kind
        assert [density, icdf, fold_sum] == ["no" if f is None else "yes" for f in (law.density, law.icdf, law.fold_sum)]


def test_readme_install_line_names_the_package_floors():
    # the README's install line and pyproject.toml name the same floors
    root = Path(__file__).resolve().parents[1]
    floors = dict(re.findall(r'^    "(numpy|scipy)>=([\d.]+)",$', (root / "pyproject.toml").read_text(), re.M))
    readme = (root / "README.md").read_text()
    line = re.search(r"^pip install -e \. +# needs numpy >= ([\d.]+), scipy >= ([\d.]+)$", readme, re.M)
    assert floors == {"numpy": line.group(1), "scipy": line.group(2)}


def test_readme_field_table_matches_specs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    for name, (required, optional, _) in SPECS.items():
        row = re.search(rf"^\| {name} +\| (.*?) \| (.*?) \|$", readme, re.M)
        assert re.findall(r"`(\w+)`", row.group(1)) == list(required)
        assert re.findall(r"`(\w+)`", row.group(2)) == list(optional)
