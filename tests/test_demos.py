import os
import subprocess
import sys
from pathlib import Path

import edgeworth
from edgeworth.kernels import build_super_kernel

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def run_demo(name, cwd):
    src = str(Path(edgeworth.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, str(DEMOS / name)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def test_super_kernel_demo_writes_grid(tmp_path):
    # the demo writes its CSV into the working directory
    run_demo("super_kernel.py", tmp_path)
    lines = (tmp_path / "super_kernel_grid.csv").read_text().splitlines()
    assert len(lines) == len(build_super_kernel().x) + 1


def test_corrector_demo_runs(tmp_path):
    # the only caller of explicit_order3 and order_discrepancy outside the tests
    assert "constant across n" in run_demo("corrector_polynomials.py", tmp_path).stdout


def test_trig_root_counts_demo_runs(tmp_path):
    out = run_demo("trig_root_counts.py", tmp_path).stdout
    assert out.splitlines()[-1] == "per-sample counts never exceed twice the degree (guard enforced in the counter)"


def test_small_ball_demo_runs(tmp_path):
    out = run_demo("small_ball.py", tmp_path).stdout
    assert out.splitlines()[-1] == "upper-bound exponent from the tail estimate: 1.0"


def test_rate_convergence_demo_runs(tmp_path):
    # drives the corrector and the exact rate path end to end
    out = run_demo("rate_convergence.py", tmp_path).stdout
    assert out.splitlines()[-1] == (
        "order N=2: every row at machine zero; the corrector reproduces "
        "the third and fourth moments identically"
    )


def test_nummelin_splitting_demo_runs(tmp_path):
    out = run_demo("nummelin_splitting.py", tmp_path).stdout
    assert out.splitlines()[-1] == (
        "moment check: split mean +0.0006, direct mean +0.0027; split var 1.0050, direct var 1.0029"
    )


def test_occupation_time_demo_runs(tmp_path):
    # the last line is the exact lattice gap at n = 12000, off the resonance
    out = run_demo("occupation_time.py", tmp_path).stdout
    assert out.splitlines()[-1] == " 12000   10.4664                    0.00217"


def test_approximate_density_demo_runs(tmp_path):
    out = run_demo("approximate_density.py", tmp_path).stdout
    assert out.splitlines()[-1] == "fitted error slope: -0.376"
