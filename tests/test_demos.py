import os
import subprocess
import sys
from pathlib import Path

import edgeworth
from edgeworth.kernels import build_super_kernel

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def test_super_kernel_demo_writes_grid(tmp_path):
    # the demo writes its CSV into the working directory
    src = str(Path(edgeworth.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, str(DEMOS / "super_kernel.py")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = (tmp_path / "super_kernel_grid.csv").read_text().splitlines()
    assert len(lines) == len(build_super_kernel().x) + 1
