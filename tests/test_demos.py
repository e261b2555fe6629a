"""The demos that call the library and the CLI directly, run as CI's
"Demos" step runs them.

Each gets a fresh empty TMPDIR, runs under ``-W error::RuntimeWarning``
and must exit 0 and leave that directory empty.  Demos 02 and 03 go
through ``run_mc``, which the harness tests cover, and take several
seconds each, so they run in CI's step only.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ("01_sequential_workflow.py", "04_csv_workflow.py")


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs_clean(demo, tmp_path):
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    env = dict(os.environ, TMPDIR=str(tmp), PYTHONPATH=str(ROOT / "src"))
    argv = [sys.executable, "-W", "error::RuntimeWarning", str(ROOT / "demos" / demo)]
    proc = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert list(tmp.iterdir()) == []
