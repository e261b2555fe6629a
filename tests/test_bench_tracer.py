"""The benchmark tracer wraps seqdi functions by name (``bench/tracer.py``
``LAYERS``), so renaming or removing a traced function must fail here."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_installs():
    # a child process, since installing rebinds module attributes for the whole process
    code = "import sys; sys.path.insert(0, 'bench'); from tracer import Tracer; Tracer().install()"
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH="src"), timeout=120)
    assert proc.returncode == 0, proc.stderr
