"""The tier-1 workflow's "Runtime needs numpy only" step, run by the tests.

CI runs that step only on a push, so a change that breaks its script (say,
by removing a flag or argument it uses) would otherwise pass tier-1.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"


def numpy_only_script() -> str:
    """The Python body between ``<<'PY'`` and ``PY`` of the numpy-only step,
    read as plain text because the CI legs install no YAML parser."""
    text = WORKFLOW.read_text(encoding="utf-8")
    step = text[text.index("- name: Runtime needs numpy only"):]
    lines = step[step.index("<<'PY'\n") + len("<<'PY'\n"):].splitlines(keepends=True)
    end = next(i for i, line in enumerate(lines) if line.strip() == "PY")
    return textwrap.dedent("".join(lines[:end]))


def test_runtime_needs_numpy_only_step(tmp_path):
    script = numpy_only_script()
    assert "from seqdi.cli import main" in script
    proc = subprocess.run([sys.executable, "-", str(tmp_path)], input=script, text=True,
                          capture_output=True, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
