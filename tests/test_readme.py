"""README.md's code blocks run as written.

Each ```json block of the README goes through ``McConfig.from_json``, so a
config key removed from ``McConfig`` cannot stay in the documentation, and
each ```python block (the library quick start) is executed, so a changed
signature cannot leave it stale.
"""

import json
import re
from pathlib import Path

import pytest

from seqdi.harness import McConfig

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```json\n(.*?)^```$", TEXT, flags=re.MULTILINE | re.DOTALL)
PYTHON_BLOCKS = re.findall(r"^```python\n(.*?)^```$", TEXT, flags=re.MULTILINE | re.DOTALL)


def test_readme_has_json_configs():
    assert BLOCKS


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_json_block_is_a_config(block):
    McConfig.from_json(json.loads(block))


def test_readme_has_python_blocks():
    assert PYTHON_BLOCKS


@pytest.mark.parametrize("block", PYTHON_BLOCKS,
                         ids=[f"python{i}" for i in range(len(PYTHON_BLOCKS))])
def test_python_block_runs(block, capsys):
    exec(compile(block, f"{README.name} python block", "exec"), {"__name__": "readme"})
    assert capsys.readouterr().out
