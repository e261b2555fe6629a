"""README.md's JSON config examples parse as configs.

Each ```json block of the README goes through ``McConfig.from_json``, so a
config key removed from ``McConfig`` cannot stay in the documentation.
"""

import json
import re
from pathlib import Path

import pytest

from seqdi.harness import McConfig

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```json\n(.*?)^```$", README.read_text(encoding="utf-8"),
                    flags=re.MULTILINE | re.DOTALL)


def test_readme_has_json_configs():
    assert BLOCKS


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_json_block_is_a_config(block):
    McConfig.from_json(json.loads(block))
