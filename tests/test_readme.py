"""The README's library quick start runs, and the package exports resolve."""

import re
from pathlib import Path

import pytest

import sparseparity

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start_blocks():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library quick start\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^```python\n(.*?)^```$", section, re.M | re.S)


@pytest.mark.parametrize("index", [0, 1])
def test_quick_start_block_runs(index):
    blocks = quick_start_blocks()
    assert len(blocks) == 2
    exec(compile(blocks[index], f"README block {index}", "exec"), {})


def test_every_exported_name_resolves():
    for name in sparseparity.__all__:
        assert hasattr(sparseparity, name), name
