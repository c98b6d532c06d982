"""The README's examples run as printed, and the package exports resolve."""

import re
import shlex
from pathlib import Path

import pytest

import sparseparity
from sparseparity.harness import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def section_blocks(title, language):
    text = README.read_text(encoding="utf-8")
    section = text.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(rf"^```{language}\n(.*?)^```$", section, re.M | re.S)


def quick_start_blocks():
    return section_blocks("Library quick start", "python")


def cli_csv_examples():
    """Each CLI example as (argv, printed lines); the JSON one is skipped."""
    examples = []
    for block in section_blocks("CLI", "text"):
        command, _, printed = block.replace("\\\n", "").partition("\n")
        argv = shlex.split(command.removeprefix("$ "))
        if not printed.startswith("{"):
            examples.append((argv[1:], printed.splitlines()))
    return examples


@pytest.mark.parametrize("index", [0, 1])
def test_quick_start_block_runs(index):
    blocks = quick_start_blocks()
    assert len(blocks) == 2
    exec(compile(blocks[index], f"README block {index}", "exec"), {})


def test_every_exported_name_resolves():
    for name in sparseparity.__all__:
        assert hasattr(sparseparity, name), name


@pytest.mark.parametrize("index", [0, 1, 2])
def test_cli_csv_example_matches_output(index, capsys):
    """Line by line and cell by cell; a printed ``...`` cell matches anything."""
    examples = cli_csv_examples()
    assert len(examples) == 3
    argv, printed = examples[index]
    assert cli(argv) == 0
    actual = capsys.readouterr().out.splitlines()
    assert len(actual) == len(printed)
    for want, got in zip(printed, actual):
        want_cells, cells = want.split(","), got.split(",")
        assert len(cells) == len(want_cells)
        assert all(w in ("...", c) for w, c in zip(want_cells, cells)), (want, got)
