"""The mutation script lists the sites it promises, and no others."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "mutate.py"
_spec = importlib.util.spec_from_file_location("mutate", SCRIPT)
mutate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutate)

SNIPPET = '''\
"""A docstring is not a statement to drop."""
def f(x: int = 1) -> int | None:
    """Nor is this one."""
    y: int | None = x - 1
    return y < 2
'''


def test_sites_skip_annotations_and_docstrings():
    assert [tuple(site) for site in mutate.sites(SNIPPET)] == [
        (2, 0, "drop: def f(x: int=1) -> int | None:"),
        (4, 4, "drop: y: int | None = x - 1"),
        (5, 4, "drop: return y < 2"),
        (2, 15, "1 -> 2"),
        (2, 15, "1 -> 0"),
        (4, 20, "- -> +"),
        (4, 24, "1 -> 2"),
        (4, 24, "1 -> 0"),
        (5, 11, "< -> <="),
        (5, 15, "2 -> 3"),
        (5, 15, "2 -> 1"),
    ]


def test_a_mutant_changes_its_site_only():
    assert mutate.mutant(SNIPPET, 8).splitlines()[-1] == "    return y <= 2"
    assert "pass" in mutate.mutant(SNIPPET, 1)
    assert mutate.mutant(SNIPPET, 5).count("x + 1") == 1


HANG = '''\
from hypothesis import given, strategies as st


def test_passes():
    pass


@given(st.integers())
def test_hangs(x):
    while True:
        pass
'''


def test_a_hung_hypothesis_test_is_stopped_and_named(tmp_path, monkeypatch):
    # Hypothesis catches an exception raised inside a test and replays the
    # example, so only a watchdog outside the run can stop this one.
    (tmp_path / "scripts").mkdir()
    (tmp_path / "scripts" / "mutate.py").write_text(SCRIPT.read_text())
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_hang.py").write_text(HANG)
    monkeypatch.setattr(mutate, "TEST_TIMEOUT", 2)
    killer, logged = mutate.Runner.pytest(tmp_path, ["tests"])
    assert killer == "tests/test_hang.py::test_hangs"
    assert ["tests/test_hang.py::test_passes", "passed"] in [
        row[:2] for row in logged]
