"""Tests for the CLI experiment runner and its report formats."""

import contextlib
import dataclasses
import io
import json
import math
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sparseparity import harness
from sparseparity.cover import CoverParams, family_size_m, sample_family
from sparseparity.errors import BudgetExceededError
from sparseparity.harness import (
    CSV_HEADER,
    RunReport,
    RunRow,
    _csv_cell,
    bench_tradeoff,
    cli,
    closed_form_mistake_bound,
    run_cover_check,
    run_learn_noiseless,
    run_learn_noisy,
)
from sparseparity.noisy import NoisyParams, flip_set_count
from sparseparity.online import LearnerState


def run_cli(tmp_path, argv, name="report.txt"):
    out = tmp_path / name
    code = cli(argv + ["--out", str(out)])
    return code, out.read_text() if out.exists() else None


def strip_column(csv_text, column):
    lines = csv_text.strip("\n").split("\n")
    header = lines[0].split(",")
    drop = header.index(column)
    kept = []
    for line in lines:
        cells = line.split(",")
        kept.append(",".join(cells[:drop] + cells[drop + 1:]))
    return "\n".join(kept)


# ---------------------------------------------------------------------------
# exit codes and usage


def test_no_arguments_is_usage_error(capsys):
    assert cli([]) == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_flag_is_usage_error(capsys):
    argv = ["cover-check", "--n", "8", "--k", "1", "--t", "2",
            "--alpha", "2", "--bogus"]
    assert cli(argv) == 1
    assert "usage" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert cli(["--help"]) == 0
    assert "learn-noiseless" in capsys.readouterr().out


def test_bad_parameters_exit_one(capsys):
    argv = ["cover-check", "--n", "4", "--k", "9", "--t", "2", "--alpha", "2"]
    assert cli(argv) == 1
    assert "error" in capsys.readouterr().err


def test_missing_inner_dimensions_exit_one(capsys):
    argv = ["learn-noisy", "--n", "8", "--k", "1", "--eta", "0.05",
            "--delta", "0.2", "--s-prime", "10", "--inner", "pac-online"]
    assert cli(argv) == 1


@pytest.mark.parametrize("extra", [["--t", "6"], ["--alpha", "2"],
                                   ["--t", "6", "--alpha", "2"]])
def test_mitm_inner_rejects_t_and_alpha(extra, capsys):
    """The mitm inner uses neither, so a row must not report them."""
    argv = ["learn-noisy", "--n", "24", "--k", "2", "--eta", "0.05",
            "--delta", "0.2", "--s-prime", "20", "--inner", "mitm"] + extra
    assert cli(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_zero_trials_rejected(capsys):
    argv = ["learn-noiseless", "--n", "8", "--k", "1", "--t", "4",
            "--alpha", "2", "--trials", "0"]
    assert cli(argv) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["learn-noiseless", "--n", "8", "--k", "1", "--t", "4", "--alpha", "2",
         "--sample-budget", "-3"],
        ["bench", "--n", "8", "--k", "1", "--t-grid", "4", "--alpha", "2",
         "--sample-budget", "-1"],
        ["learn-noisy", "--n", "8", "--k", "1", "--eta", "0.05",
         "--delta", "0.2", "--s-prime", "10", "--flip-set-limit", "-1"],
        ["cover-check", "--n", "8", "--k", "1", "--t", "2", "--alpha", "2",
         "--trials", "0"],
        ["learn-noiseless", "--n", "8", "--k", "1", "--t", "4", "--alpha", "2",
         "--trials", "two"],
        ["bench", "--n", "16", "--k", "2", "--t-grid", "4,,2", "--alpha", "2"],
        ["bench", "--n", "48", "--k", "2", "--t-grid", "12,6,", "--alpha", "2"],
        # the closed-form bound divides by t
        ["learn-noiseless", "--n", "0", "--k", "0", "--t", "0", "--alpha", "2"],
        ["bench", "--n", "16", "--k", "0", "--t-grid", "0", "--alpha", "2"],
        ["learn-noisy", "--n", "24", "--k", "0", "--eta", "0.05",
         "--delta", "0.2", "--s-prime", "10", "--inner", "pac-online",
         "--t", "0", "--alpha", "2"],
    ],
)
def test_out_of_range_counts_exit_one_with_usage(argv, capsys):
    assert cli(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: sparseparity ")


def _mostly(valid, invalid):
    """Values that pass the parser's checks, and one time in 16 not."""
    return st.integers(min_value=0, max_value=15).flatmap(
        lambda roll: invalid if roll == 0 else valid
    )


def _counts(low, high):
    return _mostly(
        st.integers(min_value=low, max_value=high),
        st.integers(min_value=-1, max_value=low - 1),
    )


def _open_floats(low, high):
    return st.floats(low, high, exclude_min=True, exclude_max=True).map(repr)


# Floats the checks have missed: nan, infinities and subnormals, whose
# reciprocal overflows.
_SPECIAL_FLOATS = st.sampled_from(
    ["0", "-0.1", "nan", "inf", "-inf", "5e-324", "1e-320"]
)
_FLAG_VALUES = {
    "--seed": st.integers(min_value=0, max_value=3),
    "--trials": _counts(1, 2),
    "--format": _mostly(st.sampled_from(["csv", "json"]), st.just("xml")),
    "--n": _counts(1, 24),
    "--k": _counts(0, 3),
    "--t": _counts(1, 6),
    "--alpha": _counts(2, 4),
    "--sample-budget": _counts(0, 64),
    "--eta": _mostly(_open_floats(0.0, 1 / 3), _SPECIAL_FLOATS),
    # s'' grows with log2(1 / delta): near 1e-300 one run takes a minute
    "--delta": _mostly(_open_floats(1e-3, 1.0), _SPECIAL_FLOATS),
    "--s-prime": _counts(1, 12),
    "--flip-set-limit": _counts(0, 10**4),
    "--t-grid": st.lists(
        _mostly(st.integers(1, 6).map(str), st.sampled_from(["", "0", "-1"])),
        min_size=1, max_size=3,
    ).map(",".join),
}
_COMMON = ("--seed", "--trials", "--format", "--n", "--k")
_CLI_FLAGS = {
    "learn-noiseless": _COMMON + ("--t", "--alpha", "--sample-budget"),
    "learn-noisy": _COMMON + ("--eta", "--delta", "--s-prime",
                              "--flip-set-limit"),
    "cover-check": _COMMON + ("--t", "--alpha"),
    "bench": _COMMON + ("--alpha", "--sample-budget", "--t-grid"),
}
_INNERS = _mostly(st.sampled_from(["mitm", "pac-online"]), st.just("lookup"))


@st.composite
def cli_argvs(draw):
    """A command and its flags, each given once, left out or repeated,
    with mostly valid values.  learn-noisy gets an inner learner, and
    ``--t`` and ``--alpha`` when the inner is the one that takes them."""
    command = draw(st.sampled_from(sorted(_CLI_FLAGS)))
    argv = [command]
    flags = _CLI_FLAGS[command]
    if command == "learn-noisy":
        inner = draw(_INNERS)
        argv += ["--inner", inner]
        if inner == "pac-online":
            flags += ("--t", "--alpha")
    for flag in flags:
        for _ in range(draw(st.sampled_from((1,) * 18 + (0, 2)))):
            argv += [flag, str(draw(_FLAG_VALUES[flag]))]
    return argv


@settings(max_examples=200, deadline=None)
@given(cli_argvs())
@example(["learn-noiseless", "--n", "0", "--k", "0", "--t", "0",
          "--alpha", "2"])
@example(["bench", "--n", "16", "--k", "0", "--t-grid", "0", "--alpha", "2"])
@example(["learn-noisy", "--n", "24", "--k", "0", "--eta", "0.05",
          "--delta", "0.2", "--s-prime", "10", "--inner", "pac-online",
          "--t", "0", "--alpha", "2"])
@example(["learn-noisy", "--n", "24", "--k", "2", "--eta", "0.05",
          "--delta", "1e-320", "--s-prime", "10"])
# 7.5e9 binomials to sum, and an s' past the float range
@example(["learn-noisy", "--n", "24", "--k", "2", "--eta", "0.05",
          "--delta", "0.2", "--s-prime", "100000000000"])
@example(["learn-noisy", "--n", "24", "--k", "2", "--eta", "0.05",
          "--delta", "0.2", "--s-prime", "9" * 400])
def test_cli_exits_with_a_code_on_every_input(argv):
    """No exception escapes ``cli``; it exits 0, 1 or 2, and a failure
    explains itself in one ``error:`` line or in argparse's usage."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli(argv)
    assert code in (0, 1, 2)
    lines = err.getvalue().splitlines()
    if code == 0:
        assert out.getvalue()
    elif code == 1:
        assert out.getvalue() == ""
        if lines[0].startswith("usage: sparseparity "):
            assert lines[-1].startswith("sparseparity ")
            assert ": error: " in lines[-1]
        else:
            assert len(lines) == 1 and lines[0].startswith("error: ")


def test_unwritable_out_exits_two(tmp_path, capsys):
    argv = ["cover-check", "--n", "8", "--k", "1", "--t", "2", "--alpha", "2",
            "--out", str(tmp_path / "missing" / "x.json")]
    assert cli(argv) == 2


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "sparseparity", "cover-check", "--n", "8",
         "--k", "1", "--t", "2", "--alpha", "2", "--seed", "1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["n"] == 8


# ---------------------------------------------------------------------------
# cover-check


def test_cover_check_json_shape(tmp_path):
    argv = ["cover-check", "--n", "24", "--k", "2", "--t", "6",
            "--alpha", "2", "--seed", "7"]
    code, text = run_cli(tmp_path, argv)
    assert code == 0
    result = json.loads(text)
    assert set(result) == {"n", "k", "t", "alpha", "T", "m", "seed",
                           "verified", "parts", "subsets"}
    params = CoverParams(n=24, k=2, t=6, alpha=2)
    assert result["T"] == params.T == 12
    assert result["m"] == family_size_m(params) == len(result["subsets"])
    assert result["seed"] == 7
    assert isinstance(result["verified"], bool)
    assert len(result["parts"]) == params.T
    family = sample_family(params, 7)
    assert result["subsets"] == [list(s) for s in family.subsets]
    assert result["parts"] == [list(p) for p in family.parts]


def test_cover_check_library_call_matches_cli(tmp_path):
    direct = run_cover_check(n=24, k=2, t=6, alpha=2, seed=7)
    _, text = run_cli(tmp_path, ["cover-check", "--n", "24", "--k", "2",
                                 "--t", "6", "--alpha", "2", "--seed", "7"])
    assert json.loads(text) == direct


# ---------------------------------------------------------------------------
# learn-noiseless


def test_csv_header_is_frozen():
    assert CSV_HEADER == (
        "seed", "n", "k", "t", "alpha", "eta", "delta", "mistakes",
        "samples", "identified", "exact_bound", "paper_bound", "wall_ns",
        "inner_invocations",
    )


def test_closed_form_mistake_bound_value():
    expected = 3 * 64 / 12 + math.log2(math.comb(12, 3))
    assert closed_form_mistake_bound(64, 3, 12) == expected


def test_learn_noiseless_csv_rows(tmp_path):
    argv = ["learn-noiseless", "--n", "16", "--k", "2", "--t", "4",
            "--alpha", "2", "--trials", "5", "--seed", "1"]
    code, text = run_cli(tmp_path, argv)
    assert code == 0
    lines = text.strip("\n").split("\n")
    assert lines[0] == ",".join(CSV_HEADER)
    assert len(lines) == 6
    for line in lines[1:]:
        cells = dict(zip(CSV_HEADER, line.split(",")))
        assert cells["identified"] == "true"
        assert int(cells["mistakes"]) <= int(cells["exact_bound"])
        assert cells["eta"] == "0.0"
        assert cells["delta"] == ""
        assert cells["inner_invocations"] == ""
        assert int(cells["samples"]) >= 1
        assert int(cells["wall_ns"]) > 0


def test_learn_noiseless_report_object():
    report = run_learn_noiseless(n=16, k=2, t=4, alpha=2, trials=3, seed=9)
    assert isinstance(report, RunReport)
    assert len(report.rows) == 3
    seeds = {row.seed for row in report.rows}
    assert len(seeds) == 3
    for row in report.rows:
        assert isinstance(row, RunRow)
        assert row.identified
        assert row.mistakes <= row.exact_bound
        assert row.paper_bound == closed_form_mistake_bound(16, 2, 4)


@pytest.mark.parametrize(
    "argv",
    [
        ["learn-noiseless", "--n", "16", "--k", "2", "--t", "4",
         "--alpha", "2", "--trials", "2", "--seed", "1"],
        ["learn-noisy", "--n", "16", "--k", "2", "--eta", "0.05",
         "--delta", "0.2", "--s-prime", "20", "--trials", "2", "--seed", "3"],
        ["learn-noisy", "--n", "16", "--k", "2", "--eta", "0.05",
         "--delta", "0.2", "--s-prime", "20", "--inner", "pac-online",
         "--t", "4", "--alpha", "2", "--trials", "2", "--seed", "3"],
        ["bench", "--n", "16", "--k", "2", "--t-grid", "4,2", "--alpha", "2",
         "--trials", "2", "--seed", "17"],
    ],
    ids=["learn-noiseless", "learn-noisy-mitm", "learn-noisy-pac-online",
         "bench"],
)
def test_json_matches_csv(tmp_path, monkeypatch, argv):
    """Every JSON value renders as its CSV cell, keys in header order.

    A clock that never moves makes the wall-clock columns agree too.
    """
    monkeypatch.setattr("sparseparity.harness.time",
                        SimpleNamespace(perf_counter_ns=lambda: 0))
    _, csv_text = run_cli(tmp_path, argv, name="a.csv")
    _, json_text = run_cli(tmp_path, argv + ["--format", "json"], name="a.json")
    lines = csv_text.strip("\n").split("\n")
    header = lines[0].split(",")
    records = json.loads(json_text)
    assert len(records) == len(lines) - 1 >= 2
    for record, line in zip(records, lines[1:]):
        assert list(record) == header
        for name, cell in zip(header, line.split(",")):
            assert not isinstance(record[name], str)
            assert _csv_cell(record[name]) == cell


def force_one_chart_families(monkeypatch):
    """Make every family unverified and keep only its first subset.

    One chart misses most weight-2 supports, so most streams kill it.
    """
    def explode(family):
        raise BudgetExceededError("forced for test")

    def first_subset_only(params, seed):
        family = sample_family(params, seed)
        return dataclasses.replace(family, subsets=family.subsets[:1])

    monkeypatch.setattr("sparseparity.cover.verify_cover", explode)
    monkeypatch.setattr("sparseparity.cover.sample_family", first_subset_only)


def test_trials_whose_charts_all_die_become_rows(tmp_path, monkeypatch, caplog):
    argv = ["learn-noiseless", "--n", "16", "--k", "2", "--t", "4",
            "--alpha", "2", "--trials", "4", "--seed", "1"]
    _, healthy = run_cli(tmp_path, argv, name="healthy.csv")
    force_one_chart_families(monkeypatch)
    code, text = run_cli(tmp_path, argv)
    assert code == 0
    died = [r for r in caplog.records if "all charts died" in r.message]
    assert died
    lines = text.strip("\n").split("\n")
    assert lines[0] == ",".join(CSV_HEADER)
    rows = [dict(zip(CSV_HEADER, line.split(","))) for line in lines[1:]]
    expected_seeds = [line.split(",")[0] for line in healthy.split("\n")[1:-1]]
    assert [row["seed"] for row in rows] == expected_seeds
    failed = [row for row in rows if row["identified"] == "false"]
    assert len(failed) >= len(died)
    for row in failed:
        assert int(row["samples"]) >= 1
        assert int(row["mistakes"]) >= 0
        assert row["exact_bound"] != ""


def test_bench_counts_trials_whose_charts_all_die(monkeypatch, caplog):
    force_one_chart_families(monkeypatch)
    table = bench_tradeoff(n=16, k=2, t_values=[4], alpha=2, trials=4, seed=1)
    assert any("all charts died" in r.message for r in caplog.records)
    assert len(table) == 1
    assert table[0]["identified_frac"] < 1.0


# ---------------------------------------------------------------------------
# learn-noisy


def test_learn_noisy_counters(tmp_path):
    argv = ["learn-noisy", "--n", "16", "--k", "2", "--eta", "0.05",
            "--delta", "0.2", "--s-prime", "20", "--trials", "3",
            "--seed", "3", "--format", "json"]
    code, text = run_cli(tmp_path, argv)
    assert code == 0
    params = NoisyParams.from_counts(eta=0.05, delta=0.2, s_prime=20)
    expected_invocations = flip_set_count(20, params.flip_budget)
    for rec in json.loads(text):
        assert rec["inner_invocations"] == expected_invocations
        assert rec["eta"] == 0.05
        assert rec["delta"] == 0.2
        assert rec["mistakes"] is None
        if rec["identified"]:
            assert rec["samples"] == params.s_prime + params.s_doubleprime


def test_learn_noisy_pac_online_inner_row():
    report = run_learn_noisy(
        n=16, k=2, eta=0.05, delta=0.2, s_prime=20, trials=2, seed=3,
        inner="pac-online", t=4, alpha=2,
    )
    for row in report.rows:
        assert row.t == 4 and row.alpha == 2
        assert row.exact_bound is not None
        assert row.paper_bound == closed_form_mistake_bound(16, 2, 4)


def test_learn_noisy_flip_set_limit_guard():
    with pytest.raises(Exception):
        run_learn_noisy(
            n=8, k=1, eta=0.3, delta=0.2, s_prime=40, trials=1, seed=1,
            flip_set_limit=10,
        )


# ---------------------------------------------------------------------------
# bench


def test_bench_two_point_grid(tmp_path):
    argv = ["bench", "--n", "32", "--k", "2", "--t-grid", "8,4",
            "--alpha", "2", "--trials", "3", "--seed", "5"]
    code, text = run_cli(tmp_path, argv)
    assert code == 0
    lines = text.strip("\n").split("\n")
    assert lines[0].split(",")[0] == "t"
    rows = [dict(zip(lines[0].split(","), line.split(",")))
            for line in lines[1:]]
    assert len(rows) == 2
    assert int(rows[0]["m"]) > int(rows[1]["m"])
    assert float(rows[0]["mean_samples"]) < float(rows[1]["mean_samples"])
    assert all(float(r["identified_frac"]) == 1.0 for r in rows)


def test_bench_round_time_leaves_construction_out(monkeypatch):
    """On a fake clock that charges 1 s per learner build and 1 us per
    round, rounds read 1 us each while a trial's wall time holds both."""
    now = [0]
    clock = SimpleNamespace(perf_counter_ns=lambda: now[0])
    monkeypatch.setattr("sparseparity.harness.time", clock)
    build, step = harness.new_learner, LearnerState.step

    def slow_build(*args, **kwargs):
        now[0] += 10**9
        return build(*args, **kwargs)

    def timed_step(self, a, y):
        now[0] += 1000
        return step(self, a, y)

    monkeypatch.setattr("sparseparity.harness.new_learner", slow_build)
    monkeypatch.setattr(LearnerState, "step", timed_step)
    table = bench_tradeoff(
        n=16, k=2, t_values=(4, 2), alpha=2, trials=3, seed=17
    )
    assert [row["mean_round_wall_ns"] for row in table] == [1000.0, 1000.0]
    for row in run_learn_noiseless(16, 2, 4, 2, trials=3, seed=17).rows:
        assert row.wall_ns == 10**9 + 1000 * row.samples


def test_bench_checks_the_whole_grid_before_any_trial(monkeypatch, capsys):
    def no_trial(*args):
        pytest.fail("a trial ran before the grid was checked")

    monkeypatch.setattr("sparseparity.harness._noiseless_trial", no_trial)
    argv = ["bench", "--n", "64", "--k", "3", "--t-grid", "12,100",
            "--alpha", "2"]
    assert cli(argv) == 1
    assert capsys.readouterr().err.startswith("error: need 0 <= k <= t <= n")


def test_bench_single_point_grid():
    table = bench_tradeoff(n=16, k=1, t_values=(4,), alpha=2, trials=2, seed=8)
    assert len(table) == 1
    assert table[0]["t"] == 4
    assert table[0]["identified_frac"] == 1.0


def test_bench_weight_zero_rows_identify_immediately():
    table = bench_tradeoff(n=16, k=0, t_values=(4, 2), alpha=2, trials=2,
                           seed=8)
    for row in table:
        assert row["identified_frac"] == 1.0
        assert row["mean_samples"] == 0.0


# ---------------------------------------------------------------------------
# determinism


def test_learn_reports_deterministic_modulo_wall_clock(tmp_path):
    argv = ["learn-noiseless", "--n", "16", "--k", "2", "--t", "4",
            "--alpha", "2", "--trials", "3", "--seed", "11"]
    _, first = run_cli(tmp_path, argv, name="r1.csv")
    _, second = run_cli(tmp_path, argv, name="r2.csv")
    assert strip_column(first, "wall_ns") == strip_column(second, "wall_ns")


def test_noisy_reports_deterministic_modulo_wall_clock(tmp_path):
    argv = ["learn-noisy", "--n", "12", "--k", "2", "--eta", "0.05",
            "--delta", "0.2", "--s-prime", "14", "--trials", "3",
            "--seed", "13"]
    _, first = run_cli(tmp_path, argv, name="r1.csv")
    _, second = run_cli(tmp_path, argv, name="r2.csv")
    assert strip_column(first, "wall_ns") == strip_column(second, "wall_ns")


def test_bench_deterministic_modulo_wall_clock(tmp_path):
    argv = ["bench", "--n", "16", "--k", "2", "--t-grid", "4", "--alpha", "2",
            "--trials", "2", "--seed", "17"]
    _, first = run_cli(tmp_path, argv, name="r1.csv")
    _, second = run_cli(tmp_path, argv, name="r2.csv")
    assert strip_column(first, "mean_round_wall_ns") == strip_column(
        second, "mean_round_wall_ns"
    )


def test_cover_check_byte_deterministic(tmp_path):
    argv = ["cover-check", "--n", "24", "--k", "2", "--t", "6", "--alpha", "2",
            "--seed", "7"]
    _, first = run_cli(tmp_path, argv, name="c1.json")
    _, second = run_cli(tmp_path, argv, name="c2.json")
    assert first == second


GOLDEN_DIR = Path(__file__).resolve().parent / "data"


@pytest.mark.parametrize(
    "argv,wall_column,golden",
    [
        (["learn-noiseless", "--n", "64", "--k", "3", "--t", "12",
          "--alpha", "2", "--trials", "3", "--seed", "20"],
         "wall_ns", "golden_learn_noiseless.csv"),
        (["bench", "--n", "16", "--k", "2", "--t-grid", "4,2",
          "--alpha", "2", "--trials", "2", "--seed", "17"],
         "mean_round_wall_ns", "golden_bench.csv"),
        (["learn-noisy", "--n", "24", "--k", "2", "--eta", "0.05",
          "--delta", "0.2", "--s-prime", "24", "--inner", "pac-online",
          "--t", "6", "--alpha", "2", "--trials", "3", "--seed", "19"],
         "wall_ns", "golden_learn_noisy_pac_online.csv"),
        (["learn-noisy", "--n", "24", "--k", "2", "--eta", "0.05",
          "--delta", "0.2", "--s-prime", "40", "--trials", "5",
          "--seed", "6"],
         "wall_ns", "golden_learn_noisy_mitm.csv"),
        (["cover-check", "--n", "24", "--k", "2", "--t", "6",
          "--alpha", "2", "--seed", "7"],
         None, "golden_cover_check.json"),
        (["learn-noisy", "--n", "18", "--k", "3", "--eta", "0.05",
          "--delta", "0.2", "--s-prime", "30", "--trials", "4",
          "--seed", "21"],
         "wall_ns", "golden_learn_noisy_mitm_k3.csv"),
        (["learn-noiseless", "--n", "32", "--k", "4", "--t", "8",
          "--alpha", "3", "--trials", "3", "--seed", "22"],
         "wall_ns", "golden_learn_noiseless_k4.csv"),
        (["learn-noiseless", "--n", "64", "--k", "3", "--t", "12",
          "--alpha", "2", "--trials", "3", "--seed", "20", "--format", "json"],
         "wall_ns", "golden_learn_noiseless.json"),
        (["learn-noisy", "--n", "70", "--k", "2", "--eta", "0.05",
          "--delta", "0.2", "--s-prime", "30", "--trials", "4",
          "--seed", "23"],
         "wall_ns", "golden_learn_noisy_mitm_n70.csv"),
        (["learn-noisy", "--n", "24", "--k", "3", "--eta", "0.1",
          "--delta", "0.2", "--s-prime", "20", "--inner", "pac-online",
          "--t", "6", "--alpha", "2", "--trials", "3", "--seed", "29"],
         "wall_ns", "golden_learn_noisy_pac_online_k3.csv"),
    ],
)
def test_reports_match_golden_output(tmp_path, argv, wall_column, golden):
    """Reports stay byte-identical, wall clock aside, to the recorded ones.

    The first three files in tests/data were written by the
    local-coordinate chart learner this package shipped before charts
    moved to global coordinates; the weight-2 meet-in-the-middle report
    and the cover check were written by the two-table join that the
    syndrome map replaced, and the weight-3 report by the coordinate-split
    join that its pair table replaced; the weight-4 noiseless report was
    written by the chart layout that packed charts back to back, before
    they moved to one padded stride; the two-word (``n = 70``)
    meet-in-the-middle report was written while the primaries were still
    drawn one ``next_example`` call at a time; the weight-3 chart-learner
    report, at flip budget 3, was written while every replay still ran to
    its end, before horizons stopped the hopeless ones.  A report without
    a wall-clock column is compared whole; a JSON report drops it from
    every record.
    """
    code, text = run_cli(tmp_path, argv)
    assert code == 0
    expected = (GOLDEN_DIR / golden).read_text()
    if wall_column is not None and golden.endswith(".json"):
        records = json.loads(text)
        for record in records:
            del record[wall_column]
        text = json.dumps(records, indent=2) + "\n"
    elif wall_column is not None:
        text = strip_column(text, wall_column) + "\n"
    assert text == expected
