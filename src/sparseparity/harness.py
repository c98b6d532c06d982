"""Command-line experiment runner.

Wires the example sources, the chart learner, the baselines, and the
noise reduction together, and emits machine-readable reports that place
empirical mistake/sample counts next to the exact and closed-form bounds
they are supposed to respect.  All randomness flows from a single
``--seed``: each trial draws its own sub-seed from a master stream, so
any row can be reproduced in isolation and identical invocations produce
identical reports up to wall-clock columns.

Exit codes: 0 on success, 1 on usage or parameter errors, 2 on I/O
errors while writing the report.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys
import time
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Sequence

from .cover import (
    CoverParams,
    binom,
    family_size_m,
    sample_family,
    verify_cover,
)
from .errors import (
    AllChartsEmptyError,
    BudgetExceededError,
    InconsistentStreamError,
    NoCandidatesError,
)
from .noisy import (
    DEFAULT_FLIP_SET_LIMIT,
    MitmInner,
    NoisyParams,
    flip_set_count,
    noisy_learn_report,
    PacOnlineInner,
)
from .online import Identified, LearnerState, new_learner
from .rng import SplitMix64
from .sources import UniformSource, gen_hidden

logger = logging.getLogger(__name__)

CSV_HEADER = (
    "seed",
    "n",
    "k",
    "t",
    "alpha",
    "eta",
    "delta",
    "mistakes",
    "samples",
    "identified",
    "exact_bound",
    "paper_bound",
    "wall_ns",
    "inner_invocations",
)

BENCH_HEADER = (
    "t",
    "m",
    "mean_samples",
    "mean_live_charts",
    "mean_round_wall_ns",
    "identified_frac",
)

DEFAULT_SAMPLE_BUDGET = 10_000


@dataclass(frozen=True)
class ExperimentConfig:
    """One parsed CLI invocation; optional fields are command-specific."""

    command: str
    seed: int
    trials: int
    fmt: str
    out: str | None
    n: int | None = None
    k: int | None = None
    t: int | None = None
    alpha: int | None = None
    eta: float | None = None
    delta: float | None = None
    s_prime: int | None = None
    inner: str | None = None
    sample_budget: int = DEFAULT_SAMPLE_BUDGET
    flip_set_limit: int = DEFAULT_FLIP_SET_LIMIT
    t_grid: tuple[int, ...] | None = None


@dataclass(frozen=True)
class RunRow:
    """One trial of a learn command; None means not applicable."""

    seed: int
    n: int
    k: int
    t: int | None
    alpha: int | None
    eta: float | None
    delta: float | None
    mistakes: int | None
    samples: int
    identified: bool
    exact_bound: int | None
    paper_bound: float | None
    wall_ns: int
    inner_invocations: int | None


@dataclass(frozen=True)
class RunReport:
    """The rows a learn command produced, with serializers."""

    rows: tuple[RunRow, ...]

    def to_csv(self) -> str:
        lines = [",".join(CSV_HEADER)]
        for row in self.rows:
            lines.append(
                ",".join(_csv_cell(getattr(row, name)) for name in CSV_HEADER)
            )
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        records = [
            {name: getattr(row, name) for name in CSV_HEADER}
            for row in self.rows
        ]
        return json.dumps(records, indent=2) + "\n"


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def closed_form_mistake_bound(n: int, k: int, t: int) -> float:
    """The closed-form target: k*n/t + log2 C(t,k)."""
    return k * n / t + math.log2(binom(t, k))


def _noiseless_trial(
    n: int, k: int, t: int, alpha: int, trial_seed: int, sample_budget: int
) -> tuple[RunRow, LearnerState]:
    """One chart-learner trial on an honest noiseless stream.

    A stream that kills every chart ends the trial with an
    ``identified=false`` row instead of raising.
    """
    trial_rng = SplitMix64(trial_seed)
    hidden = gen_hidden(n, k, trial_rng.next_u64())
    family_seed = trial_rng.next_u64()
    source = UniformSource(hidden, seed=trial_rng.next_u64(), eta=0.0)
    start = time.perf_counter_ns()
    state = new_learner(n, k, t, alpha, rng_seed=family_seed)
    samples = 0
    try:
        while samples < sample_budget and not isinstance(
            state.status(), Identified
        ):
            ex = source.next_example()
            samples += 1
            state.step(ex.a, ex.label)
    except AllChartsEmptyError as exc:
        logger.warning("trial %d not identified: %s", trial_seed, exc)
    wall_ns = time.perf_counter_ns() - start
    final = state.status()
    row = RunRow(
        seed=trial_seed,
        n=n,
        k=k,
        t=t,
        alpha=alpha,
        eta=0.0,
        delta=None,
        mistakes=state.mistakes,
        samples=samples,
        identified=isinstance(final, Identified) and final.f == hidden,
        exact_bound=state.mistake_bound,
        paper_bound=closed_form_mistake_bound(n, k, t),
        wall_ns=wall_ns,
        inner_invocations=None,
    )
    return row, state


def run_learn_noiseless(
    n: int,
    k: int,
    t: int,
    alpha: int,
    trials: int,
    seed: int,
    sample_budget: int = DEFAULT_SAMPLE_BUDGET,
) -> RunReport:
    """Run the chart learner on honest noiseless streams, one row per trial."""
    master = SplitMix64(seed)
    rows = [
        _noiseless_trial(n, k, t, alpha, master.next_u64(), sample_budget)[0]
        for _ in range(trials)
    ]
    return RunReport(rows=tuple(rows))


def run_learn_noisy(
    n: int,
    k: int,
    eta: float,
    delta: float,
    s_prime: int,
    trials: int,
    seed: int,
    inner: str = "mitm",
    t: int | None = None,
    alpha: int | None = None,
    flip_set_limit: int = DEFAULT_FLIP_SET_LIMIT,
) -> RunReport:
    """Run the flip-set reduction on noisy streams, one row per trial."""
    master = SplitMix64(seed)
    params = NoisyParams.from_counts(eta=eta, delta=delta, s_prime=s_prime)
    exact_bound = None
    paper_bound = None
    if inner == "mitm":
        inner_obj = MitmInner(n, k)
    elif inner == "pac-online":
        if t is None or alpha is None:
            raise ValueError("the pac-online inner needs --t and --alpha")
        inner_obj = PacOnlineInner(
            n, k, t=t, alpha=alpha, delta=delta / 2.0,
            rng_seed=master.next_u64(),
        )
        exact_bound = inner_obj.mistake_bound
        paper_bound = closed_form_mistake_bound(n, k, t)
    else:
        raise ValueError(f"unknown inner learner {inner!r}")
    rows = []
    for _ in range(trials):
        trial_seed = master.next_u64()
        trial_rng = SplitMix64(trial_seed)
        hidden = gen_hidden(n, k, trial_rng.next_u64())
        source = UniformSource(hidden, seed=trial_rng.next_u64(), eta=eta)
        start = time.perf_counter_ns()
        try:
            report = noisy_learn_report(
                inner_obj, source, params, flip_set_limit=flip_set_limit
            )
            identified = report.output == hidden
            invocations = report.inner_invocations
        except NoCandidatesError:
            identified = False
            invocations = flip_set_count(params.s_prime, params.flip_budget)
        wall_ns = time.perf_counter_ns() - start
        rows.append(
            RunRow(
                seed=trial_seed,
                n=n,
                k=k,
                t=t,
                alpha=alpha,
                eta=eta,
                delta=delta,
                mistakes=None,
                samples=source.draws,
                identified=identified,
                exact_bound=exact_bound,
                paper_bound=paper_bound,
                wall_ns=wall_ns,
                inner_invocations=invocations,
            )
        )
    return RunReport(rows=tuple(rows))


def run_cover_check(n: int, k: int, t: int, alpha: int, seed: int) -> dict:
    """Sample one covering family at the given seed and verify it."""
    params = CoverParams(n=n, k=k, t=t, alpha=alpha)
    family = sample_family(params, seed)
    checked, witness = verify_cover(family)
    if witness is not None:
        logger.info("cover check failed; uncovered part set %s", witness)
    return {
        "n": n,
        "k": k,
        "t": t,
        "alpha": alpha,
        "T": params.T,
        "m": family.m,
        "seed": seed,
        "verified": checked.verified,
        "parts": [list(part) for part in family.parts],
        "subsets": [list(subset) for subset in family.subsets],
    }


def bench_tradeoff(
    n: int,
    k: int,
    t_values: Sequence[int],
    alpha: int,
    trials: int,
    seed: int,
    sample_budget: int = DEFAULT_SAMPLE_BUDGET,
) -> list[dict]:
    """Sample-versus-time trade-off across a grid of t values.

    Shrinking t cuts the family size (and so per-round work) while
    raising the number of examples needed; the log-ratio of family sizes
    between consecutive grid points is logged for inspection.
    """
    master = SplitMix64(seed)
    table = []
    for t in t_values:
        params = CoverParams(n=n, k=k, t=t, alpha=alpha)
        m = family_size_m(params)
        samples_total = 0
        charts_total = 0
        wall_total = 0
        rounds_total = 0
        identified_count = 0
        for _ in range(trials):
            row, state = _noiseless_trial(
                n, k, t, alpha, master.next_u64(), sample_budget
            )
            wall_total += row.wall_ns
            identified_count += row.identified
            samples_total += row.samples
            charts_total += len(state.charts)
            rounds_total += state.rounds
        table.append(
            {
                "t": t,
                "m": m,
                "mean_samples": samples_total / trials,
                "mean_live_charts": charts_total / trials,
                "mean_round_wall_ns": wall_total / max(1, rounds_total),
                "identified_frac": identified_count / trials,
            }
        )
    for prev, cur in zip(table, table[1:]):
        if k > 0 and prev["m"] != cur["m"]:
            rate = math.log2(max(prev["m"], cur["m"]) / min(prev["m"], cur["m"])) / k
            logger.info(
                "family-size rate between t=%d and t=%d: log2(m ratio)/k = %.3f",
                prev["t"],
                cur["t"],
                rate,
            )
    return table


def _bench_csv(table: list[dict]) -> str:
    lines = [",".join(BENCH_HEADER)]
    for row in table:
        lines.append(",".join(_csv_cell(row[name]) for name in BENCH_HEADER))
    return "\n".join(lines) + "\n"


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the CLI contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _t_grid(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(",") if part)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"t grid must be comma-separated integers, got {text!r}"
        ) from exc
    if not values:
        raise argparse.ArgumentTypeError("t grid must be nonempty")
    return values


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0,
                        help="master seed; every trial sub-seed derives from it")
    common.add_argument("--trials", type=int, default=1,
                        help="number of independent trials")
    common.add_argument("--format", dest="fmt", choices=("csv", "json"),
                        default="csv", help="report format")
    common.add_argument("--out", default=None,
                        help="write the report here instead of stdout")

    parser = _Parser(
        prog="sparseparity",
        description="sparse-parity learning experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("learn-noiseless", parents=[common],
                       help="chart learner on honest noiseless streams")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--sample-budget", type=int, default=DEFAULT_SAMPLE_BUDGET)

    p = sub.add_parser("learn-noisy", parents=[common],
                       help="flip-set reduction on noisy streams")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--s-prime", type=int, required=True,
                   help="primary sample count (sets the flip budget)")
    p.add_argument("--inner", choices=("mitm", "pac-online"), default="mitm")
    p.add_argument("--t", type=int, default=None)
    p.add_argument("--alpha", type=int, default=None)
    p.add_argument("--flip-set-limit", type=int,
                   default=DEFAULT_FLIP_SET_LIMIT)

    p = sub.add_parser("cover-check", parents=[common],
                       help="sample a covering family and verify it")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--alpha", type=int, required=True)

    p = sub.add_parser("bench", parents=[common],
                       help="sample/time trade-off across a t grid")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--t-grid", type=_t_grid, required=True,
                   help="comma-separated t values, e.g. 12,6")
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--sample-budget", type=int, default=DEFAULT_SAMPLE_BUDGET)

    return parser


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    known = {f.name for f in fields(ExperimentConfig)}
    values = {k: v for k, v in vars(args).items() if k in known}
    return ExperimentConfig(**values)


def _render(cfg: ExperimentConfig) -> str:
    if cfg.command == "learn-noiseless":
        report = run_learn_noiseless(
            n=cfg.n, k=cfg.k, t=cfg.t, alpha=cfg.alpha,
            trials=cfg.trials, seed=cfg.seed,
            sample_budget=cfg.sample_budget,
        )
        return report.to_csv() if cfg.fmt == "csv" else report.to_json()
    if cfg.command == "learn-noisy":
        report = run_learn_noisy(
            n=cfg.n, k=cfg.k, eta=cfg.eta, delta=cfg.delta,
            s_prime=cfg.s_prime, trials=cfg.trials, seed=cfg.seed,
            inner=cfg.inner, t=cfg.t, alpha=cfg.alpha,
            flip_set_limit=cfg.flip_set_limit,
        )
        return report.to_csv() if cfg.fmt == "csv" else report.to_json()
    if cfg.command == "cover-check":
        result = run_cover_check(
            n=cfg.n, k=cfg.k, t=cfg.t, alpha=cfg.alpha, seed=cfg.seed
        )
        return json.dumps(result, indent=2) + "\n"
    if cfg.command == "bench":
        table = bench_tradeoff(
            n=cfg.n, k=cfg.k, t_values=cfg.t_grid, alpha=cfg.alpha,
            trials=cfg.trials, seed=cfg.seed,
            sample_budget=cfg.sample_budget,
        )
        if cfg.fmt == "csv":
            return _bench_csv(table)
        return json.dumps(table, indent=2) + "\n"
    raise ValueError(f"unknown command {cfg.command!r}")


def cli(argv: Sequence[str]) -> int:
    """Parse argv, run the experiment, write the report; returns exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    cfg = _config_from_args(args)
    if cfg.trials < 1:
        print("error: --trials must be at least 1", file=sys.stderr)
        return 1
    try:
        text = _render(cfg)
    except (ValueError, BudgetExceededError, InconsistentStreamError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        if cfg.out is None:
            sys.stdout.write(text)
        else:
            Path(cfg.out).write_text(text)
    except OSError as exc:
        print(f"error writing report: {exc}", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    logging.basicConfig(level=logging.WARNING)
    sys.exit(cli(sys.argv[1:]))
