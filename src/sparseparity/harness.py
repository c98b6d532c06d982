"""Command-line experiment runner.

Wires the example sources, the chart learner, the covering families and
the noise reduction together, and emits machine-readable reports that place
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
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Sequence

from .cover import (
    CoverParams,
    family_size_m,
    sample_family,
    verify_cover,
)
from .errors import AllChartsEmptyError, BudgetExceededError, NoCandidatesError
from .noisy import (
    DEFAULT_FLIP_SET_LIMIT,
    MitmInner,
    NoisyParams,
    flip_set_count,
    noisy_learn_report,
    PacOnlineInner,
)
from .online import LearnerState, new_learner
from .rng import SplitMix64
from .sources import UniformSource, gen_hidden

logger = logging.getLogger(__name__)

DEFAULT_SAMPLE_BUDGET = 10_000


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


CSV_HEADER = tuple(f.name for f in fields(RunRow))


@dataclass(frozen=True)
class RunReport:
    """The rows a learn command produced."""

    rows: tuple[RunRow, ...]


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _table(records: list[dict], fmt: str) -> str:
    """Records as CSV, headed by the first one's keys, or as indented JSON."""
    if fmt == "json":
        return json.dumps(records, indent=2) + "\n"
    lines = [",".join(records[0])]
    lines += [",".join(map(_csv_cell, record.values())) for record in records]
    return "\n".join(lines) + "\n"


def closed_form_mistake_bound(n: int, k: int, t: int) -> float:
    """The closed-form target: k*n/t + log2 C(t,k)."""
    return k * n / t + math.log2(math.comb(t, k))


def _noiseless_trial(
    n: int, k: int, t: int, alpha: int, trial_seed: int, sample_budget: int
) -> tuple[RunRow, LearnerState, int]:
    """One chart-learner trial on an honest noiseless stream.

    A stream that kills every chart ends the trial with an
    ``identified=false`` row instead of raising.  Also returns the
    nanoseconds of the rounds alone.
    """
    trial_rng = SplitMix64(trial_seed)
    hidden = gen_hidden(n, k, trial_rng.next_u64())
    family_seed = trial_rng.next_u64()
    source = UniformSource(hidden, seed=trial_rng.next_u64(), eta=0.0)
    start = time.perf_counter_ns()
    state = new_learner(n, k, t, alpha, rng_seed=family_seed)
    built = time.perf_counter_ns()
    samples = 0
    try:
        while samples < sample_budget and state.identified() is None:
            ex = source.next_example()
            samples += 1
            state.step(ex.a, ex.label)
    except AllChartsEmptyError as exc:
        logger.warning("trial %d not identified: %s", trial_seed, exc)
    end = time.perf_counter_ns()
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
        identified=state.identified() == hidden,
        exact_bound=state.mistake_bound,
        paper_bound=closed_form_mistake_bound(n, k, t),
        wall_ns=end - start,
        inner_invocations=None,
    )
    return row, state, end - built


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
        if t is not None or alpha is not None:
            raise ValueError("the mitm inner takes no --t or --alpha")
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
    raising the number of examples needed.  ``mean_round_wall_ns`` leaves
    learner construction out.
    """
    master = SplitMix64(seed)
    table = []
    for t in t_values:
        params = CoverParams(n=n, k=k, t=t, alpha=alpha)
        m = family_size_m(params)
        samples_total = 0
        charts_total = 0
        round_ns_total = 0
        rounds_total = 0
        identified_count = 0
        for _ in range(trials):
            row, state, round_ns = _noiseless_trial(
                n, k, t, alpha, master.next_u64(), sample_budget
            )
            round_ns_total += round_ns
            identified_count += row.identified
            samples_total += row.samples
            charts_total += state.live_charts
            rounds_total += state.rounds
        table.append(
            {
                "t": t,
                "m": m,
                "mean_samples": samples_total / trials,
                "mean_live_charts": charts_total / trials,
                "mean_round_wall_ns": round_ns_total / max(1, rounds_total),
                "identified_frac": identified_count / trials,
            }
        )
    return table


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the CLI contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _t_grid(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"t grid must be comma-separated integers, got {text!r}"
        ) from exc


def _int_at_least(low: int):
    """An argparse type for integers no smaller than ``low``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected an integer, got {text!r}"
            ) from None
        if value < low:
            raise argparse.ArgumentTypeError(
                f"must be at least {low}, got {value}"
            )
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0,
                        help="master seed; every trial sub-seed derives from it")
    common.add_argument("--trials", type=_int_at_least(1), default=1,
                        help="number of independent trials")
    common.add_argument("--format", dest="fmt", choices=("csv", "json"),
                        default="csv", help="report format")
    common.add_argument("--out", default=None,
                        help="write the report here instead of stdout")
    common.add_argument("--n", type=int, required=True)
    common.add_argument("--k", type=int, required=True)
    t = argparse.ArgumentParser(add_help=False)
    t.add_argument("--t", type=int, required=True)
    alpha = argparse.ArgumentParser(add_help=False)
    alpha.add_argument("--alpha", type=int, required=True)
    budget = argparse.ArgumentParser(add_help=False)
    budget.add_argument("--sample-budget", type=_int_at_least(0),
                        default=DEFAULT_SAMPLE_BUDGET)

    parser = _Parser(
        prog="sparseparity",
        description="sparse-parity learning experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("learn-noiseless", parents=[common, t, alpha, budget],
                   help="chart learner on honest noiseless streams")
    p = sub.add_parser("learn-noisy", parents=[common],
                       help="flip-set reduction on noisy streams")
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--s-prime", type=int, required=True,
                   help="primary sample count (sets the flip budget)")
    p.add_argument("--inner", choices=("mitm", "pac-online"), default="mitm")
    p.add_argument("--t", type=int, default=None)
    p.add_argument("--alpha", type=int, default=None)
    p.add_argument("--flip-set-limit", type=_int_at_least(0),
                   default=DEFAULT_FLIP_SET_LIMIT)
    sub.add_parser("cover-check", parents=[common, t, alpha],
                   help="sample a covering family and verify it")
    p = sub.add_parser("bench", parents=[common, alpha, budget],
                       help="sample/time trade-off across a t grid")
    p.add_argument("--t-grid", type=_t_grid, required=True,
                   help="comma-separated t values, e.g. 12,6")
    return parser


def _render(args: argparse.Namespace) -> str:
    if args.command == "cover-check":
        result = run_cover_check(
            n=args.n, k=args.k, t=args.t, alpha=args.alpha, seed=args.seed
        )
        return json.dumps(result, indent=2) + "\n"
    if args.command == "bench":
        return _table(bench_tradeoff(
            n=args.n, k=args.k, t_values=args.t_grid, alpha=args.alpha,
            trials=args.trials, seed=args.seed,
            sample_budget=args.sample_budget,
        ), args.fmt)
    if args.command == "learn-noiseless":
        report = run_learn_noiseless(
            n=args.n, k=args.k, t=args.t, alpha=args.alpha,
            trials=args.trials, seed=args.seed,
            sample_budget=args.sample_budget,
        )
    else:
        report = run_learn_noisy(
            n=args.n, k=args.k, eta=args.eta, delta=args.delta,
            s_prime=args.s_prime, trials=args.trials, seed=args.seed,
            inner=args.inner, t=args.t, alpha=args.alpha,
            flip_set_limit=args.flip_set_limit,
        )
    return _table([asdict(row) for row in report.rows], args.fmt)


def cli(argv: Sequence[str]) -> int:
    """Parse argv, run the experiment, write the report; returns exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        text = _render(args)
    except (ValueError, BudgetExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        if args.out is None:
            sys.stdout.write(text)
        else:
            Path(args.out).write_text(text)
    except OSError as exc:
        print(f"error writing report: {exc}", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    logging.basicConfig(level=logging.WARNING)
    sys.exit(cli(sys.argv[1:]))
