"""Benchmark of the chart learner and both noisy reductions.

Usage, from the root of a checkout::

    python3 perfbench/run.py                      # all three workloads
    python3 perfbench/run.py --workload noisy-mitm --seed 3 --seconds 40
    python3 perfbench/run.py --workload noisy-charts --trace 1

A workload run sets up, then calls the library in a closed loop with one
caller until ``--seconds`` are used up, checks every trial's output, and
prints its metrics.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The exit code is 1 when a check or the pinned digest
fails, and 2 when the library cannot be found.  ``perfbench/README.md``
explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PINNED = HERE / "pinned.json"

DEFAULT_SEED = 1
DEFAULT_SECONDS = 40
SETUP_CHILDREN = 4
CHILD_TIMEOUT_S = 60

sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import metrics  # noqa: E402
import stats  # noqa: E402
from tracing import Tracer, instrumented  # noqa: E402
from workloads import WORKLOADS, load_library  # noqa: E402


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=("all",) + tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="workload seed; every trial's inputs derive from it")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="length of the measured loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting the per-layer metrics")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def digest(fields):
    text = json.dumps(fields, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Trial(NamedTuple):
    """One executed trial: its wall time, fields, failed checks, error."""

    wall_ns: int
    fields: dict
    problems: list
    error: str | None


def execute(wl, ctx, inputs, tracer=None, trial_id=None):
    """Run one trial, timing only the library call."""
    args = wl.args(ctx, inputs)
    error = out = None
    scope = instrumented(tracer, ctx.lib, ctx.inner) if tracer else nullcontext()
    with scope:
        if tracer:
            tracer.trial = trial_id
        start = time.perf_counter_ns()
        try:
            out = wl.call(ctx, args)
        except Exception:  # a raising trial is recorded, the loop goes on
            error = traceback.format_exc()
        wall_ns = time.perf_counter_ns() - start
        if tracer:
            tracer.trial = None
    if error is not None:
        return Trial(wall_ns, {"error": error.splitlines()[-1]}, ["raised"], error)
    fields, problems = wl.check(ctx, inputs, args, out)
    return Trial(wall_ns, fields, problems, None)


def setup(wl, seed):
    """Import the library and build the workload; returns (ctx, seconds)."""
    start = time.perf_counter()
    ctx = wl.setup(load_library(), seed)
    return ctx, time.perf_counter() - start


def child_setup_seconds(workload, seed):
    """Set-up time of a fresh process, as that process measures it."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def loop(wl, ctx, seconds, tracer=None):
    """Closed loop until the next trial would overrun ``seconds``.

    The reference kernel is timed before the first trial and after every
    untraced one, so ``refs[i]`` and ``refs[i + 1]`` bracket trial ``i``.
    With a tracer each trial runs twice on the same inputs, traced and
    then untraced, so both halves see the same mix of inputs and machine
    noise.  Returns (untraced trials, traced trials, refs, loop seconds).
    """
    plain, traced, refs = [], [], [calibrate.ref_ns()]
    start = time.perf_counter()
    i = 0
    while True:
        begun = time.perf_counter()
        inputs = wl.inputs(ctx, i)
        if tracer:
            traced.append(execute(wl, ctx, inputs, tracer, i))
        plain.append(execute(wl, ctx, inputs))
        refs.append(calibrate.ref_ns())
        i += 1
        now = time.perf_counter()
        if now - start + (now - begun) > seconds:
            return plain, traced, refs, now - start


def pinned_digests(workload, seed):
    if not PINNED.is_file():
        return []
    return json.loads(PINNED.read_text()).get(workload, {}).get(str(seed), [])


def verify(wl, seed, plain, traced):
    """Problems found across all trials, including the pinned digest."""
    problems = []
    for i, trial in enumerate(plain):
        problems += [f"trial {i}: {p}" for p in trial.problems]
        if trial.error:
            print(trial.error, file=sys.stderr)
    for i, (a, b) in enumerate(zip(plain, traced)):
        problems += [f"traced trial {i}: {p}" for p in b.problems]
        if a.fields != b.fields:
            problems.append(f"trial {i}: traced output differs from untraced")
    digests = [digest(t.fields) for t in plain]
    expected = pinned_digests(wl.name, seed)
    compared = min(len(expected), len(digests))
    for i in range(compared):
        if digests[i] != expected[i]:
            problems.append(
                f"trial {i}: digest {digests[i]} != pinned {expected[i]} "
                f"(fields {plain[i].fields})"
            )
    if expected:
        print(f"pinned digests: {compared} of {len(digests)} trials compared")
    else:
        print("pinned digests: none for this seed; digest printed only")
    run_digest = hashlib.sha256(",".join(digests).encode()).hexdigest()[:16]
    print(f"digest {run_digest}")
    print(f"trial_digests {wl.name} {seed} {','.join(digests)}")
    return problems


def end_to_end(wl, plain, refs, loop_s, setup_samples):
    """(result-line metrics, printed-only metrics) of an untraced run."""
    walls = [t.wall_ns / 1e9 for t in plain]
    ratios = [2 * t.wall_ns / (refs[i] + refs[i + 1]) for i, t in enumerate(plain)]
    ok = [t for t in plain if not t.error]
    ref_tail, percentile, count = stats.tail(ratios)
    print(f"solve_*.tail is p{percentile:.1f} of {count} trials "
          f"({stats.TAIL_BEYOND} beyond it)")
    print(f"setup_s is the median of {len(setup_samples)} set-ups: "
          + ", ".join(f"{s:.4f}" for s in setup_samples))
    values = {
        "solve_ref.p50": statistics.median(ratios),
        "solve_ref.tail": ref_tail,
        "setup_s": statistics.median(setup_samples),
        "samples_mean": _mean(t.fields["samples"] for t in ok),
        "identified_frac": sum(bool(t.fields.get("identified")) for t in plain)
        / len(plain),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    report = {
        "solve_s.p50": statistics.median(walls),
        "solve_s.tail": stats.tail(walls)[0],
        "trials_per_s": len(plain) / loop_s,
        "ref_ms": statistics.median(refs) / 1e6,
        "mistakes_mean": _mean(t.fields["mistakes"] for t in ok)
        if wl.has_mistakes else None,
        "error_frac": sum(bool(t.error) for t in plain) / len(plain),
    }
    return values, report


def _mean(values):
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def run_workload(opts):
    wl = WORKLOADS[opts.workload]
    sys.path.insert(0, str(SRC))
    ctx, own_setup = setup(wl, opts.seed)
    if opts.setup_only:
        print(json.dumps({"setup_s": own_setup}))
        return 0
    tracer = Tracer() if opts.trace else None
    setup_samples = [own_setup]
    if not tracer:
        setup_samples += [
            child_setup_seconds(wl.name, opts.seed) for _ in range(SETUP_CHILDREN)
        ]
    plain, traced, refs, loop_s = loop(wl, ctx, opts.seconds, tracer)
    print(f"workload {wl.name}  seed {opts.seed}  trials {len(plain)}  "
          f"loop {loop_s:.1f}s  trace {opts.trace}  (closed loop, 1 caller)")
    problems = verify(wl, opts.seed, plain, traced)
    failed = sum(bool(t.error) for t in plain + traced)
    if tracer:
        overhead = (
            statistics.median([t.wall_ns for t in traced])
            / statistics.median([t.wall_ns for t in plain]) - 1
        )
        walls = {i: t.wall_ns for i, t in enumerate(traced)}
        values = metrics.layer_metrics(tracer, walls, overhead)
        report = {}
        accounted = values["trace.accounted_frac"]
        if not 0.98 <= accounted <= 1.0 + 1e-9:
            problems.append(
                f"layer self times cover {accounted:.4f} of the trial wall time"
            )
        for name in sorted(tracer.missing):
            print(f"warning: boundary {name} not found; its metrics read 0",
                  file=sys.stderr)
        for name in sorted(tracer.broken_hooks):
            print(f"warning: counters of {name} could not be read; they read 0",
                  file=sys.stderr)
    else:
        values, report = end_to_end(wl, plain, refs, loop_s, setup_samples)
    spec = metrics.PER_LAYER if tracer else metrics.END_TO_END
    values = {name: values[name] for name, *_ in spec}
    for name, value in list(values.items()) + list(report.items()):
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:28s} {shown:>14s} {metrics.UNITS[name]}")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    correct = not problems and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": len(plain),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": metrics.UNITS[name]}
            for name, value in values.items()
        },
    }))
    return 0 if correct else 1


def run_all(opts):
    """Each workload in its own process, one after another."""
    status = 0
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(opts.seed), "--seconds", str(opts.seconds),
             "--trace", str(opts.trace)],
        )
        status = max(status, done.returncode)
    return status


def main(argv):
    opts = parse_args(argv)
    if not (SRC / "sparseparity" / "__init__.py").is_file():
        print(f"error: no library source at {SRC}", file=sys.stderr)
        return 2
    if opts.workload == "all":
        return run_all(opts)
    return run_workload(opts)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
