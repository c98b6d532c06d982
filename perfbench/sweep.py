"""Run the benchmark over several seeds and report the run-to-run spread.

    python3 perfbench/sweep.py --workload noisy-mitm --seeds 1-10 --out a.jsonl

Each run's result line and trial digests are appended to ``--out`` as one
JSON record.  The table gives, per workload and metric, the median, the
quartiles and the spread (interquartile range over median) next to the
metric's bound.  To measure a parent and a change, give one ``--root``
per checkout with one ``--out`` each; the sides alternate which runs
first from seed to seed.  ``--pin`` stores the trial digests of the first
side in ``perfbench/pinned.json`` for the equivalence check.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import stats  # noqa: E402
from run import DEFAULT_SECONDS, PINNED  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

RUN_TIMEOUT_S = 900


def seed_range(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(root, workload, seed, seconds, trace):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )
    lines = done.stdout.strip().splitlines()
    digests = []
    for line in lines:
        if line.startswith("trial_digests "):
            parts = line.split()
            digests = parts[3].split(",") if len(parts) > 3 else []
    if done.returncode not in (0, 1):
        sys.stderr.write(done.stderr)
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "returncode": done.returncode,
        "result": json.loads(lines[-1]) if done.returncode in (0, 1) else None,
        "digests": digests,
    }


def spread_table(records, bounds):
    rows = []
    groups = {}
    for rec in records:
        if rec["result"]:
            groups.setdefault(rec["workload"], []).append(rec["result"])
    for workload, results in groups.items():
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = stats.quartiles(values)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                flag = ("ok" if spread < bound / 3 else
                        "within" if spread <= bound else "WIDE")
            rows.append((workload, name, med, q1, q3, spread, bound, flag))
    return rows


def pin(records):
    table = json.loads(PINNED.read_text()) if PINNED.is_file() else {}
    for rec in records:
        slot = table.setdefault(rec["workload"], {})
        old = slot.get(str(rec["seed"]), [])
        new = rec["digests"]
        common = min(len(old), len(new))
        if old[:common] != new[:common]:
            raise SystemExit(
                f"{rec['workload']} seed {rec['seed']}: runs disagree on trial digests"
            )
        if len(new) > len(old):
            slot[str(rec["seed"])] = new
    PINNED.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=tuple(WORKLOADS),
                        help="repeatable; default: every workload")
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"),
                        help="inclusive range such as 1-10")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--root", action="append", type=Path,
                        help="checkout to run (repeatable); default: this one")
    parser.add_argument("--out", action="append", type=Path, required=True,
                        help="JSONL file per --root")
    parser.add_argument("--pin", action="store_true")
    opts = parser.parse_args(argv)
    roots = opts.root or [HERE.parent]
    if len(roots) != len(opts.out):
        parser.error("give one --out per --root")
    workloads = opts.workload or list(WORKLOADS)
    records = [[] for _ in roots]
    for seed in opts.seeds:
        for workload in workloads:
            order = list(range(len(roots)))
            if seed % 2:
                order.reverse()
            for side in order:
                rec = run_once(roots[side], workload, seed, opts.seconds, opts.trace)
                records[side].append(rec)
                with open(opts.out[side], "a") as fh:
                    fh.write(json.dumps(rec) + "\n")
                status = "ok" if rec["returncode"] == 0 else f"exit {rec['returncode']}"
                print(f"side {side} {workload} seed {seed}: {status}", flush=True)
    bounds = {name: bound for name, _u, _b, bound, _e in metrics.END_TO_END}
    for side, recs in enumerate(records):
        print(f"\nside {side}: {roots[side]}")
        print(f"{'workload':18s} {'metric':26s} {'median':>12s} {'q1':>12s} "
              f"{'q3':>12s} {'spread':>8s} {'bound':>6s}")
        for workload, name, med, q1, q3, spread, bound, flag in spread_table(recs, bounds):
            shown = "" if bound is None else f"{bound:.2f}"
            print(f"{workload:18s} {name:26s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.4f} {shown:>6s} {flag}")
    if opts.pin:
        pin(records[0])
    failed = [r for recs in records for r in recs if r["returncode"] != 0]
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
