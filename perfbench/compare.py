"""Compare two sets of benchmark runs, such as a parent and a change.

    python3 perfbench/compare.py parent.jsonl change.jsonl

Both files hold records written by ``sweep.py``.  Runs pair up by
workload and seed (by order where the seeds differ).  For each workload
and metric the table gives each side's median and quartiles, the share
of pairs the change wins, and the verdict of :func:`stats.verdict`:
``improved``, ``worse``, ``unchanged`` or ``unresolved``.  Exact counts
are ``unchanged`` only when every pair repeats them exactly.  The exit
code is 1 when any verdict is ``worse``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import metrics  # noqa: E402
import stats  # noqa: E402

SPEC = {name: (better, bound, exact) for name, _u, better, bound, exact in metrics.END_TO_END}
SPEC.update({name: (better, None, exact) for name, _u, better, exact in metrics.PER_LAYER})


def load(path):
    """{(workload, trace): {seed: metrics}} from a sweep file."""
    runs = {}
    for line in Path(path).read_text().splitlines():
        rec = json.loads(line)
        if rec.get("result"):
            key = (rec["workload"], rec["trace"])
            runs.setdefault(key, {})[rec["seed"]] = rec["result"]["metrics"]
    return runs


def pairs(parent, change):
    common = sorted(set(parent) & set(change))
    if common:
        return [parent[s] for s in common], [change[s] for s in common]
    n = min(len(parent), len(change))
    return list(parent.values())[:n], list(change.values())[:n]


def compare(parent_runs, change_runs):
    """Rows of (workload, metric, parent quartiles, change quartiles, share, verdict)."""
    rows = []
    for key in sorted(set(parent_runs) & set(change_runs)):
        before, after = pairs(parent_runs[key], change_runs[key])
        if not before:
            continue
        for name in before[0]:
            if name not in SPEC or name not in after[0]:
                continue
            better, bound, exact = SPEC[name]
            p = [m[name]["value"] for m in before]
            c = [m[name]["value"] for m in after]
            verdict, share = stats.verdict(p, c, better, bound=bound, exact=exact)
            rows.append((key[0], name, stats.quartiles(p), stats.quartiles(c),
                         share, verdict))
    return rows


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    rows = compare(load(argv[0]), load(argv[1]))
    print(f"{'workload':18s} {'metric':26s} {'parent q1/med/q3':>36s} "
          f"{'change q1/med/q3':>36s} {'wins':>5s}  verdict")
    for workload, name, p, c, share, verdict in rows:
        p, c = ("/".join(f"{v:.5g}" for v in q) for q in (p, c))
        print(f"{workload:18s} {name:26s} {p:>36s} {c:>36s} {share:5.2f}  {verdict}")
    return 1 if any(row[-1] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
