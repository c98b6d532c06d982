#!/usr/bin/env python3
"""Mutation testing of the library's learners and their kernels.

``MODULES`` names every module a test oracle can reach: ``online``,
``cover``, ``noisy``, ``sources``, ``rng``, ``gf2`` and ``pac``.  The CLI
harness and the exception module stay out.

Each mutant changes one site of a module, found with ``ast``:

- an operator swapped: ``&``/``|``/``^``, ``+``/``-`` and ``<<``/``>>``, in
  expressions and augmented assignments;
- a comparison swapped: ``<``/``<=``, ``>``/``>=`` and ``==``/``!=``;
- an int constant moved by one, up and down;
- one statement dropped (replaced by ``pass``).

Annotations and docstrings are skipped.  Every mutant runs against tier-1
with ``-x`` in a copy of the repository under ``TMPDIR``, never in the
checkout.  The mutated module's own test file runs first, then the other
test files, fastest first.  The child run logs each test as it starts,
and a run whose log has not grown for ``TEST_TIMEOUT`` seconds is killed
from outside: the test it had started last is the killer.  So a mutant
that hangs counts as killed, even where an exception raised inside the
test could not stop it (hypothesis catches one and replays the example),
and so does one that runs a test out of ``MEMORY`` bytes of address
space.

``--retire NODEID`` names a test or suite that might go.  It is left out
of the run above, and each mutant that the rest of tier-1 leaves alive is
run against it alone.  A retired suite may go only if it kills none of
those mutants: then every mutant it kills has a kept killer in the table.

The kill table, ``TABLE``, lists each mutant, by its index in ``sites``
of its module, with its verdict (``killed``, ``survived`` or
``equivalent``) and the first kept test that failed, or the test file that
no longer imports.
A survivor judged equivalent is marked by hand in the table, as
``"verdict": "equivalent"`` with a ``"reason"``; a later run against an
unchanged module keeps the mark while that mutant still survives.  Every
run runs every mutant: a kill taken over from an earlier table could
stand for a test that has since been edited.

Run from the repository root.  A survivor costs a run of all of tier-1
and one more run per retired suite, so the time goes with the survivors:
on a shared 2-core VM, a run of the seven modules with fifteen suites
under ``--retire`` took about three hours (1 984 sites, 122 survivors).

    python scripts/mutate.py \\
        --retire tests/test_online.py::TestChartReferenceEquivalence

``--list`` prints the sites without running anything.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import json
import os
import queue
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
MODULES = tuple(f"src/sparseparity/{name}.py" for name in (
    "online", "cover", "noisy", "sources", "rng", "gf2", "pac"))
TABLE = ROOT / "MUTATION_oracles.json"
# The slowest clean test takes about 15 s on a shared 2-core VM.
TEST_TIMEOUT = 60
MEMORY = 2 << 30

_SYMBOLS = {
    ast.BitAnd: "&", ast.BitOr: "|", ast.BitXor: "^",
    ast.Add: "+", ast.Sub: "-", ast.LShift: "<<", ast.RShift: ">>",
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=",
    ast.Eq: "==", ast.NotEq: "!=",
}
_SWAPS = {
    ast.BitAnd: (ast.BitOr, ast.BitXor),
    ast.BitOr: (ast.BitAnd, ast.BitXor),
    ast.BitXor: (ast.BitAnd, ast.BitOr),
    ast.Add: (ast.Sub,), ast.Sub: (ast.Add,),
    ast.LShift: (ast.RShift,), ast.RShift: (ast.LShift,),
    ast.Lt: (ast.LtE,), ast.LtE: (ast.Lt,),
    ast.Gt: (ast.GtE,), ast.GtE: (ast.Gt,),
    ast.Eq: (ast.NotEq,), ast.NotEq: (ast.Eq,),
}


class Site(NamedTuple):
    """One mutation: where it is in the original source, and what it does."""

    line: int
    col: int
    mutation: str


def _is_docstring(node: ast.AST, owner: ast.AST, index: int) -> bool:
    return (
        index == 0
        and isinstance(owner, (ast.Module, ast.ClassDef, ast.FunctionDef,
                               ast.AsyncFunctionDef))
        and isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def _walk(node: ast.AST):
    """``node`` and its descendants in field order, without annotations
    or docstrings."""
    yield node
    for name, value in ast.iter_fields(node):
        if name in ("annotation", "returns"):
            continue
        children = value if isinstance(value, list) else [value]
        for i, child in enumerate(children):
            if (isinstance(child, ast.AST)
                    and not _is_docstring(child, node, i)):
                yield from _walk(child)


def _edits(tree: ast.Module):
    """Each site of ``tree`` with the function that applies it in place."""
    for node in _walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)):
            op = type(node.op)
            for new in _SWAPS.get(op, ()):
                yield (
                    Site(node.lineno, node.col_offset,
                         f"{_SYMBOLS[op]} -> {_SYMBOLS[new]}"),
                    lambda node=node, new=new: setattr(node, "op", new()),
                )
        elif isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                for new in _SWAPS.get(type(op), ()):
                    yield (
                        Site(node.lineno, node.col_offset,
                             f"{_SYMBOLS[type(op)]} -> {_SYMBOLS[new]}"),
                        lambda ops=node.ops, i=i, new=new:
                            ops.__setitem__(i, new()),
                    )
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            for step in (1, -1):
                yield (
                    Site(node.lineno, node.col_offset,
                         f"{node.value} -> {node.value + step}"),
                    lambda node=node, step=step:
                        setattr(node, "value", node.value + step),
                )
        for name, value in ast.iter_fields(node):
            if not (isinstance(value, list) and value
                    and isinstance(value[0], ast.stmt)):
                continue
            for i, stmt in enumerate(value):
                if _is_docstring(stmt, node, i):
                    continue
                text = ast.unparse(stmt).splitlines()[0][:60]
                yield (
                    Site(stmt.lineno, stmt.col_offset, f"drop: {text}"),
                    lambda body=value, i=i: body.__setitem__(i, ast.Pass()),
                )


def sites(source: str) -> list[Site]:
    """Every mutation site of ``source``, in a fixed order."""
    return [site for site, _ in _edits(ast.parse(source))]


def mutant(source: str, index: int) -> str:
    """``source`` with site ``index`` applied."""
    tree = ast.parse(source)
    edits = list(_edits(tree))
    edits[index][1]()
    return ast.unparse(tree)


# -- pytest plugin, loaded in the child runs with ``-p mutate`` ------------

def _log(nodeid: str, outcome: str, duration: float) -> None:
    with open(os.environ["MUTATE_REPORT"], "a") as f:
        f.write(json.dumps([nodeid, outcome, duration]) + "\n")


def pytest_runtest_logstart(nodeid, location):
    _log(nodeid, "started", 0.0)


def pytest_runtest_logreport(report):
    _log(report.nodeid, report.outcome, report.duration)


def pytest_collectreport(report):
    if report.failed:
        _log(report.nodeid or "<collection>", "failed", 0.0)


# -- driver ---------------------------------------------------------------

class Runner:
    """Runs pytest in one copy of the repository per worker."""

    def __init__(self, workdir: Path, workers: int):
        self.copies: queue.Queue[Path] = queue.Queue()
        for i in range(workers):
            copy = workdir / f"copy{i}"
            shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
                ".git", ".hypothesis", ".pytest_cache", "__pycache__",
                ".benchmarks", "*.egg-info",
            ))
            self.copies.put(copy)

    @staticmethod
    def pytest(copy: Path, args: list[str]) -> tuple[str | None, list]:
        """Run pytest in ``copy``; the first failure's node id (None when
        everything passed) and every logged report.  A run whose report
        has not grown for ``TEST_TIMEOUT`` seconds is killed, and the
        test it had started last is the failure."""
        report = copy / "mutate_report.jsonl"
        report.unlink(missing_ok=True)
        shutil.rmtree(copy / ".hypothesis", ignore_errors=True)
        env = dict(
            os.environ,
            PYTHONPATH=f"{copy / 'src'}{os.pathsep}{copy / 'scripts'}",
            PYTHONDONTWRITEBYTECODE="1",
            OPENBLAS_NUM_THREADS="1",
            MUTATE_REPORT=str(report),
        )
        command = [
            sys.executable, "-m", "pytest", "-x", "-q", "-p", "mutate",
            "-p", "no:cacheprovider", "--hypothesis-seed=0", *args,
        ]
        proc = subprocess.Popen(
            command, cwd=copy, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        size, grown = 0, time.monotonic()
        while True:
            try:
                returncode = proc.wait(timeout=1)
                break
            except subprocess.TimeoutExpired:
                pass
            if report.exists() and report.stat().st_size != size:
                size, grown = report.stat().st_size, time.monotonic()
            elif time.monotonic() - grown > TEST_TIMEOUT:
                proc.kill()
                proc.wait()
                returncode = None
                break
        logged = []
        if report.exists():
            logged = [json.loads(line)
                      for line in report.read_text().splitlines()]
        if returncode is None:
            started = [nodeid for nodeid, outcome, _ in logged
                       if outcome == "started"]
            return (started[-1] if started else "<timeout>"), logged
        if returncode == 0:
            return None, logged
        failed = [nodeid for nodeid, outcome, _ in logged
                  if outcome == "failed"]
        return (failed[0] if failed else f"<exit {returncode}>"), logged


def _test_order(logged: list, own: str) -> list[str]:
    """Test files with ``own`` in front, the rest fastest first."""
    seconds: dict[str, float] = {}
    for nodeid, _, duration in logged:
        path = nodeid.split("::")[0]
        seconds[path] = seconds.get(path, 0.0) + duration
    rest = sorted(set(seconds) - {own}, key=lambda p: (seconds[p], p))
    return [own, *rest] if own in seconds else rest


def _key(row: dict) -> tuple:
    return row["site"], row["index"], row["col"], row["mutation"]


def run(args) -> dict:
    sources = {module: (ROOT / module).read_text() for module in MODULES}
    digests = {
        module: hashlib.sha256(text.encode()).hexdigest()
        for module, text in sources.items()
    }
    # Site indices are stable while the module is; so are the marks.
    reasons = {}
    if TABLE.exists():
        table = json.loads(TABLE.read_text())
        for row in table["mutants"]:
            module = row["site"].rpartition(":")[0]
            if ("reason" in row
                    and table["sources"].get(module) == digests[module]):
                reasons[_key(row)] = row["reason"]
    deselect = [f"--deselect={nodeid}" for nodeid in args.retire]
    with tempfile.TemporaryDirectory(prefix="mutate-") as workdir:
        runner = Runner(Path(workdir), args.workers)
        # The pytest runs inherit the limit, so a mutant cannot eat the box.
        resource.setrlimit(resource.RLIMIT_AS, (MEMORY, MEMORY))

        copy = runner.copies.get()
        start = time.monotonic()
        failed, logged = runner.pytest(copy, [*deselect, "tests"])
        clean_s = time.monotonic() - start
        for nodeid in args.retire:
            failed = failed or runner.pytest(copy, [nodeid])[0]
        runner.copies.put(copy)
        if failed is not None:
            raise SystemExit(f"the unmutated tree fails at {failed}")
        print(f"clean run: {len(logged)} reports in {clean_s:.1f} s",
              file=sys.stderr)

        jobs = []
        for module, source in sources.items():
            own = f"tests/test_{Path(module).stem}.py"
            order = _test_order(logged, own)
            jobs += [
                (module, source, i, site, order)
                for i, site in enumerate(sites(source))
            ]

        def one(job):
            module, source, index, site, order = job
            row = {
                "site": f"{module}:{site.line}",
                "index": index,
                "col": site.col,
                "mutation": site.mutation,
            }
            copy = runner.copies.get()
            target = copy / module
            try:
                target.write_text(mutant(source, index))
                killer, _ = runner.pytest(copy, [*deselect, *order])
                retired = []
                if killer is None:
                    for nodeid in args.retire:
                        if runner.pytest(copy, [nodeid])[0] is not None:
                            retired.append(nodeid)
            finally:
                target.write_text(source)
                runner.copies.put(copy)
            row.update(verdict="killed" if killer else "survived",
                       killer=killer)
            if killer is None:
                row["retired_killers"] = retired
                reason = reasons.get(_key(row))
                if reason and not retired:
                    row.update(verdict="equivalent", reason=reason)
            print(f"{row['site']} #{index} {site.mutation}: {row['verdict']}"
                  f" {killer or retired}", file=sys.stderr)
            return row

        with ThreadPoolExecutor(args.workers) as pool:
            rows = list(pool.map(one, jobs))

    summary = {}
    for module in MODULES:
        own = [r for r in rows if r["site"].startswith(module + ":")]
        summary[module] = {
            verdict: sum(r["verdict"] == verdict for r in own)
            for verdict in ("killed", "equivalent", "survived")
        }
        summary[module]["mutants"] = len(own)
    retire = {
        nodeid: [f"{r['site']} {r['mutation']}" for r in rows
                 if nodeid in r.get("retired_killers", ())]
        for nodeid in args.retire
    }
    return {
        "command": "python scripts/mutate.py " + " ".join(sys.argv[1:]),
        "clean_run_s": round(clean_s, 1),
        "sources": digests,
        "summary": summary,
        "uniquely_killed_by_retired": retire,
        "mutants": rows,
    }


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--retire", action="append", default=[],
                        help="test node id that might go; see the docstring")
    parser.add_argument("--workers", type=int, default=2,
                        help="pytest runs at once, one repository copy each")
    parser.add_argument("--list", action="store_true",
                        help="print the sites and exit")
    args = parser.parse_args(argv)
    if args.list:
        for module in MODULES:
            for i, site in enumerate(sites((ROOT / module).read_text())):
                print(f"{module}:{site.line}:{site.col} #{i} {site.mutation}")
        return
    table = run(args)
    TABLE.write_text(json.dumps(table, indent=1) + "\n")


if __name__ == "__main__":
    main()
