"""A frozen reference kernel that measures how fast the machine is right now.

The machine this benchmark was steadied on shares its cores with other
guests, and its speed drifts by up to 2x over minutes.  That drift reaches
across whole runs, so medians within a run cannot remove it.  The kernel
below is timed next to every trial, and ``solve_ref.*`` report each
trial's wall time in units of the kernel's time, which cancels most of
the drift.

The kernel imitates the chart learner's hot loop without calling the
library: it reduces a vector against the RREF-like rows of 600 small row
lists with big-integer masks and rebuilds each list, so the machine's
slow phases slow it about as much as they slow the library.  It must
never change: a change here changes every calibrated metric.
"""

from __future__ import annotations

import time

_MASK64 = (1 << 64) - 1
_LCG_MUL = 6364136223846793005
_LCG_ADD = 1442695040888963407
_REPEATS = 3


def _row_lists():
    x = 0x2545F4914F6CDD1D
    lists = []
    for _ in range(600):
        rows = []
        for i in range(10):
            x = (x * _LCG_MUL + _LCG_ADD) & _MASK64
            rows.append(((x >> 16) & 0xFFFFFF | 1 << (i + 24), x & 1))
        rows.sort(key=lambda row: row[0] & -row[0])
        lists.append(rows)
    return lists


_ROW_LISTS = _row_lists()


def kernel():
    x = 0x9E3779B97F4A7C15
    parity = 0
    for rows in _ROW_LISTS:
        x = (x * _LCG_MUL + _LCG_ADD) & _MASK64
        v, y = x >> 30, 0
        for m, r in rows:
            if v & (m & -m):
                v ^= m
                y ^= r
        pivot = v & -v
        rebuilt = [(m ^ v, r ^ y) if m & pivot else (m, r) for m, r in rows]
        parity ^= (v.bit_count() + len(rebuilt)) & 1
    return parity


def ref_ns():
    """Median of three timed kernel calls, in nanoseconds (about 3 ms each)."""
    times = []
    for _ in range(_REPEATS):
        start = time.perf_counter_ns()
        kernel()
        times.append(time.perf_counter_ns() - start)
    return sorted(times)[_REPEATS // 2]
