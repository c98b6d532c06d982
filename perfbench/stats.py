"""Order statistics and the parent-versus-change verdict rule.

Everything here is pure arithmetic on lists of numbers, so the tests can
pin it down without running a workload.
"""

from __future__ import annotations

import statistics

TAIL_BEYOND = 10
# A side wins when it beats the other in at least 9 of every 10 pairs.
WIN_NUM, WIN_DEN = 9, 10


def quartiles(values):
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail(values, beyond=TAIL_BEYOND):
    """The highest percentile with at least ``beyond`` samples above it.

    Returns ``(value, percentile, count)``.  With ``len(values) = n`` the
    value is the ``(n - beyond)``-th smallest sample, so exactly ``beyond``
    samples rank above it, and ``percentile`` is ``100 * (n - beyond) / n``.
    With ``n <= beyond`` no percentile qualifies; the minimum is returned
    with percentile 0 so that the caller still has a number to print.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= beyond:
        return ordered[0], 0.0, n
    rank = n - beyond
    return ordered[rank - 1], 100.0 * rank / n, n


def _better(a, b, direction):
    return a < b if direction == "lower" else a > b


def verdict(parent, change, direction, bound=None, exact=False):
    """Classify a change against its parent from paired runs.

    ``parent[i]`` and ``change[i]`` are one pair.  A gain or a loss needs
    at least nine tenths of all pairs (ties count for neither side) and a
    median difference larger than the parent's interquartile range.
    Otherwise, with a ``bound`` (a share of the parent's median), the
    change is ``unresolved`` when the parent's own spread is wider than
    the bound, unless every change run beats every parent run; else it is
    ``worse`` when its median is worse than the parent's by more than the
    bound, and ``unchanged`` when it is not.  Without a bound the
    change is ``unchanged`` when the medians differ by at most the
    parent's IQR.  ``exact`` metrics that repeat on every pair are
    ``unchanged`` outright.

    Returns ``(verdict, win_share)``.
    """
    pairs = list(zip(parent, change))
    if not pairs:
        raise ValueError("verdict needs at least one pair of runs")
    wins = sum(_better(c, p, direction) for p, c in pairs)
    losses = sum(_better(p, c, direction) for p, c in pairs)
    share = wins / len(pairs)
    if exact and all(p == c for p, c in pairs):
        return "unchanged", share
    q1, pm, q3 = quartiles(list(parent))
    cm = statistics.median(change)
    iqr = q3 - q1
    moved = abs(cm - pm) > iqr
    if WIN_DEN * wins >= WIN_NUM * len(pairs) and moved and _better(cm, pm, direction):
        return "improved", share
    if WIN_DEN * losses >= WIN_NUM * len(pairs) and moved and _better(pm, cm, direction):
        return "worse", share
    if bound is None:
        return ("unchanged" if not moved else "unresolved"), share
    dominates = all(
        _better(c, p, direction) for c in change for p in parent
    )
    if pm and iqr / abs(pm) > bound and not dominates:
        return "unresolved", share
    worse_by = (cm - pm) if direction == "lower" else (pm - cm)
    if pm and worse_by / abs(pm) > bound:
        return "worse", share
    return "unchanged", share
