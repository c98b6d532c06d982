"""Exhaustive reference cover check, for equivalence tests.

This is the check the library shipped before :func:`verify_cover` moved
to part bitsets: it builds the mask of every k-subset of every drawn
subset, then looks up the mask of every k-subset of parts in lex order.
The library's check must return the same ``(verified, witness)`` pair.

:func:`reference_holders` is the loop that filled the part bitsets before
they were read off the family's incidence table: one OR of ``1 << index``
per (subset, part) pair.
"""

from __future__ import annotations

import itertools

from sparseparity.cover import (
    DEFAULT_ENUMERATION_BUDGET,
    CoverFamily,
    binom,
)
from sparseparity.errors import BudgetExceededError


def reference_holders(family: CoverFamily) -> list[int]:
    """``holders[p]`` has bit ``index`` set for each subset holding ``p``."""
    T = family.params.T
    holders = [0] * T
    for index, subset in enumerate(family.subsets):
        for part in subset:
            holders[part] |= 1 << index
    return holders


def reference_verify_cover(
    family: CoverFamily, budget: int = DEFAULT_ENUMERATION_BUDGET
) -> tuple[CoverFamily, tuple[int, ...] | None]:
    """Exhaustively check coverage of every k-subset of parts.

    Returns ``(certified_family, None)`` on success, or the unchanged family
    with the lexicographically first uncovered k-subset as witness.
    """
    T, k = family.params.T, family.params.k
    total = binom(T, k)
    if total > budget:
        raise BudgetExceededError(
            f"C(T={T}, k={k}) = {total} exceeds enumeration budget {budget}"
        )
    covered: set[int] = set()
    for subset in family.subsets:
        for combo in itertools.combinations(subset, k):
            mask = 0
            for i in combo:
                mask |= 1 << i
            covered.add(mask)
    for combo in itertools.combinations(range(T), k):
        mask = 0
        for i in combo:
            mask |= 1 << i
        if mask not in covered:
            return family, combo
    certified = CoverFamily(
        params=family.params,
        parts=family.parts,
        subsets=family.subsets,
        verified=True,
    )
    return certified, None
