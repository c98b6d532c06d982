"""Exhaustive reference cover check, for equivalence tests.

This is the check the library shipped before :func:`verify_cover` moved
to part bitsets: it builds the mask of every k-subset of every drawn
subset, then looks up the mask of every k-subset of parts in lex order.
The library's check must return the same ``(verified, witness)`` pair.
"""

from __future__ import annotations

import itertools

from sparseparity.cover import (
    DEFAULT_ENUMERATION_BUDGET,
    CoverFamily,
    binom,
)
from sparseparity.errors import BudgetExceededError


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
