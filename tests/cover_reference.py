"""Exhaustive reference cover check, for equivalence tests.

This is the check the library shipped before :func:`verify_cover` moved
to part bitsets: it builds the mask of every k-subset of every drawn
subset, then looks up the mask of every k-subset of parts in lex order.
The library's check must return the same ``(verified, witness)`` pair.

:func:`reference_holders` is the loop that filled the part bitsets before
they were read off the family's incidence table: one OR of ``1 << index``
per (subset, part) pair.

:func:`reference_sample_family` and :func:`reference_incidence` are the
two passes the library made before :func:`sample_family` filled the
incidence table as it drew: the subsets first, one partial Fisher-Yates
shuffle per subset fed word by word from ``words`` blocks, then a row per
subset.  They are the oracle for the bulk sampler, which splits the word
stream with a regex and shuffles every subset at once in the lanes of an
int: it must give the same subsets and the same bytes.
"""

from __future__ import annotations

import itertools
import math

from sparseparity.cover import (
    _WORD_BLOCK,
    ENUMERATION_BUDGET,
    CoverFamily,
    CoverParams,
    family_size_m,
    round_robin_parts,
)
from sparseparity.errors import BudgetExceededError
from sparseparity.rng import SplitMix64


def reference_sample_family(params: CoverParams, rng_seed: int) -> CoverFamily:
    """The subsets alone: ``m`` block-fed partial Fisher-Yates draws."""
    T, ak = params.T, params.alpha * params.k
    words = itertools.chain.from_iterable(
        map(SplitMix64(rng_seed).words, itertools.repeat(_WORD_BLOCK))
    )
    # below(1) draws no word, so only the first T - 1 swaps draw.
    draws = min(ak, T - 1)
    masks = [(1 << (T - 1 - i).bit_length()) - 1 for i in range(draws)]
    subsets = []
    for _ in range(family_size_m(params)):
        pool = list(range(T))
        for i, mask in enumerate(masks):
            bound = T - i
            offset = next(words) & mask
            while offset >= bound:
                offset = next(words) & mask
            j = i + offset
            pool[i], pool[j] = pool[j], pool[i]
        subsets.append(tuple(sorted(pool[:ak])))
    return CoverFamily(
        params=params,
        parts=round_robin_parts(params.n, T),
        subsets=tuple(subsets),
        verified=False,
    )


def reference_incidence(family: CoverFamily) -> bytes:
    """Byte ``i * len(parts) + p`` is 1 when subset ``i`` holds part ``p``."""
    table = bytearray()
    for subset in family.subsets:
        row = bytearray(len(family.parts))
        for part in subset:
            row[part] = 1
        table += row
    return bytes(table)


def reference_holders(family: CoverFamily) -> list[int]:
    """``holders[p]`` has bit ``index`` set for each subset holding ``p``."""
    T = family.params.T
    holders = [0] * T
    for index, subset in enumerate(family.subsets):
        for part in subset:
            holders[part] |= 1 << index
    return holders


def reference_verify_cover(
    family: CoverFamily, budget: int = ENUMERATION_BUDGET
) -> tuple[CoverFamily, tuple[int, ...] | None]:
    """Exhaustively check coverage of every k-subset of parts.

    Returns ``(certified_family, None)`` on success, or the unchanged family
    with the lexicographically first uncovered k-subset as witness.
    """
    T, k = family.params.T, family.params.k
    total = math.comb(T, k)
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
