"""Exhaustive reference decoders for the meet-in-the-middle inner learner.

* :func:`brute_force_owners` and :func:`brute_force_candidates` decode
  syndromes by listing every weight-k vector, the oracle acceptance
  gate 5 holds ``MitmInner`` to.
* :func:`join_owners` builds the same syndrome map by meeting left-half
  and right-half supports, the oracle for ``noisy.syndrome_owners``.
* :class:`MitmLookup` answers one stream by looking its labels up in the
  syndrome map of its vectors, kept across relabelings, the flip-set
  loop's ``run`` for the meet-in-the-middle inner learner.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from sparseparity.gf2 import BitVector
from sparseparity.noisy import syndrome_owners
from sparseparity.sources import LabeledExample

from bit_reference import dot


# -- brute-force syndrome decoding ----------------------------------------


def syndrome_of(examples: Sequence[LabeledExample], x: BitVector) -> int:
    """Bit i is <a_i, x>: the labels x would give the examples."""
    return sum(dot(ex.a, x) << i for i, ex in enumerate(examples))


def brute_force_owners(
    examples: Sequence[LabeledExample], n: int, k: int
) -> dict[int, BitVector]:
    """Each syndrome that exactly one weight-k vector has, with that vector.

    Every weight-k support is grouped by its syndrome; the syndromes two
    or more supports share are left out.
    """
    groups: dict[int, list[BitVector]] = {}
    for support in itertools.combinations(range(n), k):
        x = BitVector.from_support(n, support)
        groups.setdefault(syndrome_of(examples, x), []).append(x)
    return {s: xs[0] for s, xs in groups.items() if len(xs) == 1}


def brute_force_candidates(
    examples: Sequence[LabeledExample], n: int, k: int, flip_budget: int
) -> list[BitVector]:
    """The owned syndromes within Hamming distance ``flip_budget`` of the
    labels, ordered by (|F|, F) for the flip set F = syndrome XOR labels."""
    labels = sum(ex.label << i for i, ex in enumerate(examples))
    found = []
    for syndrome, x in brute_force_owners(examples, n, k).items():
        flips = syndrome ^ labels
        flip_set = tuple(i for i in range(len(examples)) if (flips >> i) & 1)
        if len(flip_set) <= flip_budget:
            found.append((len(flip_set), flip_set, x))
    found.sort(key=lambda entry: entry[:2])
    return [x for _, _, x in found]


def join_owners(
    vectors: Sequence[BitVector], n: int, k: int
) -> dict[int, tuple[int, ...] | None]:
    """Every weight-k syndrome against ``vectors``, with its owner: the
    coordinate-split join the library used before its pair table.

    The syndrome of a support has bit i set when ``vectors[i]`` has an odd
    number of ones on it.  A syndrome maps to its only weight-k support,
    or to None when two or more supports share it.  The supports meet in
    the middle of the coordinate split: for each j, the j-subsets of the
    left half ``range((n + 1) // 2)`` are grouped by syndrome and each
    (k-j)-subset of the right half is paired with every group, at one XOR
    per support.  No labels are read, so the map serves every labeling of
    the same vectors.
    """
    columns = [0] * n
    for i, v in enumerate(vectors):
        if v.n != n:
            raise ValueError(f"example length {v.n} != n={n}")
        bits = v.value
        for c in range(n):
            if (bits >> c) & 1:
                columns[c] |= 1 << i

    def subsets(coords, size):
        for support in itertools.combinations(coords, size):
            syndrome = 0
            for c in support:
                syndrome ^= columns[c]
            yield support, syndrome

    half = (n + 1) // 2
    owner: dict[int, tuple[int, ...] | None] = {}
    for j in range(k + 1):
        left: dict[int, list[tuple[int, ...]]] = {}
        for support, syndrome in subsets(range(half), j):
            left.setdefault(syndrome, []).append(support)
        right = list(subsets(range(half, n), k - j))
        for left_syndrome, left_supports in left.items():
            shared = len(left_supports) > 1
            for support, syndrome in right:
                syndrome ^= left_syndrome
                if shared or syndrome in owner:
                    owner[syndrome] = None
                else:
                    owner[syndrome] = left_supports[0] + support
    return owner


# -- syndrome lookup, one map per set of vectors --------------------------


class MitmLookup:
    """The only weight-k vector consistent with a stream, found by one
    lookup of its labels in the syndrome map of its vectors.

    The map does not read the labels, so it is kept with the tuple of
    vectors it was built for: the flip-set loop, which relabels the same
    vectors for every flip set, builds it once per stream instead of once
    per flip set.
    """

    def __init__(self, n: int, k: int):
        self.n = n
        self.k = k
        self._rows: tuple[int, ...] | None = None
        self._owners: dict[int, tuple[int, ...] | None] = {}

    def run(self, examples: Sequence[LabeledExample]) -> BitVector | None:
        for ex in examples:
            if ex.a.n != self.n:
                raise ValueError(f"example length {ex.a.n} != n={self.n}")
        rows = tuple(ex.a.value for ex in examples)
        if rows != self._rows:
            self._owners = syndrome_owners(rows, self.n, self.k)
            self._rows = rows
        labels = sum(ex.label << i for i, ex in enumerate(examples))
        support = self._owners.get(labels)
        if support is None:
            return None
        return BitVector.from_support(self.n, support)
