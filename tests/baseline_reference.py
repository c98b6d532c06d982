"""Exhaustive reference decoders for the meet-in-the-middle inner learner.

* :func:`brute_force_owners` and :func:`brute_force_candidates` decode
  syndromes by listing every weight-k vector, the oracle acceptance
  gate 5 holds ``MitmInner`` to.
* :func:`join_owners` builds the syndrome map by meeting left-half and
  right-half supports, the oracle for :func:`syndrome_owners`.
* :func:`weight_syndromes` lists every weight-k syndrome at once, the list
  the library decoded from before it walked the syndromes a chunk at a
  time; :func:`syndrome_owners` builds the same map from it, so checking
  that against :func:`join_owners` checks the list.
* :func:`list_candidates` is the list decode ``MitmInner.candidates`` ran
  on that list, the oracle for the chunked decode: it holds every weight-k
  syndrome and a flag per syndrome at once.
* :class:`MitmLookup` answers one stream by looking its labels up in that
  map, kept across relabelings, the flip-set loop's ``run`` for the
  meet-in-the-middle inner learner.
"""

from __future__ import annotations

import itertools
from collections import Counter
from operator import itemgetter, xor
from typing import Sequence

from sparseparity.gf2 import BitVector, transpose
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


# -- the list of every weight-k syndrome, and its decode -------------------


def weight_syndromes(columns: Sequence[int], k: int) -> list[int]:
    """The syndrome of every k-subset of ``columns``, in the order of
    ``itertools.combinations(range(len(columns)), k)``.

    The pair syndromes come from one ``starmap(xor, ...)`` over
    ``combinations(columns, 2)``.  In that lexicographic order the pairs
    whose smaller index exceeds j form one suffix, so each (k-2)-subset's
    syndrome is XORed onto the suffix past its last index with one
    ``map``: one XOR per support, all at C speed.
    """
    if k < 2:
        return [0] if k == 0 else list(columns)
    pairs = list(itertools.starmap(xor, itertools.combinations(columns, 2)))
    if k == 2:
        return pairs
    n = len(columns)
    lasts = map(itemgetter(-1), itertools.combinations(range(n), k - 2))
    syndromes: list[int] = []
    for prefix, last in zip(weight_syndromes(columns, k - 2), lasts):
        # (last + 1) * (2n - 2 - last) / 2 pairs have smaller index <= last
        tail = pairs[(last + 1) * (2 * n - 2 - last) // 2 :]
        syndromes.extend(map(xor, itertools.repeat(prefix, len(tail)), tail))
    return syndromes


def list_candidates(
    examples: Sequence[LabeledExample], n: int, k: int, flip_budget: int
) -> list[BitVector]:
    """``MitmInner(n, k).candidates(examples, flip_budget)`` from the whole
    list of weight-k syndromes.

    One pass over the list marks the syndromes within ``flip_budget`` of
    the labels, the marks pick them and their supports out, and a
    ``Counter`` over the near ones tells which are owned.  The owned ones
    are sorted by (|F|, indices of F).
    """
    rows = []
    for ex in examples:
        if ex.a.n != n:
            raise ValueError(f"example length {ex.a.n} != n={n}")
        rows.append(ex.a.value)
    labels = BitVector.from_bits(ex.label for ex in examples).value
    syndromes = weight_syndromes(transpose(rows, n), k)
    near = [(s ^ labels).bit_count() <= flip_budget for s in syndromes]
    hits = list(itertools.compress(syndromes, near))
    copies = Counter(hits)
    supports = itertools.compress(itertools.combinations(range(n), k), near)
    found = []
    for syndrome, support in zip(hits, supports):
        if copies[syndrome] == 1:
            flips = syndrome ^ labels
            flip_set = tuple(
                i for i in range(len(examples)) if (flips >> i) & 1
            )
            found.append((len(flip_set), flip_set, support))
    found.sort()
    return [BitVector.from_support(n, support) for _, _, support in found]


# -- syndrome lookup, one map per set of vectors --------------------------


def syndrome_owners(
    rows: Sequence[int], n: int, k: int
) -> dict[int, tuple[int, ...] | None]:
    """Every weight-k syndrome against the example vectors, with its owner.

    ``rows`` holds the vectors' packed values, each below ``2**n`` (one
    at or above raises ValueError).  A syndrome maps to its only weight-k
    support, or to None when two or more supports share it.  The columns
    come from :func:`~sparseparity.gf2.transpose`, :func:`weight_syndromes`
    lists every support's syndrome in the order of
    ``combinations(range(n), k)``, and zipping the two gives the map;
    only when the map came out shorter than the list does a ``Counter``
    pass mark the shared syndromes.  No labels are read, so the map
    serves every labeling of the same vectors.
    """
    syndromes = weight_syndromes(transpose(rows, n), k)
    owner: dict[int, tuple[int, ...] | None] = dict(
        zip(syndromes, itertools.combinations(range(n), k))
    )
    if len(owner) < len(syndromes):
        shared = Counter(syndromes)
        owner.update(dict.fromkeys(s for s, c in shared.items() if c > 1))
    return owner


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
