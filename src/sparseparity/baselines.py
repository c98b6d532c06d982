"""Reference learners: Gaussian elimination, explicit halving, meet-in-middle.

These are the yardsticks the chart learner is measured against:

* :func:`gauss_learn` solves the full n-column linear system — sample-hungry
  (needs rank n) but polynomial time, and ignores sparsity entirely.
* :class:`CandidateSet` materializes every weight-k parity and halves the
  survivor set by majority vote — few samples, C(n,k) space and time.
* :func:`mitm_learn` meets in the middle over a coordinate split: left-half
  support candidates are indexed by syndrome, right-half candidates probe
  the table, and matching pairs combine into consistent weight-k vectors.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

from .cover import binom
from .errors import BudgetExceededError, InconsistentStreamError
from .gf2 import AffineSpace, BitVector, dot, mitm_tables
from .online import Active, Identified, Status
from .sources import LabeledExample

DEFAULT_CANDIDATE_BUDGET = 10**6


# -- Gaussian elimination ------------------------------------------------


@dataclass(frozen=True)
class UniqueSolution:
    f: BitVector


@dataclass(frozen=True)
class Underdetermined:
    rank: int


@dataclass(frozen=True)
class Inconsistent:
    pass


GaussResult = UniqueSolution | Underdetermined | Inconsistent


def gauss_learn(examples: Sequence[LabeledExample]) -> GaussResult:
    """Solve the examples as one linear system over all n coordinates."""
    if not examples:
        return Underdetermined(rank=0)
    n = examples[0].a.n
    space = AffineSpace.full(n)
    for ex in examples:
        if ex.a.n != n:
            raise ValueError(f"mixed example lengths {n} and {ex.a.n}")
        space = space.constrain(ex.a, ex.label)
        if space.empty:
            return Inconsistent()
    if space.rank == n:
        return UniqueSolution(f=space.sole_point())
    return Underdetermined(rank=space.rank)


# -- explicit halving over weight-k candidates ---------------------------


class CandidateSet:
    """All weight-k vectors consistent with the examples fed so far."""

    def __init__(self, n: int, k: int, budget: int = DEFAULT_CANDIDATE_BUDGET):
        total = binom(n, k)
        if total > budget:
            raise BudgetExceededError(
                f"C({n},{k}) = {total} candidates exceed budget {budget}"
            )
        self.n = n
        self.k = k
        self.survivors: list[BitVector] = [
            BitVector.from_support(n, support)
            for support in itertools.combinations(range(n), k)
        ]
        self.mistakes = 0

    @property
    def mistake_bound(self) -> int:
        return math.ceil(math.log2(binom(self.n, self.k)))

    def step(self, a: BitVector, y: int) -> int:
        """One protocol round: predict, count the mistake, update.

        The prediction is the majority label over the survivors (ties
        predict 0); the survivors labelling ``a`` with ``y`` remain.
        """
        if not self.survivors:
            raise InconsistentStreamError("no surviving weight-k candidates")
        labels = [dot(a, f) for f in self.survivors]
        guess = 1 if 2 * sum(labels) > len(labels) else 0
        if guess != y:
            self.mistakes += 1
        self.survivors = [
            f for f, label in zip(self.survivors, labels) if label == y
        ]
        if not self.survivors:
            raise InconsistentStreamError(
                "every weight-k candidate is inconsistent with the stream"
            )
        return guess

    def status(self) -> Status:
        if len(self.survivors) == 1:
            return Identified(f=self.survivors[0])
        return Active(
            log2_mass_upper=(
                math.log2(len(self.survivors))
                if self.survivors
                else float("-inf")
            ),
            mistakes=self.mistakes,
        )

    def best_hypothesis(self) -> BitVector | None:
        return self.survivors[0] if self.survivors else None


# -- meet in the middle ---------------------------------------------------


def mitm_learn(
    examples: Sequence[LabeledExample], n: int, k: int
) -> list[BitVector]:
    """All weight-k vectors consistent with the examples.

    Coordinates are split into halves L and R.  For each split profile
    (j coordinates of the support in L, k-j in R) the left candidates are
    indexed by their syndrome — the column-XOR of the examples restricted
    to the candidate support — and right candidates probe with syndrome
    XOR labels.  Matches combine into full supports.  Enumerating every
    profile keeps the output identical to the brute-force filter; the
    balanced profile dominates the running time.
    """
    if k < 0 or k > n:
        return []
    left, right = mitm_tables([ex.a for ex in examples], n, k)
    labels = BitVector.from_bits(ex.label for ex in examples).value
    found: set[tuple[int, ...]] = set()
    for support, syndrome, r in right:
        for left_support in left.get((syndrome ^ labels, k - r), ()):
            found.add(left_support + support)
    return [
        BitVector.from_support(n, support) for support in sorted(found)
    ]
