"""Conversion of a mistake-bound learner into a PAC learner.

For parities under the uniform distribution any two distinct hypotheses
disagree on half the examples, so the approximation parameter is
effectively 1/2: a hypothesis that survives ``ceil(log2((m+1)/delta))``
consecutive examples without a prediction mistake is correct with
probability at least ``1 - delta``, where ``m`` bounds the number of
distinct hypotheses the learner can move through (its mistake bound).

The driver is prediction-driven: the learner need not expose a point
hypothesis while active, so "the hypothesis survives" means "the
learner's predictions were all correct in the run".  A learner offers
five members: ``step(a, y)`` predicts, counts its own mistake and
updates, mistaken or not; ``run_length`` is the number of rounds since
its last mistake, which ``step`` restarts at 0 on a mistake and grows by
1 otherwise; ``identified()`` is the pinned vector or None;
``best_hypothesis()`` is its uncertified point; ``mistake_bound`` sizes
the survival run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BudgetExhaustedError, NotSingletonError
from .gf2 import BitVector


@dataclass(frozen=True)
class PacParams:
    delta: float
    sample_budget: int

    def __post_init__(self):
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must be in (0, 1), got {self.delta}")
        if self.sample_budget < 0:
            raise ValueError("sample budget must be nonnegative")


def survival_threshold(mistake_bound: int, delta: float) -> int:
    """Mistake-free run length certifying correctness at confidence 1-delta.

    Union bound over the at most ``mistake_bound + 1`` hypotheses the
    learner can hold, each surviving one disagreeing example with
    probability 1/2.
    """
    return max(1, math.ceil(math.log2((mistake_bound + 1) / delta)))


def pac_learn(learner, source, params: PacParams) -> BitVector:
    """Run the online protocol over random examples until certified.

    Returns the identified vector, or the hypothesis extracted once the
    learner's ``run_length`` reaches ``survival_threshold``.  Raises
    BudgetExhaustedError when the sample budget runs out first.  A
    learner that has already stepped continues its run: ``source`` and
    the budget cover the rest of its stream.
    """
    threshold = survival_threshold(learner.mistake_bound, params.delta)
    samples_used = 0
    while True:
        found = learner.identified()
        if found is not None:
            return found
        if learner.run_length >= threshold:
            return extract_hypothesis(learner)
        if samples_used >= params.sample_budget:
            raise BudgetExhaustedError(samples_used)
        ex = source.next_example()
        samples_used += 1
        learner.step(ex.a, ex.label)


def extract_hypothesis(learner) -> BitVector:
    """The learner's canonical uncertified point hypothesis."""
    hypothesis = learner.best_hypothesis()
    if hypothesis is None:
        raise NotSingletonError("learner has no candidate hypothesis left")
    return hypothesis
