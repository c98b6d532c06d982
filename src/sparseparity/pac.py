"""Conversion of a mistake-bound learner into a PAC learner.

For parities under the uniform distribution any two distinct hypotheses
disagree on half the examples, so the approximation parameter is
effectively 1/2: a hypothesis that survives ``ceil(log2((m+1)/delta))``
consecutive examples without a prediction mistake is correct with
probability at least ``1 - delta``, where ``m`` bounds the number of
distinct hypotheses the learner can move through (its mistake bound).

The driver is prediction-driven: the learner need not expose a point
hypothesis while active, so "the hypothesis survives" means "the
learner's predictions were all correct in the run".  Every example is
one ``step`` of the learner, which predicts, counts its own mistake and
updates, mistaken or not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BudgetExhaustedError, NotSingletonError
from .gf2 import BitVector
from .online import Identified

DEFAULT_SAMPLE_BUDGET = 10**6


@dataclass(frozen=True)
class PacParams:
    delta: float = 0.1
    sample_budget: int = DEFAULT_SAMPLE_BUDGET

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


def pac_learn(
    learner, source, params: PacParams, run_length: int = 0
) -> BitVector:
    """Run the online protocol over random examples until certified.

    Returns the identified vector, or the hypothesis extracted after a
    surviving run of ``survival_threshold`` examples.  Raises
    BudgetExhausted (carrying the best uncertified hypothesis) when the
    sample budget runs out first.  ``run_length`` resumes a stream midway:
    it is the learner's mistake-free run so far, and ``source`` and the
    budget cover the rest of the stream.
    """
    threshold = survival_threshold(learner.mistake_bound, params.delta)
    samples_used = 0
    while True:
        st = learner.status()
        if isinstance(st, Identified):
            return st.f
        if run_length >= threshold:
            return extract_hypothesis(learner)
        if samples_used >= params.sample_budget:
            raise BudgetExhaustedError(
                hypothesis=extract_hypothesis(learner),
                samples_used=samples_used,
            )
        ex = source.next_example()
        samples_used += 1
        if learner.step(ex.a, ex.label) == ex.label:
            run_length += 1
        else:
            run_length = 0


def extract_hypothesis(learner) -> BitVector:
    """The learner's canonical uncertified point hypothesis."""
    hypothesis = learner.best_hypothesis()
    if hypothesis is None:
        raise NotSingletonError("learner has no candidate hypothesis left")
    return hypothesis
