"""Noise-tolerant learning by mislabel-set enumeration over a noiseless core.

Labels arrive flipped independently with rate ``eta < 1/3``.  The driver
draws ``s_prime`` examples and guesses which of them were mislabeled: every
flip set of up to ``floor(3*eta*s_prime/2)`` indices, un-flipped, gives a
repaired stream for a noiseless inner learner.  Every distinct hypothesis
the inner learner produces becomes a candidate; fresh verification
examples then pick the candidate with the best agreement.  The flip budget
covers the actual mislabel count with high probability, so the true vector
is always among the candidates, and the verification margin separates it
from impostors.

An inner learner hands over its candidates through
``candidates(primary, flip_budget)``: the distinct non-None outputs of its
``run`` over the repaired streams of all flip sets, each at its first
occurrence with flip sets taken by size, then lexicographically.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .cover import CoverFamily, CoverParams, binom, build_family
from .errors import (
    BudgetExceededError,
    BudgetExhaustedError,
    InconsistentStreamError,
    LengthMismatchError,
    NoCandidatesError,
    SourceExhaustedError,
)
from .gf2 import BitVector, mitm_tables
from .online import LearnerState
from .pac import PacParams, pac_learn, survival_threshold
from .sources import LabeledExample, ReplaySource

logger = logging.getLogger(__name__)

DEFAULT_FLIP_SET_LIMIT = 10**7


def entropy(p: float) -> float:
    """Binary entropy H(p) in bits, with H(0) = H(1) = 0 by continuity."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"entropy argument must be in [0, 1], got {p}")
    if p == 0.0 or p == 1.0:
        return 0.0
    # -p*log2(p) stays finite even for subnormal p, unlike p*log2(1/p)
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def flip_budget_for(eta: float, s_prime: int) -> int:
    """floor(3/2 * eta * s_prime), computed exactly from the given eta."""
    return int(Fraction(3, 2) * Fraction(eta) * s_prime)


def flip_set_count(s_prime: int, flip_budget: int) -> int:
    """Number of index subsets of size at most the budget, exactly."""
    return sum(binom(s_prime, i) for i in range(flip_budget + 1))


@dataclass(frozen=True)
class NoisyParams:
    """Sample counts for one noisy-learning run.

    ``flip_budget`` is always ``floor(3/2 * eta * s_prime)``; the named
    constructors differ only in where ``s_prime`` comes from.
    """

    eta: float
    delta: float
    s_prime: int
    s_doubleprime: int
    flip_budget: int

    def __post_init__(self):
        if not 0.0 < self.eta < 1.0 / 3.0:
            raise ValueError(f"noise rate must be in (0, 1/3), got {self.eta}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must be in (0, 1), got {self.delta}")
        if self.s_prime < 1 or self.s_doubleprime < 1:
            raise ValueError("sample counts must be positive")
        if self.flip_budget != flip_budget_for(self.eta, self.s_prime):
            raise ValueError(
                "flip budget must equal floor(3/2 * eta * s_prime)"
            )

    @staticmethod
    def verification_count(eta: float, delta: float, s_prime: int) -> int:
        """ceil(600 * (s_prime * H(3 eta / 2) + log2(8 / delta)))."""
        return math.ceil(
            600 * (s_prime * entropy(1.5 * eta) + math.log2(8.0 / delta))
        )

    @classmethod
    def from_inner(cls, inner, eta: float, delta: float) -> "NoisyParams":
        """Size the run from the inner learner's declared sample complexity.

        ``s_prime = ceil(20 * s(delta/2) * log2(1/delta))``.  Exhaustively
        enumerating the flip sets this implies is usually far beyond desk
        scale; see :meth:`from_counts` for explicitly sized runs.
        """
        s_inner = inner.sample_complexity(delta / 2.0)
        s_prime = math.ceil(20 * s_inner * math.log2(1.0 / delta))
        return cls.from_counts(eta, delta, s_prime)

    @classmethod
    def from_counts(
        cls,
        eta: float,
        delta: float,
        s_prime: int,
        s_doubleprime: int | None = None,
    ) -> "NoisyParams":
        """Build params from an explicit primary sample count."""
        if s_doubleprime is None:
            s_doubleprime = cls.verification_count(eta, delta, s_prime)
        return cls(
            eta=eta,
            delta=delta,
            s_prime=s_prime,
            s_doubleprime=s_doubleprime,
            flip_budget=flip_budget_for(eta, s_prime),
        )


def agreement_select(
    candidates: Sequence[BitVector], verif: Sequence[LabeledExample]
) -> int:
    """Index of the candidate agreeing with the most verification labels.

    Ties go to the lowest index.  A candidate whose length differs from a
    verification vector's raises :class:`LengthMismatchError`; a lone
    candidate is returned without scoring.  Under DEBUG logging the margin
    between the best and second best disagreement fractions is logged.
    """
    if not candidates:
        raise ValueError("agreement_select needs at least one candidate")
    lengths = {ex.a.n for ex in verif}
    for x in candidates:
        if lengths - {x.n}:
            raise LengthMismatchError(
                f"candidate of length {x.n} against verification vectors "
                f"of lengths {sorted(lengths)}"
            )
    if len(candidates) == 1:
        return 0
    examples = [(ex.a.value, ex.label) for ex in verif]
    disagreements = [
        sum(((a & x).bit_count() & 1) ^ y for a, y in examples)
        for x in (c.value for c in candidates)
    ]
    best = min(range(len(candidates)), key=disagreements.__getitem__)
    if verif and logger.isEnabledFor(logging.DEBUG):
        runner_up = min(d for i, d in enumerate(disagreements) if i != best)
        logger.debug(
            "agreement margin: best %.4f, runner-up %.4f (of %d examples)",
            disagreements[best] / len(verif),
            runner_up / len(verif),
            len(verif),
        )
    return best


@dataclass(frozen=True)
class NoisyReport:
    """Everything observable about one noisy-learning run.

    ``inner_invocations`` counts the flip sets covered.
    """

    output: BitVector
    s_prime: int
    s_doubleprime: int
    flip_budget: int
    inner_invocations: int
    candidate_count: int
    samples_drawn: int


def noisy_learn_report(
    inner,
    source,
    params: NoisyParams,
    flip_set_limit: int = DEFAULT_FLIP_SET_LIMIT,
) -> NoisyReport:
    """Run the reduction and return the output with its run counters."""
    total_sets = flip_set_count(params.s_prime, params.flip_budget)
    if total_sets > flip_set_limit:
        raise BudgetExceededError(
            f"{total_sets} flip sets exceed the enumeration limit "
            f"{flip_set_limit}; shrink s_prime or eta"
        )
    primary = [source.next_example() for _ in range(params.s_prime)]
    candidates = list(inner.candidates(primary, params.flip_budget))
    if not candidates:
        raise NoCandidatesError(
            f"no flip set of size <= {params.flip_budget} yielded a "
            "hypothesis: noise rate too high for the budget, or the inner "
            "learner is broken"
        )
    verif = [source.next_example() for _ in range(params.s_doubleprime)]
    winner = agreement_select(candidates, verif)
    return NoisyReport(
        output=candidates[winner],
        s_prime=params.s_prime,
        s_doubleprime=params.s_doubleprime,
        flip_budget=params.flip_budget,
        inner_invocations=total_sets,
        candidate_count=len(candidates),
        samples_drawn=params.s_prime + params.s_doubleprime,
    )


class MitmInner:
    """Noiseless inner learner backed by the meet-in-the-middle search.

    Succeeds only when exactly one weight-k vector is consistent with the
    examples.  The half tables depend on the example vectors but not their
    labels, so they are cached and reused across relabelings of the same
    vectors.
    """

    def __init__(self, n: int, k: int):
        self.n = n
        self.k = k
        self._cache_key: tuple[int, ...] | None = None
        self._cache: tuple[dict, list] | None = None

    def sample_complexity(self, delta: float) -> int:
        """Union bound: C(n,k) impostors each survive one example w.p. 1/2."""
        return math.ceil(math.log2(binom(self.n, self.k) / delta))

    def _tables(self, examples: Sequence[LabeledExample]) -> tuple[dict, list]:
        vectors = [ex.a for ex in examples]
        key = tuple(v.value for v in vectors)
        if key != self._cache_key:
            self._cache_key = key
            self._cache = mitm_tables(vectors, self.n, self.k)
        return self._cache

    def run(self, examples: Sequence[LabeledExample]) -> BitVector | None:
        left, right = self._tables(examples)
        labels = BitVector.from_bits(ex.label for ex in examples).value
        found: tuple[int, ...] | None = None
        for support, syndrome, size in right:
            for left_support in left.get((syndrome ^ labels, self.k - size), ()):
                if found is not None:
                    return None  # ambiguous: more than one consistent vector
                found = left_support + support
        if found is None:
            return None
        return BitVector.from_support(self.n, found)

    def candidates(
        self, examples: Sequence[LabeledExample], flip_budget: int
    ) -> list[BitVector]:
        """What ``run`` yields over every flip set, without running it.

        ``run`` on the examples with the labels in flip set F inverted
        returns v exactly when v is the only weight-k vector whose
        syndrome is ``labels ^ F``.  So the distinct outputs over all
        flip sets of size at most ``flip_budget`` are the weight-k vectors
        that share their syndrome with no other and lie within Hamming
        distance ``flip_budget`` of the labels: bounded-distance syndrome
        decoding (Prange 1962; Stern 1988).  Each vector comes from one F,
        so sorting by (|F|, indices of F) gives the flip-set loop's
        first-occurrence order.
        """
        if flip_budget == 0:
            x = self.run(examples)
            return [] if x is None else [x]
        left, right = self._tables(examples)
        labels = BitVector.from_bits(ex.label for ex in examples).value
        right_by_size: list[list[tuple[tuple[int, ...], int]]] = [
            [] for _ in range(self.k + 1)
        ]
        for support, syndrome, size in right:
            right_by_size[size].append((support, syndrome))
        # syndrome -> its only weight-k support, or None when shared
        owner: dict[int, tuple[int, ...] | None] = {}
        for (left_syndrome, j), left_supports in left.items():
            for support, syndrome in right_by_size[self.k - j]:
                syndrome ^= left_syndrome
                if len(left_supports) > 1 or syndrome in owner:
                    owner[syndrome] = None
                else:
                    owner[syndrome] = left_supports[0] + support
        found = []
        for syndrome, support in owner.items():
            flips = syndrome ^ labels
            if support is not None and flips.bit_count() <= flip_budget:
                flip_set = tuple(
                    i for i in range(len(examples)) if (flips >> i) & 1
                )
                found.append((len(flip_set), flip_set, support))
        found.sort()
        return [
            BitVector.from_support(self.n, support) for _, _, support in found
        ]


class PacOnlineInner:
    """Noiseless inner learner backed by the chart learner's PAC driver.

    The covering family and its starting charts are built once and shared
    across runs; each run replays its example list through a fresh learner,
    and :meth:`candidates` shares replay prefixes across flip sets.
    """

    def __init__(
        self, n: int, k: int, t: int, alpha: int, delta: float, rng_seed: int
    ):
        self.n = n
        self.k = k
        self.delta = delta
        params = CoverParams(n=n, k=k, t=t, alpha=alpha)
        self.family: CoverFamily = build_family(params, rng_seed)
        self._start = LearnerState(self.family)
        self.mistake_bound = self._start.mistake_bound

    def sample_complexity(self, delta: float) -> int:
        """Deterministic ceiling: every mistake-free run is shorter than
        the survival threshold except the last."""
        return (self.mistake_bound + 1) * survival_threshold(
            self.mistake_bound, delta
        )

    def run(self, examples: Sequence[LabeledExample]) -> BitVector | None:
        return self._verdict(
            self._fresh(), ReplaySource(examples), len(examples), 0
        )

    def candidates(
        self, examples: Sequence[LabeledExample], flip_budget: int
    ) -> list[BitVector]:
        """What ``run`` yields over every flip set, sharing replay prefixes.

        The streams of flip set F and of ``F + (j,)``, j past every index
        of F, agree before example j.  So the replay of F forks its
        learner just before it steps example j, and the fork replays
        ``F + (j,)`` from there with example j flipped; the walk is depth
        first, so at most ``flip_budget + 1`` learners are alive.  A flip
        set whose last index lies at or past the point where its parent's
        replay stopped is never run: its stream differs only after that
        point, so it gives the parent's outcome, and the parent comes
        first in ``(|F|, lex F)`` order.  Sorting the outcomes by that key
        and keeping each vector's first occurrence gives the loop's list.
        """
        found: list[tuple[int, tuple[int, ...], BitVector]] = []

        def visit(learner, flips, run_length):
            source = _ForkingReplay(
                examples, flips, flip_budget, learner, run_length, visit
            )
            budget = len(examples) - source.start
            x = self._verdict(learner, source, budget, run_length)
            if x is not None:
                found.append((len(flips), flips, x))

        visit(self._fresh(), (), 0)
        found.sort(key=lambda entry: entry[:2])
        distinct: dict[int, BitVector] = {}
        for _, _, x in found:
            distinct.setdefault(x.value, x)
        return list(distinct.values())

    def _fresh(self) -> LearnerState:
        return LearnerState(self.family, self._start.charts)

    def _verdict(self, learner, source, budget, run_length) -> BitVector | None:
        """The PAC driver's verdict as a candidate: a weight-k vector or
        None."""
        pac_params = PacParams(delta=self.delta, sample_budget=budget)
        try:
            x = pac_learn(learner, source, pac_params, run_length)
        except (
            BudgetExhaustedError,
            InconsistentStreamError,
            SourceExhaustedError,
        ):
            return None
        if x.popcount() != self.k:
            return None
        return x


class _ForkingReplay:
    """The source of one flip set's replay, from its last flip on.

    The replay of ``flips`` starts at its last index, ``start`` (0 for
    the empty set), whose label comes flipped; later examples come as
    drawn, since the earlier flips were stepped before the fork.  While
    the set has flips to spare, every draw of a later example ``i``
    first runs ``branch`` on a fork of the learner for ``flips + (i,)``.
    """

    def __init__(
        self, examples, flips, flip_budget, learner, run_length, branch
    ):
        self.examples = examples
        self.flips = flips
        self.start = flips[-1] if flips else 0
        self.spare = len(flips) < flip_budget
        self.learner = learner
        self.run_length = run_length
        self.mistakes = learner.mistakes
        self.branch = branch
        self.draws = 0

    def next_example(self) -> LabeledExample:
        i = self.start + self.draws
        ex = self.examples[i]
        if self.draws:
            # pac_learn's run grew unless the round just stepped was a
            # mistake, which the learner counts.
            if self.learner.mistakes == self.mistakes:
                self.run_length += 1
            else:
                self.run_length = 0
                self.mistakes = self.learner.mistakes
        if self.flips and not self.draws:
            ex = LabeledExample(ex.a, ex.label ^ 1)
        elif self.spare:
            self.branch(self.learner.fork(), self.flips + (i,), self.run_length)
        self.draws += 1
        return ex
