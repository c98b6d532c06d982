"""Noise-tolerant learning by mislabel-set enumeration over a noiseless core.

Labels arrive flipped independently with rate ``eta < 1/3``.  The driver
draws ``s_prime`` examples and guesses which of them were mislabeled: every
flip set of up to ``floor(3*eta*s_prime/2)`` indices, un-flipped, gives a
repaired stream for a noiseless inner learner.  Every distinct hypothesis
the inner learner produces becomes a candidate; ``s_doubleprime`` fresh
verification examples then pick the candidate with the best agreement.
The flip budget covers the actual mislabel count with high probability,
so the true vector is always among the candidates, and the verification
margin separates it from impostors.

Verification costs what it reads.  A lone candidate needs no scoring, so
its verification examples are skipped, not built; two or more are scored
by the source without building examples either.  Both leave the source
where drawing the examples would, so ``source.draws`` and
``samples_drawn`` are ``s_prime + s_doubleprime`` whenever there is a
candidate.

An inner learner hands over its candidates through
``candidates(primary, flip_budget)``: the distinct non-None outputs of its
``run`` over the repaired streams of all flip sets, each at its first
occurrence with flip sets taken by size, then lexicographically.  Its
``run(examples)`` is the lone vector of ``candidates(examples, 0)``, or
None.
"""

from __future__ import annotations

import functools
import logging
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, compress
from operator import xor
from typing import Sequence

from .errors import (
    BudgetExceededError,
    BudgetExhaustedError,
    InconsistentStreamError,
    LengthMismatchError,
    NoCandidatesError,
)
from .gf2 import BitVector, subset_chunks, transpose
from .online import new_learner
from .pac import PacParams, pac_learn
from .sources import LabeledExample

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


def flip_set_count(
    s_prime: int, flip_budget: int, limit: float = math.inf
) -> int:
    """Number of index subsets of size at most the budget, exactly.

    The sum stops at its first partial total over ``limit``, so a budget
    far past the limit costs a few binomials instead of one per size.
    """
    total = 0
    for size in range(flip_budget + 1):
        total += math.comb(s_prime, size)
        if total > limit:
            break
    return total


@dataclass(frozen=True)
class NoisyParams:
    """Sample counts for one noisy-learning run.

    ``s_doubleprime`` is derived: the :meth:`verification_count` of the
    other three.
    """

    eta: float
    delta: float
    s_prime: int
    s_doubleprime: int = field(init=False)

    def __post_init__(self):
        if not 0.0 < self.eta < 1.0 / 3.0:
            raise ValueError(f"noise rate must be in (0, 1/3), got {self.eta}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must be in (0, 1), got {self.delta}")
        if self.s_prime < 1:
            raise ValueError(f"s_prime must be positive, got {self.s_prime}")
        object.__setattr__(
            self,
            "s_doubleprime",
            self.verification_count(self.eta, self.delta, self.s_prime),
        )

    @functools.cached_property
    def flip_budget(self) -> int:
        """floor(3/2 * eta * s_prime), computed exactly from the given eta
        on first use."""
        return int(Fraction(3, 2) * Fraction(self.eta) * self.s_prime)

    @staticmethod
    def verification_count(eta: float, delta: float, s_prime: int) -> int:
        """ceil(600 * (s_prime * H(3 eta / 2) + log2(8 / delta))).

        Raises ValueError when that is not finite, as when ``8 / delta``
        overflows for a subnormal ``delta`` or ``s_prime`` is past the
        float range.
        """
        try:
            count = 600 * (
                s_prime * entropy(1.5 * eta) + math.log2(8.0 / delta)
            )
        except OverflowError:
            count = math.inf
        if not math.isfinite(count):
            raise ValueError(
                f"verification count is not finite for delta={delta!r} "
                f"and an s_prime of {s_prime.bit_length()} bits"
            )
        return math.ceil(count)

    @classmethod
    def from_counts(
        cls, eta: float, delta: float, s_prime: int
    ) -> "NoisyParams":
        """Params for ``s_prime`` primary examples and the
        :meth:`verification_count` of verification examples."""
        return cls(eta=eta, delta=delta, s_prime=s_prime)


def agreement_select(
    candidates: Sequence[BitVector], source, count: int
) -> int:
    """Index of the candidate that misses the fewest of the next ``count``
    labels of ``source``.

    A candidate whose length differs from the source's ``n`` raises
    :class:`LengthMismatchError` before anything is drawn.  A lone
    candidate wins unscored: ``source.skip(count)`` moves past its
    examples without building them.  Otherwise
    ``source.disagreements(candidates, count)`` counts each candidate's
    misses; ties go to the lowest index.  Either way the source ends
    where ``count`` draws would leave it.  Under DEBUG logging the margin
    between the best and second best disagreement fractions is logged.
    """
    if not candidates:
        raise ValueError("agreement_select needs at least one candidate")
    n = source.n
    for x in candidates:
        if n is not None and x.n != n:
            raise LengthMismatchError(
                f"candidate of length {x.n} against verification vectors "
                f"of length {n}"
            )
    if len(candidates) == 1:
        source.skip(count)
        return 0
    disagreements = source.disagreements(candidates, count)
    best = min(range(len(candidates)), key=disagreements.__getitem__)
    if count and logger.isEnabledFor(logging.DEBUG):
        runner_up = min(d for i, d in enumerate(disagreements) if i != best)
        logger.debug(
            "agreement margin: best %.4f, runner-up %.4f (of %d examples)",
            disagreements[best] / count,
            runner_up / count,
            count,
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
    flip_budget = params.flip_budget
    total_sets = flip_set_count(params.s_prime, flip_budget, flip_set_limit)
    if total_sets > flip_set_limit:
        raise BudgetExceededError(
            f"at least {total_sets} flip sets exceed the enumeration limit "
            f"{flip_set_limit}; shrink s_prime or eta"
        )
    primary = source.examples(params.s_prime)
    candidates = list(inner.candidates(primary, flip_budget))
    if not candidates:
        raise NoCandidatesError(
            f"no flip set of size <= {flip_budget} yielded a "
            "hypothesis: noise rate too high for the budget, or the inner "
            "learner is broken"
        )
    winner = agreement_select(candidates, source, params.s_doubleprime)
    return NoisyReport(
        output=candidates[winner],
        s_prime=params.s_prime,
        s_doubleprime=params.s_doubleprime,
        flip_budget=flip_budget,
        inner_invocations=total_sets,
        candidate_count=len(candidates),
        samples_drawn=params.s_prime + params.s_doubleprime,
    )


class MitmInner:
    """Noiseless inner learner backed by the exhaustive weight-k search,
    the meet-in-the-middle baseline's search space.

    :meth:`candidates` decodes every flip set at once from the weight-k
    syndromes of the example vectors, walked afresh per call a chunk at a
    time (:func:`~sparseparity.gf2.subset_chunks`) after every vector's
    length is checked against ``n``; :meth:`run` is its flip budget 0.
    """

    def __init__(self, n: int, k: int):
        self.n = n
        self.k = k

    def run(self, examples: Sequence[LabeledExample]) -> BitVector | None:
        """The only weight-k vector consistent with the examples, or None:
        the lone candidate at flip budget 0."""
        return next(iter(self.candidates(examples, 0)), None)

    def candidates(
        self, examples: Sequence[LabeledExample], flip_budget: int
    ) -> list[BitVector]:
        """Every vector some flip set makes the only consistent one.

        With the labels in flip set F inverted, v is the only weight-k
        vector consistent with the examples exactly when v owns the
        syndrome ``labels ^ F``.  So the distinct vectors over all flip
        sets of size at most ``flip_budget`` are the owned syndromes
        within Hamming distance ``flip_budget`` of the labels:
        bounded-distance syndrome decoding (Prange 1962; Stern 1988).
        Each vector comes from one F, so sorting by (|F|, indices of F)
        gives the flip-set loop's first-occurrence order.

        The syndromes are walked in the order of
        ``combinations(range(n), k)``, one chunk of pair syndromes per
        (k-2)-prefix.  The labels are XORed into each prefix's syndrome
        once, one pass over the chunk marks the entries near the labels,
        and only those hits are kept, as flip masks.  Every copy of a
        syndrome lies at the same distance from the labels, so a
        ``Counter`` over the hits alone tells which are owned; only the
        owned hits get their supports, from the marks of their chunk.
        Besides the pair table and one chunk, a call holds one int per
        hit and one mark per entry of each chunk that has a hit, never all
        ``C(n, k)`` syndromes.  At ``k <= 2`` the one chunk is the whole
        list.
        """
        rows = []
        for ex in examples:
            if ex.a.n != self.n:
                raise ValueError(f"example length {ex.a.n} != n={self.n}")
            rows.append(ex.a.value)
        labels = BitVector.from_bits(ex.label for ex in examples).value
        columns = transpose(rows, self.n)
        copies: Counter[int] = Counter()
        marked = []
        for prefix, value, chunk, start in subset_chunks(
            columns, self.k, xor, 0
        ):
            base = value ^ labels
            near = [(base ^ s).bit_count() <= flip_budget for s in chunk]
            hits = [base ^ s for s in compress(chunk, near)]
            if hits:
                copies.update(hits)
                marked.append((prefix, start, near, hits))
        found = []
        for prefix, start, near, hits in marked:
            tails = combinations(range(start, self.n), min(self.k, 2))
            for flips, tail in zip(hits, compress(tails, near)):
                if copies[flips] == 1:
                    flip_set = tuple(
                        i for i in range(len(examples)) if (flips >> i) & 1
                    )
                    found.append((len(flip_set), flip_set, prefix + tail))
        found.sort()
        return [
            BitVector.from_support(self.n, support) for _, _, support in found
        ]


class PacOnlineInner:
    """Noiseless inner learner backed by the chart learner's PAC driver.

    The starting learner comes from :func:`~sparseparity.online.new_learner`
    once, and ``family`` is its covering family.  :meth:`candidates`
    replays the example list through forks of that learner, sharing
    replay prefixes across flip sets; :meth:`run` is its flip budget 0,
    one replay with no fork past the first.
    """

    def __init__(
        self, n: int, k: int, t: int, alpha: int, delta: float, rng_seed: int
    ):
        self.k = k
        self.delta = delta
        self._start = new_learner(n, k, t, alpha, rng_seed)
        self.family = self._start.family
        self.mistake_bound = self._start.mistake_bound

    def run(self, examples: Sequence[LabeledExample]) -> BitVector | None:
        """The PAC driver's verdict on the examples as they stand: the
        lone candidate at flip budget 0."""
        return next(iter(self.candidates(examples, 0)), None)

    def candidates(
        self, examples: Sequence[LabeledExample], flip_budget: int
    ) -> list[BitVector]:
        """The PAC driver's weight-k verdicts over every flip set's
        replay, sharing replay prefixes.

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

        A replay that exhausts its budget, contradicts the learner or
        certifies a vector of another weight gives no candidate.  Its
        budget is the examples left in the list, so a replay never draws
        past the end.
        """
        found: list[tuple[int, tuple[int, ...], BitVector]] = []

        def visit(learner, flips):
            source = _ForkingReplay(examples, flips, flip_budget, learner, visit)
            pac_params = PacParams(self.delta, len(examples) - source.start)
            try:
                x = pac_learn(learner, source, pac_params)
            except (BudgetExhaustedError, InconsistentStreamError):
                return
            if x.popcount() == self.k:
                found.append((len(flips), flips, x))

        visit(self._start.fork(), ())
        found.sort(key=lambda entry: entry[:2])
        distinct: dict[int, BitVector] = {}
        for _, _, x in found:
            distinct.setdefault(x.value, x)
        return list(distinct.values())


class _ForkingReplay:
    """The source of one flip set's replay, from its last flip on.

    The replay of ``flips`` starts at its last index, ``start`` (0 for
    the empty set), whose label comes flipped; later examples come as
    drawn, since the earlier flips were stepped before the fork.  While
    the set has flips to spare, every draw of a later example ``i``
    first runs ``branch`` on a fork of the learner for ``flips + (i,)``;
    the fork carries the learner's survival run over.
    """

    def __init__(self, examples, flips, flip_budget, learner, branch):
        self.examples = examples
        self.flips = flips
        self.start = flips[-1] if flips else 0
        self.spare = len(flips) < flip_budget
        self.learner = learner
        self.branch = branch
        self.draws = 0

    def next_example(self) -> LabeledExample:
        i = self.start + self.draws
        ex = self.examples[i]
        if self.flips and not self.draws:
            ex = LabeledExample(ex.a, ex.label ^ 1)
        elif self.spare:
            self.branch(self.learner.fork(), self.flips + (i,))
        self.draws += 1
        return ex
