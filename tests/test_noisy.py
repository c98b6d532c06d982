"""Tests for the mislabel-set enumeration reduction and its inner learners."""

import functools
import itertools
import logging
import math
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparseparity.cover import binom
from sparseparity.errors import (
    AllChartsEmptyError,
    BudgetExceededError,
    BudgetExhaustedError,
    LengthMismatchError,
    NoCandidatesError,
)
from sparseparity.gf2 import BitVector
from sparseparity.noisy import (
    MitmInner,
    NoisyParams,
    PacOnlineInner,
    agreement_select,
    entropy,
    flip_budget_for,
    flip_set_count,
    noisy_learn_report,
)
from sparseparity.online import Identified, LearnerState
from sparseparity.pac import PacParams, pac_learn, survival_threshold
from sparseparity.rng import SplitMix64
from sparseparity.sources import (
    LabeledExample,
    ReplaySource,
    UniformSource,
    gen_hidden,
)


def flip_set_iterator(s_prime, flip_budget):
    """Subsets of range(s_prime) by nondecreasing size, lex within size."""
    if flip_budget > s_prime:
        raise ValueError(
            f"flip budget {flip_budget} exceeds sample count {s_prime}"
        )
    for size in range(flip_budget + 1):
        yield from itertools.combinations(range(s_prime), size)


def apply_flips(examples, flip_set):
    """The same examples with the labels at the given indices inverted."""
    flipped = list(examples)
    for i in flip_set:
        ex = flipped[i]
        flipped[i] = LabeledExample(ex.a, ex.label ^ 1)
    return flipped


def loop_candidates(inner, primary, flip_budget):
    """Reference: the distinct outputs of ``run`` over every flip set, in
    first-occurrence order."""
    found = []
    for flip_set in flip_set_iterator(len(primary), flip_budget):
        x = inner.run(apply_flips(primary, flip_set))
        if x is not None and x not in found:
            found.append(x)
    return found


class LoopInner:
    """An inner learner whose ``candidates`` runs ``run`` on every flip set."""

    def candidates(self, primary, flip_budget):
        return loop_candidates(self, primary, flip_budget)


class ConstantInner(LoopInner):
    """Inner learner that ignores its examples and returns a fixed vector."""

    def __init__(self, output):
        self.output = output
        self.calls = 0

    def run(self, examples):
        self.calls += 1
        return self.output


class DecliningInner(LoopInner):
    """Inner learner that never produces a hypothesis."""

    def __init__(self):
        self.calls = 0

    def run(self, examples):
        self.calls += 1
        return None


class RunOnly(LoopInner):
    """An inner learner's ``run`` with the flip-set loop in place of its
    decoding hook."""

    def __init__(self, inner):
        self.run = inner.run


class ListInner:
    """Inner learner that hands over a fixed candidate list."""

    def __init__(self, listed):
        self.listed = listed

    def candidates(self, primary, flip_budget):
        return self.listed


class FixedComplexityInner:
    """Inner learner stub declaring a fixed sample complexity."""

    def __init__(self, s):
        self.s = s
        self.deltas = []

    def sample_complexity(self, delta):
        self.deltas.append(delta)
        return self.s


# ---------------------------------------------------------------------------
# binary entropy


def test_entropy_half_is_one():
    assert entropy(0.5) == 1.0


def test_entropy_endpoints_are_zero():
    assert entropy(0.0) == 0.0
    assert entropy(1.0) == 0.0


def test_entropy_quarter_frozen_value():
    assert abs(entropy(0.25) - 0.8112781244591328) < 1e-12


def test_entropy_domain_errors():
    with pytest.raises(ValueError):
        entropy(-0.01)
    with pytest.raises(ValueError):
        entropy(1.01)


@given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_entropy_symmetric_and_bounded(p):
    h = entropy(p)
    assert 0.0 <= h <= 1.0
    assert h == pytest.approx(entropy(1.0 - p), abs=1e-9)


# ---------------------------------------------------------------------------
# flip budgets and flip-set enumeration


def test_flip_budget_examples():
    assert flip_budget_for(0.05, 40) == 3
    assert flip_budget_for(0.05, 39) == 2
    assert flip_budget_for(0.01, 67) == 1
    assert flip_budget_for(0.2, 10) == 3


def test_flip_budget_matches_exact_fraction():
    for eta, s in [(0.05, 40), (0.1, 20), (0.25, 33), (0.01, 400)]:
        exact = Fraction(3, 2) * Fraction(eta) * s
        assert flip_budget_for(eta, s) == math.floor(exact)


def test_flip_set_iterator_small():
    assert list(flip_set_iterator(3, 1)) == [(), (0,), (1,), (2,)]


def test_flip_set_iterator_budget_zero():
    assert list(flip_set_iterator(5, 0)) == [()]


def test_flip_set_iterator_order_and_count():
    sets = list(flip_set_iterator(6, 3))
    assert len(sets) == flip_set_count(6, 3) == 42
    sizes = [len(s) for s in sets]
    assert sizes == sorted(sizes)
    for size in range(4):
        group = [s for s in sets if len(s) == size]
        assert group == sorted(group)
    assert len(set(sets)) == len(sets)


def test_flip_set_iterator_rejects_overlarge_budget():
    with pytest.raises(ValueError):
        list(flip_set_iterator(3, 4))


def test_flip_set_count_within_entropy_bound():
    # the classic bound: sum_{i<=an} C(n,i) <= 2^(H(a)n) for a <= 1/2
    assert flip_set_count(10, 3) == 176
    assert 176 <= 2.0 ** (entropy(0.3) * 10)


def test_apply_flips_involution_and_no_aliasing():
    src = UniformSource(BitVector.from_support(10, (2, 7)), seed=13, eta=0.0)
    examples = src.take(6)
    original_labels = [ex.label for ex in examples]
    flipped = apply_flips(examples, (0, 3, 5))
    assert [ex.label for ex in examples] == original_labels
    for i, ex in enumerate(flipped):
        expected = original_labels[i] ^ (1 if i in (0, 3, 5) else 0)
        assert ex.label == expected
        assert ex.a is examples[i].a
    restored = apply_flips(flipped, (0, 3, 5))
    assert [ex.label for ex in restored] == original_labels


# ---------------------------------------------------------------------------
# run sizing


def test_verification_count_frozen_values():
    assert NoisyParams.verification_count(0.05, 0.2, 40) == 12417
    assert NoisyParams.verification_count(0.01, 0.25, 67) == 7517
    assert NoisyParams.verification_count(0.05, 0.2, 14) == 6422
    assert NoisyParams.verification_count(0.001, 0.2, 100) == 4168


def test_verification_count_monotone():
    base = NoisyParams.verification_count(0.05, 0.2, 40)
    assert NoisyParams.verification_count(0.05, 0.2, 80) > base
    assert NoisyParams.verification_count(0.1, 0.2, 40) > base
    assert NoisyParams.verification_count(0.05, 0.02, 40) > base


def test_from_counts_fields():
    params = NoisyParams.from_counts(eta=0.05, delta=0.2, s_prime=40)
    assert params.s_prime == 40
    assert params.flip_budget == 3
    assert params.s_doubleprime == 12417
    assert params.eta == 0.05
    assert params.delta == 0.2


def test_tampered_flip_budget_rejected():
    with pytest.raises(ValueError):
        NoisyParams(
            eta=0.05, delta=0.2, s_prime=40, s_doubleprime=12417, flip_budget=4
        )


def test_param_domain_errors():
    with pytest.raises(ValueError):
        NoisyParams.from_counts(eta=0.0, delta=0.2, s_prime=10)
    with pytest.raises(ValueError):
        NoisyParams.from_counts(eta=1.0 / 3.0, delta=0.2, s_prime=10)
    with pytest.raises(ValueError):
        NoisyParams.from_counts(eta=0.05, delta=1.0, s_prime=10)
    with pytest.raises(ValueError):
        NoisyParams.from_counts(eta=0.05, delta=0.2, s_prime=0)


def test_from_inner_uses_declared_sample_complexity():
    stub = FixedComplexityInner(10)
    params = NoisyParams.from_inner(stub, eta=0.05, delta=0.25)
    # s' = ceil(20 * s(delta/2) * log2(1/delta)) with log2(1/0.25) = 2
    assert stub.deltas == [0.125]
    assert params.s_prime == 400
    assert params.flip_budget == flip_budget_for(0.05, 400) == 30
    assert params.s_doubleprime == NoisyParams.verification_count(
        0.05, 0.25, 400
    )


# ---------------------------------------------------------------------------
# candidate selection by verification agreement


def test_agreement_single_candidate():
    x = BitVector.from_support(8, (1,))
    assert agreement_select([x], []) == 0


def test_agreement_tie_prefers_lowest_index():
    x = BitVector.from_support(8, (1,))
    y = BitVector.from_support(8, (1,))
    verif = UniformSource(x, seed=2, eta=0.0).take(10)
    assert agreement_select([x, y], verif) == 0
    assert agreement_select([y, x], verif) == 0


def test_agreement_rejects_empty_candidate_list():
    with pytest.raises(ValueError):
        agreement_select([], [])


def test_agreement_separates_hidden_from_impostor():
    hidden = BitVector.from_support(16, (1, 5))
    impostor = BitVector.from_support(16, (2, 9))
    verif = UniformSource(hidden, seed=31, eta=0.05).take(200)
    assert agreement_select([impostor, hidden], verif) == 1


def dot_agreement_select(candidates, verif):
    """The dot-per-example scoring agreement_select used before packing."""
    disagreements = [
        sum(1 for ex in verif if ex.a.dot(x) != ex.label) for x in candidates
    ]
    return min(range(len(candidates)), key=lambda i: disagreements[i])


@given(st.integers(1, 130), st.integers(1, 6), st.integers(0, 60), st.data())
@settings(deadline=None, max_examples=200)
def test_agreement_matches_dot_scoring(n, count, verif_len, data):
    vec = st.integers(0, (1 << n) - 1).map(lambda v: BitVector(n, v))
    candidates = data.draw(st.lists(vec, min_size=count, max_size=count))
    if data.draw(st.booleans()):
        # a duplicate forces an exact tie
        candidates.append(candidates[0])
    hidden = data.draw(st.sampled_from(candidates))
    eta = data.draw(st.sampled_from([0.0, 0.1, 0.45]))
    verif = UniformSource(hidden, seed=data.draw(st.integers(0, 99)), eta=eta)
    verif = verif.take(verif_len)
    assert agreement_select(candidates, verif) == dot_agreement_select(
        candidates, verif
    )


def test_agreement_tie_between_distinct_candidates_goes_lowest():
    x = BitVector.from_support(4, (0,))
    y = BitVector.from_support(4, (1,))
    z = BitVector.from_support(4, (2,))
    verif = [
        LabeledExample(BitVector.from_support(4, (0,)), 1),  # x right
        LabeledExample(BitVector.from_support(4, (1,)), 1),  # y right
        LabeledExample(BitVector.from_support(4, (3,)), 1),  # all wrong
    ]
    assert agreement_select([z, y, x], verif) == 1
    assert agreement_select([x, y, z], verif) == 0


@pytest.mark.parametrize("candidates", [
    [BitVector.from_support(9, (1,))],
    [BitVector.from_support(8, (1,)), BitVector.from_support(9, (1,))],
])
def test_agreement_rejects_wrong_length_candidate(candidates):
    verif = UniformSource(BitVector.from_support(8, (2,)), seed=1).take(5)
    with pytest.raises(LengthMismatchError):
        agreement_select(candidates, verif)


def test_agreement_lone_candidate_is_chosen_unscored():
    x = BitVector.from_support(8, (1,))
    verif = [LabeledExample(BitVector.from_support(8, (1,)), 0)] * 3
    assert agreement_select([x], verif) == 0
    assert agreement_select([x, x], []) == 0


def test_agreement_margin_logged_only_at_debug(caplog):
    hidden = BitVector.from_support(16, (1, 5))
    impostor = BitVector.from_support(16, (2, 9))
    verif = UniformSource(hidden, seed=31, eta=0.05).take(200)
    with caplog.at_level(logging.INFO, logger="sparseparity.noisy"):
        agreement_select([impostor, hidden], verif)
    assert not caplog.records
    with caplog.at_level(logging.DEBUG, logger="sparseparity.noisy"):
        agreement_select([impostor, hidden], verif)
    assert any("agreement margin" in r.message for r in caplog.records)


# ---------------------------------------------------------------------------
# the reduction end to end


def test_budget_zero_noiseless_run_recovers_hidden():
    params = NoisyParams.from_counts(eta=0.001, delta=0.2, s_prime=100)
    assert params.flip_budget == 0
    hidden = gen_hidden(12, 2, 77)
    source = UniformSource(hidden, seed=78, eta=0.0)
    report = noisy_learn_report(MitmInner(12, 2), source, params)
    assert report.output == hidden
    assert report.inner_invocations == 1
    assert report.candidate_count == 1
    assert report.samples_drawn == 100 + params.s_doubleprime


def test_report_counters_match_formulas():
    params = NoisyParams.from_counts(eta=0.05, delta=0.2, s_prime=14)
    hidden = gen_hidden(10, 2, 500)
    source = UniformSource(hidden, seed=0, eta=0.05)
    report = noisy_learn_report(MitmInner(10, 2), source, params)
    assert report.output == hidden
    assert report.inner_invocations == flip_set_count(14, 1) == 15
    assert report.candidate_count == 1
    assert report.samples_drawn == params.s_prime + params.s_doubleprime
    assert report.flip_budget == params.flip_budget
    assert source.draws == report.samples_drawn


def test_tie_goes_to_the_first_candidate_the_inner_lists():
    # on e2 both candidates predict 0, so verification cannot tell them
    # apart and noisy_learn_report must keep the inner learner's order
    x = BitVector.from_support(8, (0,))
    y = BitVector.from_support(8, (1,))
    params = NoisyParams.from_counts(eta=0.05, delta=0.2, s_prime=14)
    example = LabeledExample(BitVector.from_support(8, (2,)), 0)
    stream = [example] * (params.s_prime + params.s_doubleprime)
    for order in ([x, y], [y, x]):
        report = noisy_learn_report(ListInner(order), ReplaySource(stream), params)
        assert report.output == order[0]
        assert report.candidate_count == 2


def test_duplicate_hypotheses_deduplicated():
    target = BitVector.from_support(12, (3, 4))
    inner = ConstantInner(target)
    params = NoisyParams.from_counts(eta=0.05, delta=0.2, s_prime=20)
    source = UniformSource(target, seed=9, eta=0.05)
    report = noisy_learn_report(inner, source, params)
    assert report.inner_invocations == flip_set_count(20, 1) == 21
    assert inner.calls == 21
    assert report.candidate_count == 1
    assert report.output == target


def test_no_candidates_raises():
    params = NoisyParams.from_counts(eta=0.05, delta=0.2, s_prime=20)
    source = UniformSource(BitVector.from_support(6, (0,)), seed=4, eta=0.05)
    inner = DecliningInner()
    with pytest.raises(NoCandidatesError):
        noisy_learn_report(inner, source, params)
    # the flip-set loop runs the inner learner once per flip set
    assert inner.calls == flip_set_count(20, 1)
    assert source.draws == params.s_prime


def test_inverted_labels_yield_no_candidates():
    # labels complemented everywhere are inconsistent with every sparse
    # parity, so the empty flip set (the only one under this budget) fails
    hidden = gen_hidden(8, 2, 5)
    honest = UniformSource(hidden, seed=6, eta=0.0).take(30)
    inverted = [LabeledExample(ex.a, ex.label ^ 1) for ex in honest]
    params = NoisyParams.from_counts(eta=0.001, delta=0.2, s_prime=30)
    assert params.flip_budget == 0
    with pytest.raises(NoCandidatesError):
        noisy_learn_report(MitmInner(8, 2), ReplaySource(inverted), params)


def test_flip_set_limit_guard():
    params = NoisyParams.from_counts(eta=0.3, delta=0.2, s_prime=20)
    assert flip_set_count(params.s_prime, params.flip_budget) > 1000
    with pytest.raises(BudgetExceededError):
        noisy_learn_report(
            DecliningInner(), ReplaySource([]), params, flip_set_limit=1000
        )


def test_flip_set_limit_guard_fires_before_any_draw_with_the_hook():
    params = NoisyParams.from_counts(eta=0.3, delta=0.2, s_prime=20)
    source = UniformSource(gen_hidden(12, 2, 3), seed=4, eta=0.3)
    with pytest.raises(BudgetExceededError):
        noisy_learn_report(MitmInner(12, 2), source, params, flip_set_limit=1000)
    assert source.draws == 0


def test_small_monte_carlo_success_rate():
    # per-trial success is bounded below by P(Binom(20, 0.05) <= 1) ~ 0.736
    params = NoisyParams.from_counts(eta=0.05, delta=0.2, s_prime=20)
    master = SplitMix64(60)
    hits = 0
    for _ in range(30):
        hidden = gen_hidden(12, 2, master.next_u64())
        source = UniformSource(hidden, seed=master.next_u64(), eta=0.05)
        try:
            report = noisy_learn_report(MitmInner(12, 2), source, params)
        except NoCandidatesError:
            continue
        hits += report.output == hidden
    assert hits >= 14


# ---------------------------------------------------------------------------
# meet-in-the-middle inner learner


def test_mitm_inner_sample_complexity():
    assert MitmInner(24, 2).sample_complexity(0.1) == math.ceil(
        math.log2(binom(24, 2) / 0.1)
    )


def test_mitm_inner_recovers_unique_hidden():
    hidden = BitVector.from_support(8, (1, 4))
    examples = UniformSource(hidden, seed=3, eta=0.0).take(20)
    assert MitmInner(8, 2).run(examples) == hidden


def test_mitm_inner_declines_when_ambiguous():
    hidden = BitVector.from_support(8, (1, 4))
    examples = UniformSource(hidden, seed=3, eta=0.0).take(1)
    assert MitmInner(8, 2).run(examples) is None


def test_mitm_inner_declines_when_inconsistent():
    a = BitVector.from01("11000000")
    examples = [LabeledExample(a, 0), LabeledExample(a, 1)]
    assert MitmInner(8, 2).run(examples) is None


def test_mitm_inner_weight_zero():
    inner = MitmInner(6, 0)
    a = BitVector.from01("101010")
    assert inner.run([LabeledExample(a, 0)]) == BitVector.zeros(6)
    assert inner.run([LabeledExample(a, 1)]) is None


def test_mitm_inner_cache_survives_label_changes():
    # the flip-set loop re-runs the same vectors with different labels, so
    # answers must track the labels even when the vector table is reused
    inner = MitmInner(10, 2)
    x1 = BitVector.from_support(10, (0, 3))
    x2 = BitVector.from_support(10, (5, 8))
    vectors = [ex.a for ex in UniformSource(x1, seed=21, eta=0.0).take(25)]
    ex1 = [LabeledExample(a, a.dot(x1)) for a in vectors]
    ex2 = [LabeledExample(a, a.dot(x2)) for a in vectors]
    assert inner.run(ex1) == x1
    assert inner.run(ex2) == x2
    assert inner.run(ex1) == x1


@settings(deadline=None, max_examples=25)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_mitm_inner_matches_exhaustive_consistency(seed):
    rng = SplitMix64(seed)
    n = 6 + rng.below(5)
    k = rng.below(min(3, n) + 1)
    hidden = gen_hidden(n, k, rng.next_u64())
    examples = UniformSource(hidden, seed=rng.next_u64(), eta=0.0).take(
        2 + rng.below(12)
    )
    consistent = [
        BitVector.from_support(n, support)
        for support in __import__("itertools").combinations(range(n), k)
        if all(ex.a.dot(BitVector.from_support(n, support)) == ex.label
               for ex in examples)
    ]
    got = MitmInner(n, k).run(examples)
    if len(consistent) == 1:
        assert got == consistent[0]
    else:
        assert got is None


def test_mitm_inner_tables_follow_the_example_vectors():
    # a second stream of different vectors must not reuse the first's tables
    inner = MitmInner(10, 2)
    x = BitVector.from_support(10, (2, 6))
    first = UniformSource(x, seed=1, eta=0.0).take(20)
    second = UniformSource(x, seed=2, eta=0.0).take(20)
    assert inner.candidates(first, 0) == [x]
    assert inner.candidates(second, 0) == [x]
    assert inner.run(first) == x


# ---------------------------------------------------------------------------
# decoding hook against the flip-set loop


def _primary(n, k, s_prime, seed):
    """s' examples of a hidden weight-k parity, about a quarter of the
    labels flipped, so short streams give shared syndromes and misses."""
    rng = SplitMix64(seed)
    hidden = gen_hidden(n, k, rng.next_u64())
    examples = []
    for _ in range(s_prime):
        a = BitVector(n, rng.bits(n))
        examples.append(LabeledExample(a, a.dot(hidden) ^ (rng.below(4) == 0)))
    return examples


@settings(deadline=None, max_examples=60)
@given(
    st.integers(min_value=6, max_value=24),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=2**64 - 1),
)
def test_mitm_candidates_match_the_flip_set_loop(n, k, s_prime, budget, seed):
    budget = min(budget, s_prime)
    primary = _primary(n, k, s_prime, seed)
    assert MitmInner(n, k).candidates(primary, budget) == loop_candidates(
        MitmInner(n, k), primary, budget
    )


def test_mitm_candidates_keep_the_loop_order_across_sizes():
    # four examples leave many weight-1 vectors ambiguous and spread the
    # rest over flip sets of every size up to the budget
    primary = _primary(9, 1, 4, 77)
    got = MitmInner(9, 1).candidates(primary, 3)
    assert len(got) > 1
    assert got == loop_candidates(MitmInner(9, 1), primary, 3)


def test_mitm_candidates_empty_when_no_flip_set_decodes():
    hidden = gen_hidden(8, 2, 5)
    honest = UniformSource(hidden, seed=6, eta=0.0).take(30)
    inverted = [LabeledExample(ex.a, ex.label ^ 1) for ex in honest]
    assert MitmInner(8, 2).candidates(inverted, 0) == []
    assert loop_candidates(MitmInner(8, 2), inverted, 0) == []


@pytest.mark.parametrize("n,k", [(7, 5), (9, 6), (6, 6), (5, 7)])
def test_mitm_candidates_weight_above_half(n, k):
    for seed in range(5):
        primary = _primary(n, min(k, n), 8, seed)
        for budget in range(3):
            assert MitmInner(n, k).candidates(
                primary, budget
            ) == loop_candidates(MitmInner(n, k), primary, budget)


@pytest.mark.parametrize("n,k", [(12, 2), (10, 0), (7, 5), (9, 6), (5, 7)])
def test_mitm_candidates_at_budget_zero_are_one_run(n, k):
    for seed in range(6):
        for s_prime in (1, 4, 12):
            primary = _primary(n, min(k, n), s_prime, seed)
            inner = MitmInner(n, k)
            x = inner.run(primary)
            got = inner.candidates(primary, 0)
            assert got == ([] if x is None else [x])
            assert got == loop_candidates(MitmInner(n, k), primary, 0)


@pytest.mark.parametrize(
    "n,k,eta,s_prime,seed",
    [(24, 2, 0.05, 40, 6), (24, 2, 0.05, 40, 7), (12, 2, 0.05, 20, 60),
     (12, 3, 0.1, 16, 61), (10, 0, 0.05, 14, 62), (16, 1, 0.1, 10, 63)],
)
def test_reports_match_on_both_paths(n, k, eta, s_prime, seed):
    params = NoisyParams.from_counts(eta=eta, delta=0.2, s_prime=s_prime)
    master = SplitMix64(seed)
    for _ in range(3):
        hidden = gen_hidden(n, k, master.next_u64())
        source_seed = master.next_u64()
        reports = []
        hook_inner, runs = MitmInner(n, k), []
        # every budget here is positive, so the hook never calls run
        hook_inner.run = runs.append
        for inner in (hook_inner, RunOnly(MitmInner(n, k))):
            source = UniformSource(hidden, seed=source_seed, eta=eta)
            try:
                reports.append(noisy_learn_report(inner, source, params))
            except NoCandidatesError:
                reports.append(None)
            assert source.draws == params.s_prime + (
                0 if reports[-1] is None else params.s_doubleprime
            )
        hook, loop = reports
        assert runs == []
        if hook is None or loop is None:
            assert hook is loop
            continue
        assert hook.output == loop.output
        assert hook.candidate_count == loop.candidate_count
        assert hook.inner_invocations == loop.inner_invocations
        assert hook.inner_invocations == flip_set_count(
            params.s_prime, params.flip_budget
        )
        assert hook.samples_drawn == loop.samples_drawn


# ---------------------------------------------------------------------------
# chart-learner inner


def test_pac_online_inner_recovers_and_is_reusable():
    inner = PacOnlineInner(16, 2, t=4, alpha=2, delta=0.05, rng_seed=9)
    hidden = gen_hidden(16, 2, 45)
    examples = UniformSource(hidden, seed=46, eta=0.0).take(120)
    assert inner.run(examples) == hidden
    assert inner.run(examples) == hidden


def test_pac_online_inner_declines_on_contradiction():
    inner = PacOnlineInner(16, 2, t=4, alpha=2, delta=0.05, rng_seed=9)
    a = BitVector.from_support(16, (0,))
    examples = [LabeledExample(a, 0), LabeledExample(a, 1)] * 40
    assert inner.run(examples) is None


def test_pac_online_inner_declines_on_wrong_weight():
    # a weight-3 target either breaks chart consistency or survives with
    # the wrong popcount; both must come back as a decline
    inner = PacOnlineInner(16, 2, t=4, alpha=2, delta=0.05, rng_seed=9)
    hidden = BitVector.from_support(16, (0, 5, 9))
    examples = UniformSource(hidden, seed=44, eta=0.0).take(120)
    assert inner.run(examples) is None


def test_pac_online_inner_sample_complexity_formula():
    inner = PacOnlineInner(16, 2, t=4, alpha=2, delta=0.05, rng_seed=9)
    bound = inner.mistake_bound
    assert inner.sample_complexity(0.1) == (bound + 1) * survival_threshold(
        bound, 0.1
    )


# ---------------------------------------------------------------------------
# chart-learner inner: prefix-sharing hook against the flip-set loop


@functools.lru_cache(maxsize=None)
def _chart_inner(n, k, delta):
    return PacOnlineInner(n, k, t=4, alpha=2, delta=delta, rng_seed=n * 10 + k)


def _stream(kind, n, k, s_prime, seed):
    """Streams that end replays at every exit of the PAC driver.

    ``honest``: a weight-k parity.  ``noisy``: the same with about a
    quarter of the labels flipped.  ``contradictory``: each vector twice,
    with both labels.  ``wrong-weight``: an honest weight-(k+1) parity.
    ``zero``: every label 0, which survives as the zero vector.
    """
    rng = SplitMix64(seed)
    if kind == "contradictory":
        vectors = [BitVector(n, rng.bits(n)) for _ in range((s_prime + 1) // 2)]
        pairs = [LabeledExample(a, y) for a in vectors for y in (0, 1)]
        return pairs[:s_prime]
    if kind == "zero":
        return [LabeledExample(BitVector(n, rng.bits(n)), 0) for _ in range(s_prime)]
    weight = k + 1 if kind == "wrong-weight" else k
    hidden = gen_hidden(n, weight, rng.next_u64())
    examples = []
    for _ in range(s_prime):
        a = BitVector(n, rng.bits(n))
        flip = kind == "noisy" and rng.below(4) == 0
        examples.append(LabeledExample(a, a.dot(hidden) ^ flip))
    return examples


def _exit(inner, examples):
    """Which exit ends the replay of ``examples`` through a fresh learner."""
    learner = LearnerState(inner.family)
    params = PacParams(delta=inner.delta, sample_budget=len(examples))
    try:
        x = pac_learn(learner, ReplaySource(examples), params)
    except BudgetExhaustedError:
        return "budget"
    except AllChartsEmptyError:
        return "empty"
    if x.popcount() != inner.k:
        return "popcount"
    return "identified" if isinstance(learner.status(), Identified) else "threshold"


STREAM_KINDS = ("noisy", "contradictory", "wrong-weight", "zero", "honest")


@settings(deadline=None, max_examples=100)
@given(
    st.integers(min_value=8, max_value=20),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=24),
    st.integers(min_value=0, max_value=3),
    st.sampled_from(STREAM_KINDS),
    st.sampled_from((0.01, 0.25)),
    st.integers(min_value=0, max_value=2**64 - 1),
)
def test_chart_candidates_match_the_flip_set_loop(
    n, k, s_prime, budget, kind, delta, seed
):
    budget = min(budget, s_prime)
    inner = _chart_inner(n, k, delta)
    primary = _stream(kind, n, k, s_prime, seed)
    assert inner.candidates(primary, budget) == loop_candidates(
        inner, primary, budget
    )


def test_chart_candidates_hit_every_exit():
    # the same streams as the property test, at fixed seeds: every exit
    # of the PAC driver ends some replay, and the lists still agree
    exits = set()
    for seed, (kind, s_prime, delta) in enumerate(
        [("honest", 24, 0.01), ("honest", 12, 0.25), ("honest", 3, 0.25),
         ("noisy", 20, 0.25), ("contradictory", 10, 0.25),
         ("wrong-weight", 24, 0.25), ("zero", 16, 0.25)]
    ):
        inner = _chart_inner(12, 2, delta)
        primary = _stream(kind, 12, 2, s_prime, seed)
        exits.update(
            _exit(inner, apply_flips(primary, flip_set))
            for flip_set in flip_set_iterator(s_prime, 2)
        )
        for budget in range(4):
            assert inner.candidates(primary, budget) == loop_candidates(
                inner, primary, budget
            )
    assert exits == {"identified", "threshold", "budget", "empty", "popcount"}


def test_chart_candidates_keep_at_most_budget_plus_one_learners(monkeypatch):
    inner = _chart_inner(12, 2, 0.25)
    primary = _stream("noisy", 12, 2, 20, 5)
    alive = weakref.WeakSet()
    peak = [0]
    forks = [0]
    make = LearnerState.__init__
    fork = LearnerState.fork
    step = LearnerState.step

    def init(self, *args, **kwargs):
        make(self, *args, **kwargs)
        alive.add(self)

    def counted_fork(self):
        forks[0] += 1
        twin = fork(self)
        alive.add(twin)
        return twin

    def counted_step(self, a, y):
        peak[0] = max(peak[0], len(alive))
        return step(self, a, y)

    monkeypatch.setattr(LearnerState, "__init__", init)
    monkeypatch.setattr(LearnerState, "fork", counted_fork)
    monkeypatch.setattr(LearnerState, "step", counted_step)
    for budget in range(4):
        peak[0] = forks[0] = 0
        inner.candidates(primary, budget)
        assert 0 < peak[0] <= budget + 1
        assert (forks[0] > 0) == (budget > 0)
        assert len(alive) == 0


def test_chart_candidates_skip_flip_sets_past_the_stop(monkeypatch):
    # all-zero labels never cost a mistake, so the unflipped replay stops
    # at the survival threshold; one flip past that point is never run
    inner = _chart_inner(12, 2, 0.25)
    primary = _stream("zero", 12, 2, 20, 3)
    root = ReplaySource(primary)
    pac_learn(
        LearnerState(inner.family), root,
        PacParams(delta=inner.delta, sample_budget=len(primary)),
    )
    assert 0 < root.draws < len(primary)
    forks = []
    fork = LearnerState.fork
    monkeypatch.setattr(
        LearnerState, "fork", lambda self: forks.append(1) or fork(self)
    )
    got = inner.candidates(primary, 1)
    assert len(forks) == root.draws
    assert got == loop_candidates(inner, primary, 1)


def test_chart_candidates_flip_the_last_example():
    # an honest stream cut where the replay certifies, with its last label
    # flipped: only the flip set of the last index recovers the hidden
    # vector, so the walk must fork before the very last draw and replay
    # that fork to the end of the stream
    inner = _chart_inner(12, 2, 0.25)
    hidden = gen_hidden(12, 2, 8)
    honest = UniformSource(hidden, seed=9).take(60)
    probe = ReplaySource(honest)
    assert pac_learn(
        LearnerState(inner.family), probe,
        PacParams(delta=inner.delta, sample_budget=len(honest)),
    ) == hidden
    primary = apply_flips(honest[:probe.draws], (probe.draws - 1,))
    assert inner.run(primary) is None
    assert inner.candidates(primary, 1) == [hidden]
    assert loop_candidates(inner, primary, 1) == [hidden]


def test_gate7_reports_match_on_both_paths():
    # gate 7's setup: the hook reproduces the loop's reports trial by
    # trial and runs the inner learner zero times
    params = NoisyParams.from_counts(eta=0.01, delta=0.25, s_prime=67)
    inner = PacOnlineInner(48, 2, t=12, alpha=2, delta=0.01, rng_seed=7700)
    loop_path = RunOnly(inner)
    runs = []
    inner.run = runs.append  # records any run call on the hook path
    master = SplitMix64(7)
    for _ in range(10):
        hidden = gen_hidden(48, 2, master.next_u64())
        source_seed = master.next_u64()
        reports, draws = [], []
        for path in (inner, loop_path):
            source = UniformSource(hidden, seed=source_seed, eta=0.01)
            try:
                reports.append(noisy_learn_report(path, source, params))
            except NoCandidatesError:
                reports.append(None)
            draws.append(source.draws)
        hook, loop = reports
        assert draws[0] == draws[1]
        if hook is None or loop is None:
            assert hook is loop
            continue
        assert hook.output == loop.output
        assert hook.candidate_count == loop.candidate_count
        assert hook.inner_invocations == loop.inner_invocations == 68
        assert hook.samples_drawn == loop.samples_drawn == draws[0]
    assert runs == []
