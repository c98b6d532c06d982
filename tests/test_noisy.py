"""Tests for the mislabel-set enumeration reduction and its inner learners."""

import functools
import itertools
import logging
import math
import tracemalloc
import weakref
from dataclasses import asdict
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sparseparity.errors import (
    AllChartsEmptyError,
    BudgetExceededError,
    BudgetExhaustedError,
    InconsistentStreamError,
    LengthMismatchError,
    NoCandidatesError,
)
from sparseparity import noisy
from sparseparity.gf2 import BitVector
from sparseparity.noisy import (
    MitmInner,
    NoisyParams,
    PacOnlineInner,
    agreement_select,
    entropy,
    flip_set_count,
    noisy_learn_report,
)
from sparseparity.online import LearnerState, new_learner
from sparseparity.pac import PacParams, pac_learn
from sparseparity.rng import SplitMix64
from sparseparity.sources import LabeledExample, UniformSource, gen_hidden

from baseline_reference import (
    MitmLookup,
    brute_force_candidates,
    brute_force_horizon,
    brute_force_owners,
    join_owners,
    list_candidates,
    syndrome_owners,
)
from bit_reference import bits, dot, from01, list_disagreements
from chart_reference import decode_charts
from replay_source import ReplaySource


def take(source, count):
    """The next ``count`` examples of ``source``, in draw order."""
    return [source.next_example() for _ in range(count)]


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
    """A reference ``run`` with the flip-set loop as its ``candidates``."""

    def __init__(self, reference):
        self.run = reference.run


class ReplayRun(LoopInner):
    """A chart inner learner's ``run`` as one replay of the whole list
    through ``pac_learn`` and a :class:`ReplaySource`, with the flip-set
    loop as its ``candidates``."""

    def __init__(self, inner):
        self.inner = inner

    def run(self, examples):
        inner = self.inner
        params = PacParams(delta=inner.delta, sample_budget=len(examples))
        try:
            x = pac_learn(inner._start.fork(), ReplaySource(examples), params)
        except (BudgetExhaustedError, InconsistentStreamError):
            return None
        return x if x.popcount() == inner.k else None


class ListInner:
    """Inner learner that hands over a fixed candidate list."""

    def __init__(self, listed):
        self.listed = listed

    def candidates(self, primary, flip_budget):
        return self.listed


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
    for p in (-0.01, 1.01, math.nan):
        with pytest.raises(ValueError, match=r"must be in \[0, 1\]"):
            entropy(p)


@given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_entropy_symmetric_and_bounded(p):
    h = entropy(p)
    assert 0.0 <= h <= 1.0
    assert h == pytest.approx(entropy(1.0 - p), abs=1e-9)


# ---------------------------------------------------------------------------
# flip budgets and flip-set enumeration


def flip_budget(eta, s_prime):
    return NoisyParams(eta=eta, delta=0.1, s_prime=s_prime).flip_budget


def test_flip_budget_examples():
    assert flip_budget(0.05, 40) == 3
    assert flip_budget(0.05, 39) == 2
    assert flip_budget(0.01, 67) == 1
    assert flip_budget(0.2, 10) == 3


def test_flip_budget_matches_exact_fraction():
    for eta, s in [(0.05, 40), (0.1, 20), (0.25, 33), (0.01, 400)]:
        exact = Fraction(3, 2) * Fraction(eta) * s
        assert flip_budget(eta, s) == math.floor(exact)


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


def test_flip_set_count_stops_at_the_first_total_over_the_limit():
    # 1 + 10 + 45 + 120: the sum stops at 176 once it passes the limit
    assert flip_set_count(10, 3, limit=176) == 176
    assert flip_set_count(10, 3, limit=175) == 176
    assert flip_set_count(10, 3, limit=56) == 176
    assert flip_set_count(10, 3, limit=55) == 56
    assert flip_set_count(10, 3, limit=0) == 1
    # a budget of 7.5e9 sizes stops after the second
    assert flip_set_count(10**11, 75 * 10**8, limit=10**7) == 10**11 + 1


def test_apply_flips_involution_and_no_aliasing():
    src = UniformSource(BitVector.from_support(10, (2, 7)), seed=13, eta=0.0)
    examples = take(src, 6)
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
    # the budget is derived from eta and s_prime, so it cannot be passed in
    with pytest.raises(TypeError):
        NoisyParams(eta=0.05, delta=0.2, s_prime=40, flip_budget=4)


def test_tampered_verification_count_rejected():
    # s'' is derived from eta, delta and s_prime, so it cannot be passed in
    with pytest.raises(TypeError):
        NoisyParams(eta=0.05, delta=0.2, s_prime=40, s_doubleprime=12417)
    params = NoisyParams(eta=0.05, delta=0.2, s_prime=40)
    assert params == NoisyParams.from_counts(eta=0.05, delta=0.2, s_prime=40)
    assert params.s_doubleprime == 12417
    # ... but it is a field all the same
    assert asdict(params) == {
        "eta": 0.05, "delta": 0.2, "s_prime": 40, "s_doubleprime": 12417,
    }


def test_param_domain_errors():
    with pytest.raises(ValueError):
        NoisyParams.from_counts(eta=0.0, delta=0.2, s_prime=10)
    with pytest.raises(ValueError):
        NoisyParams.from_counts(eta=1.0 / 3.0, delta=0.2, s_prime=10)
    with pytest.raises(ValueError):
        NoisyParams.from_counts(eta=0.05, delta=1.0, s_prime=10)
    with pytest.raises(ValueError):
        NoisyParams.from_counts(eta=0.05, delta=0.0, s_prime=10)
    assert NoisyParams.from_counts(eta=0.05, delta=0.2, s_prime=1).s_prime == 1
    with pytest.raises(ValueError):
        NoisyParams.from_counts(eta=0.05, delta=0.2, s_prime=0)
    # 8 / delta overflows to inf, so s'' would be ceil(inf)
    for delta in (1e-320, 5e-324):
        with pytest.raises(ValueError, match="not finite"):
            NoisyParams.from_counts(eta=0.05, delta=delta, s_prime=10)
    # s' * H(3 eta / 2) is past the float range, or its product with 600
    for s_prime in (10**400, 10**306):
        with pytest.raises(ValueError, match="not finite"):
            NoisyParams.from_counts(eta=0.05, delta=0.2, s_prime=s_prime)


# ---------------------------------------------------------------------------
# candidate selection by verification agreement


def replay_select(candidates, verif):
    """agreement_select over every example of a list."""
    return agreement_select(candidates, ReplaySource(verif), len(verif))


def test_agreement_single_candidate():
    x = BitVector.from_support(8, (1,))
    assert replay_select([x], []) == 0


def test_agreement_tie_prefers_lowest_index():
    x = BitVector.from_support(8, (1,))
    y = BitVector.from_support(8, (1,))
    for source in (UniformSource(x, seed=2), ReplaySource(
            take(UniformSource(x, seed=2), 20))):
        assert agreement_select([x, y], source, 10) == 0
        assert agreement_select([y, x], source, 10) == 0
        assert source.draws == 20


def test_agreement_rejects_empty_candidate_list():
    with pytest.raises(ValueError):
        replay_select([], [])
    source = UniformSource(BitVector.from_support(8, (1,)), seed=2)
    with pytest.raises(ValueError, match="at least one candidate"):
        agreement_select([], source, 10)
    assert source.draws == 0  # raised before any draw


def test_agreement_separates_hidden_from_impostor():
    hidden = BitVector.from_support(16, (1, 5))
    impostor = BitVector.from_support(16, (2, 9))
    source = UniformSource(hidden, seed=31, eta=0.05)
    assert agreement_select([impostor, hidden], source, 200) == 1


def test_agreement_tie_between_distinct_candidates_goes_lowest():
    x = BitVector.from_support(4, (0,))
    y = BitVector.from_support(4, (1,))
    z = BitVector.from_support(4, (2,))
    verif = [
        LabeledExample(BitVector.from_support(4, (0,)), 1),  # x right
        LabeledExample(BitVector.from_support(4, (1,)), 1),  # y right
        LabeledExample(BitVector.from_support(4, (3,)), 1),  # all wrong
    ]
    assert replay_select([z, y, x], verif) == 1
    assert replay_select([x, y, z], verif) == 0


@pytest.mark.parametrize("candidates", [
    [BitVector.from_support(9, (1,))],
    [BitVector.from_support(8, (1,)), BitVector.from_support(9, (1,))],
])
def test_agreement_rejects_wrong_length_candidate(candidates):
    hidden = BitVector.from_support(8, (2,))
    verif = take(UniformSource(hidden, seed=1), 5)
    for source in (UniformSource(hidden, seed=1), ReplaySource(verif)):
        with pytest.raises(LengthMismatchError):
            agreement_select(candidates, source, 5)
        assert source.draws == 0  # raised before any draw


def test_agreement_lone_candidate_is_chosen_unscored():
    x = BitVector.from_support(8, (1,))
    verif = [LabeledExample(BitVector.from_support(8, (1,)), 0)] * 3
    assert replay_select([x], verif) == 0
    assert replay_select([x, x], []) == 0
    source = UniformSource(BitVector.from_support(8, (2,)), seed=5, eta=0.3)
    assert agreement_select([x], source, 1000) == 0
    assert source.draws == 1000


def test_agreement_margin_logged_only_at_debug(caplog):
    hidden = BitVector.from_support(16, (1, 5))
    impostor = BitVector.from_support(16, (2, 9))
    with caplog.at_level(logging.INFO, logger="sparseparity.noisy"):
        source = UniformSource(hidden, seed=31, eta=0.05)
        agreement_select([impostor, hidden], source, 200)
    assert not caplog.records
    with caplog.at_level(logging.DEBUG, logger="sparseparity.noisy"):
        source = UniformSource(hidden, seed=31, eta=0.05)
        agreement_select([impostor, hidden], source, 200)
    assert any("agreement margin" in r.message for r in caplog.records)


def test_agreement_lone_candidate_logs_no_margin(caplog):
    # a lone candidate has no runner-up, so it is not scored, even at DEBUG
    hidden = BitVector.from_support(16, (1, 5))
    with caplog.at_level(logging.DEBUG, logger="sparseparity.noisy"):
        source = UniformSource(hidden, seed=31, eta=0.05)
        assert agreement_select([hidden], source, 200) == 0
    assert not caplog.records
    assert source.draws == 200


def list_agreement_select(candidates, verif):
    """The list-based scoring agreement_select used before it streamed:
    lengths checked up front, then one pass over the whole list per
    candidate."""
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
    disagreements = list_disagreements(candidates, verif)
    best = min(range(len(candidates)), key=disagreements.__getitem__)
    if verif:
        runner_up = min(d for i, d in enumerate(disagreements) if i != best)
        logging.getLogger("sparseparity.noisy").debug(
            "agreement margin: best %.4f, runner-up %.4f (of %d examples)",
            disagreements[best] / len(verif),
            runner_up / len(verif),
            len(verif),
        )
    return best


@given(
    st.one_of(st.sampled_from([1, 24, 63, 64, 65, 128, 129]),
              st.integers(1, 200)),
    st.sampled_from([0.0, 0.05, 0.3]),
    st.integers(2, 4),
    st.one_of(st.sampled_from([0, 1, 127, 128, 129, 255, 256, 257]),
              st.integers(0, 700)),
    st.data(),
)
@settings(deadline=None, max_examples=200)
def test_streamed_agreement_matches_list_scoring(
    n, eta, count, verif_len, data
):
    """agreement_select picks list_agreement_select's candidate, starting
    anywhere in a block, and leaves the source as drawing would.  The
    source's own scorer is held to list_disagreements in
    tests/test_sources.py."""
    vec = st.integers(0, (1 << n) - 1).map(lambda v: BitVector(n, v))
    candidates = data.draw(st.lists(vec, min_size=count, max_size=count))
    if data.draw(st.booleans()):
        candidates.append(candidates[0])  # an exact tie
    hidden = data.draw(st.sampled_from(candidates))
    seed = data.draw(st.integers(0, 2**64 - 1))
    before = data.draw(st.integers(0, 300))
    source = UniformSource(hidden, seed=seed, eta=eta)
    twin = UniformSource(hidden, seed=seed, eta=eta)
    take(source, before)
    take(twin, before)
    verif = take(twin, verif_len)
    assert agreement_select(candidates, source, verif_len) == (
        list_agreement_select(candidates, verif)
    )
    assert source.draws == twin.draws
    assert source.next_example() == twin.next_example()


def test_streamed_agreement_logs_the_list_margin(caplog):
    hidden = BitVector.from_support(16, (1, 5))
    candidates = [BitVector.from_support(16, (2, 9)), hidden, BitVector(16)]
    verif = take(UniformSource(hidden, seed=31, eta=0.05), 200)
    with caplog.at_level(logging.DEBUG, logger="sparseparity.noisy"):
        list_agreement_select(candidates, verif)
        agreement_select(candidates, UniformSource(hidden, seed=31, eta=0.05), 200)
        agreement_select(candidates, ReplaySource(verif), 200)
    listed, lanes, replayed = [r.getMessage() for r in caplog.records]
    assert lanes == replayed == listed


@pytest.mark.parametrize(
    "count, replay",
    [
        pytest.param(0, False, id="0"),
        pytest.param(1, False, id="1"),
        pytest.param(3, False, id="3"),
        pytest.param(0, True, id="0-replay"),
        pytest.param(1, True, id="1-replay"),
        pytest.param(3, True, id="3-replay"),
    ],
)
def test_report_streams_verification_like_the_list_path(count, replay):
    """No candidate stops after s' draws. One candidate skips the s''
    examples and two or more have the source score them; either way the
    output matches scoring a list of the same examples, and the source
    ends where s' + s'' draws would."""
    hidden = gen_hidden(24, 2, 71)
    candidates = [hidden, gen_hidden(24, 2, 72), gen_hidden(24, 2, 73)][:count]
    params = NoisyParams.from_counts(eta=0.05, delta=0.2, s_prime=40)
    total = params.s_prime + params.s_doubleprime
    stream = take(UniformSource(hidden, seed=74, eta=0.05), total + 1)
    if replay:
        source = ReplaySource(stream)
    else:
        source = UniformSource(hidden, seed=74, eta=0.05)
    if not count:
        with pytest.raises(NoCandidatesError):
            noisy_learn_report(ListInner(candidates), source, params)
        assert source.draws == params.s_prime
        return
    report = noisy_learn_report(ListInner(candidates), source, params)
    verif = stream[params.s_prime:total]
    assert report.output == candidates[list_agreement_select(candidates, verif)]
    assert report.samples_drawn == source.draws == total
    assert source.next_example() == stream[total]


@pytest.mark.parametrize("replay", [False, True])
def test_driver_rejects_a_lone_candidate_of_the_wrong_length(replay):
    hidden = gen_hidden(24, 2, 85)
    params = NoisyParams.from_counts(eta=0.05, delta=0.2, s_prime=40)
    source = UniformSource(hidden, seed=86, eta=0.05)
    if replay:
        source = ReplaySource(take(source, params.s_prime + params.s_doubleprime))
    with pytest.raises(LengthMismatchError):
        noisy_learn_report(ListInner([gen_hidden(25, 2, 87)]), source, params)
    assert source.draws == params.s_prime


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
    honest = take(UniformSource(hidden, seed=6, eta=0.0), 30)
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


def test_flip_set_limit_admits_a_count_equal_to_it():
    params = NoisyParams.from_counts(eta=0.3, delta=0.2, s_prime=20)
    total = flip_set_count(params.s_prime, params.flip_budget)
    hidden = gen_hidden(8, 2, 1)
    report = noisy_learn_report(
        ListInner([hidden]), UniformSource(hidden, seed=3), params,
        flip_set_limit=total,
    )
    assert report.inner_invocations == total


def test_default_flip_set_limit_is_ten_million():
    # at budget 8, 30 examples have 8 656 937 flip sets and 31 have
    # 11 460 949; the inner is handed the list, so neither is enumerated
    under = NoisyParams.from_counts(eta=0.18, delta=0.2, s_prime=30)
    over = NoisyParams.from_counts(eta=0.18, delta=0.2, s_prime=31)
    assert under.flip_budget == over.flip_budget == 8
    hidden = gen_hidden(8, 2, 1)
    report = noisy_learn_report(
        ListInner([hidden]), UniformSource(hidden, seed=3, eta=0.18), under
    )
    assert report.inner_invocations == 8_656_937
    source = UniformSource(hidden, seed=3, eta=0.18)
    with pytest.raises(BudgetExceededError, match="11460949"):
        noisy_learn_report(ListInner([hidden]), source, over)
    assert source.draws == 0


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


def test_mitm_inner_recovers_unique_hidden():
    hidden = BitVector.from_support(8, (1, 4))
    examples = take(UniformSource(hidden, seed=3, eta=0.0), 20)
    assert MitmInner(8, 2).run(examples) == hidden


def test_mitm_inner_declines_when_ambiguous():
    hidden = BitVector.from_support(8, (1, 4))
    examples = take(UniformSource(hidden, seed=3, eta=0.0), 1)
    assert MitmInner(8, 2).run(examples) is None


def test_mitm_inner_declines_when_inconsistent():
    a = from01("11000000")
    examples = [LabeledExample(a, 0), LabeledExample(a, 1)]
    assert MitmInner(8, 2).run(examples) is None


def test_mitm_inner_weight_zero():
    inner = MitmInner(6, 0)
    a = from01("101010")
    assert inner.run([LabeledExample(a, 0)]) == BitVector(6)
    assert inner.run([LabeledExample(a, 1)]) is None


def test_mitm_inner_cache_survives_label_changes():
    # the same vectors with different labels: answers track the labels
    inner = MitmInner(10, 2)
    x1 = BitVector.from_support(10, (0, 3))
    x2 = BitVector.from_support(10, (5, 8))
    vectors = [ex.a for ex in take(UniformSource(x1, seed=21, eta=0.0), 25)]
    ex1 = [LabeledExample(a, dot(a, x1)) for a in vectors]
    ex2 = [LabeledExample(a, dot(a, x2)) for a in vectors]
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
    examples = take(
        UniformSource(hidden, seed=rng.next_u64(), eta=0.0), 2 + rng.below(12)
    )
    consistent = [
        BitVector.from_support(n, support)
        for support in itertools.combinations(range(n), k)
        if all(dot(ex.a, BitVector.from_support(n, support)) == ex.label
               for ex in examples)
    ]
    got = MitmInner(n, k).run(examples)
    assert got == MitmLookup(n, k).run(examples)
    if len(consistent) == 1:
        assert got == consistent[0]
    else:
        assert got is None


def test_mitm_inner_tables_follow_the_example_vectors():
    # a second stream of different vectors gets syndromes of its own
    inner = MitmInner(10, 2)
    x = BitVector.from_support(10, (2, 6))
    first = take(UniformSource(x, seed=1, eta=0.0), 20)
    second = take(UniformSource(x, seed=2, eta=0.0), 20)
    assert inner.candidates(first, 0) == [x]
    assert inner.candidates(second, 0) == [x]
    assert inner.run(first) == x


def _at_length(n, examples):
    return [LabeledExample(BitVector(n, ex.a.value), ex.label) for ex in examples]


def _call(inner, method, examples):
    if method == "run":
        return inner.run(examples)
    return inner.candidates(examples, 1)


@pytest.mark.parametrize("method", ["run", "candidates"])
def test_mitm_inner_checks_lengths_before_the_cache(method):
    # the same values as length-9 vectors must not reach the length-8 map
    hidden = BitVector.from_support(8, (1, 4))
    examples = take(UniformSource(hidden, seed=3, eta=0.0), 20)
    inner = MitmInner(8, 2)
    assert inner.run(examples) == hidden
    with pytest.raises(ValueError):
        _call(inner, method, _at_length(9, examples))
    assert inner.run(examples) == hidden


@pytest.mark.parametrize("method", ["run", "candidates"])
def test_mitm_inner_rejects_a_wrong_length_stream_every_time(method):
    # a rejected stream raises every time, never answering from the old map
    inner = MitmInner(8, 2)
    inner.run(take(UniformSource(from01("01001000"), 3, 0.0), 20))
    other = take(UniformSource(BitVector.from_support(9, (2, 7)), 5, 0.0), 20)
    for _ in range(2):
        with pytest.raises(ValueError):
            _call(inner, method, other)


def test_mitm_inner_keeps_no_state_between_calls(monkeypatch):
    # each call walks its own syndromes, so a walk cut short leaves
    # nothing behind and the inner holds only n and k
    hidden = BitVector.from_support(8, (1, 4))
    first = take(UniformSource(hidden, seed=3, eta=0.0), 20)
    second = take(UniformSource(hidden, seed=4, eta=0.0), 20)
    inner = MitmInner(8, 2)
    assert inner.run(first) == hidden
    assert inner.candidates(first, 2)

    def interrupted(columns, k, op, unit):
        raise MemoryError

    with monkeypatch.context() as patch:
        patch.setattr(noisy, "subset_chunks", interrupted)
        with pytest.raises(MemoryError):
            inner.run(second)
    assert inner.run(second) == hidden
    assert vars(inner) == {"n": 8, "k": 2}


# ---------------------------------------------------------------------------
# syndrome map against the coordinate-split join and brute force


@st.composite
def example_rows(draw):
    """(n, k, rows): up to 70 rows of n <= 16 bits, k <= 6 (so k > n
    occurs), some rows repeated and some columns forced to zero, so that
    supports share syndromes."""
    n = draw(st.integers(min_value=0, max_value=16))
    k = draw(st.integers(min_value=0, max_value=6))
    s_prime = draw(st.integers(min_value=0, max_value=70))
    value = st.integers(min_value=0, max_value=(1 << n) - 1)
    pool = draw(st.lists(value, min_size=1, max_size=6))
    zero_columns = draw(value)
    rows = draw(
        st.lists(
            st.one_of(st.sampled_from(pool), value),
            min_size=s_prime,
            max_size=s_prime,
        )
    )
    return n, k, [row & ~zero_columns for row in rows]


@settings(deadline=None, max_examples=80)
@given(example_rows())
@example((0, 0, []))
@example((3, 5, [1, 2, 3]))
@example((5, 2, [0b00011] * 7))
@example((16, 6, [0] * 70))
def test_syndrome_owners_match_the_join_and_brute_force(case):
    n, k, rows = case
    vectors = [BitVector(n, row) for row in rows]
    owners = syndrome_owners(rows, n, k)
    assert owners == join_owners(vectors, n, k)
    owned = {
        syndrome: BitVector.from_support(n, support)
        for syndrome, support in owners.items()
        if support is not None
    }
    examples = [LabeledExample(v, 0) for v in vectors]
    assert owned == brute_force_owners(examples, n, k)


@settings(deadline=None, max_examples=80)
@given(example_rows(), st.integers(0, (1 << 70) - 1))
@example((0, 0, []), 0)
@example((3, 5, [1, 2, 3]), 0b101)
@example((5, 2, [0b00011] * 7), 0b1010101)
@example((4, 2, [0b0011, 0b0111, 0b0011, 0b0100]), 0b0110)
def test_mitm_candidates_decode_every_owned_syndrome(case, label_bits):
    """At a flip budget of every example, MitmInner lists every owned
    syndrome's vector in (|F|, F) order and no shared one."""
    n, k, rows = case
    examples = [
        LabeledExample(BitVector(n, row), (label_bits >> i) & 1)
        for i, row in enumerate(rows)
    ]
    got = MitmInner(n, k).candidates(examples, len(rows))
    assert got == brute_force_candidates(examples, n, k, len(rows))
    assert len(got) == len(brute_force_owners(examples, n, k))


def test_syndrome_owners_mark_shared_syndromes():
    # columns 0 and 1 are equal and column 3 is zero, so {0, 2} and
    # {1, 2} share a syndrome, and so do {0, 3} and {1, 3}
    rows = [0b0011, 0b0111, 0b0011, 0b0100]
    owners = syndrome_owners(rows, 4, 2)
    assert owners == {0b0000: (0, 1), 0b1101: None, 0b0111: None,
                      0b1010: (2, 3)}
    assert owners == join_owners([BitVector(4, r) for r in rows], 4, 2)


def test_syndrome_owners_reject_a_row_too_long():
    with pytest.raises(ValueError):
        syndrome_owners([1 << 8], 8, 2)


# ---------------------------------------------------------------------------
# decoding hook against the flip-set loop


def _primary(n, k, s_prime, seed):
    """s' examples of a hidden weight-k parity, about a quarter of the
    labels flipped, so short streams give shared syndromes and misses."""
    rng = SplitMix64(seed)
    hidden = gen_hidden(n, k, rng.next_u64())
    examples = []
    for _ in range(s_prime):
        a = BitVector(n, bits(rng, n))
        examples.append(LabeledExample(a, dot(a, hidden) ^ (rng.below(4) == 0)))
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
        MitmLookup(n, k), primary, budget
    )


def test_mitm_candidates_keep_the_loop_order_across_sizes():
    # four examples leave many weight-1 vectors ambiguous and spread the
    # rest over flip sets of every size up to the budget
    primary = _primary(9, 1, 4, 77)
    got = MitmInner(9, 1).candidates(primary, 3)
    assert len(got) > 1
    assert got == loop_candidates(MitmLookup(9, 1), primary, 3)


def test_mitm_candidates_empty_when_no_flip_set_decodes():
    hidden = gen_hidden(8, 2, 5)
    honest = take(UniformSource(hidden, seed=6, eta=0.0), 30)
    inverted = [LabeledExample(ex.a, ex.label ^ 1) for ex in honest]
    assert MitmInner(8, 2).candidates(inverted, 0) == []
    assert loop_candidates(MitmLookup(8, 2), inverted, 0) == []


@pytest.mark.parametrize("n,k", [(7, 5), (9, 6), (6, 6), (5, 7)])
def test_mitm_candidates_weight_above_half(n, k):
    for seed in range(5):
        primary = _primary(n, min(k, n), 8, seed)
        for budget in range(3):
            assert MitmInner(n, k).candidates(
                primary, budget
            ) == loop_candidates(MitmLookup(n, k), primary, budget)


@pytest.mark.parametrize("n,k", [(12, 2), (10, 0), (7, 5), (9, 6), (5, 7)])
def test_mitm_candidates_at_budget_zero_are_one_run(n, k):
    for seed in range(6):
        for s_prime in (1, 4, 12):
            primary = _primary(n, min(k, n), s_prime, seed)
            inner = MitmInner(n, k)
            x = MitmLookup(n, k).run(primary)
            got = inner.candidates(primary, 0)
            assert got == ([] if x is None else [x])
            assert inner.run(primary) == x


@st.composite
def decode_cases(draw):
    """(n, k, examples, budget): n from 10 to 70 with C(n, k) at most
    30 000, or n below k; labels near a hidden weight-k vector's, so that
    budgets above 0 find candidates, and some rows repeated."""
    k = draw(st.integers(min_value=0, max_value=6))
    if draw(st.booleans()) and k:
        n = draw(st.integers(min_value=0, max_value=k - 1))
    else:
        n = draw(st.integers(min_value=10, max_value=70))
        while math.comb(n, k) > 30_000:
            n -= 1
    s_prime = draw(st.integers(min_value=0, max_value=40))
    seed = draw(st.integers(min_value=0, max_value=2**64 - 1))
    examples = _primary(n, min(k, n), s_prime, seed)
    repeats = draw(st.lists(st.integers(0, max(s_prime - 1, 0)), max_size=4))
    examples += [examples[i] for i in repeats if examples]
    budget = draw(st.sampled_from((0, 1, 2, len(examples))))
    return n, k, examples, budget


@settings(deadline=None, max_examples=80)
@given(decode_cases())
@example((10, 0, _primary(10, 0, 5, 1), 0))
@example((3, 5, _primary(3, 3, 6, 2), 6))
@example((40, 3, _primary(40, 3, 30, 3), 2))
@example((70, 2, _primary(70, 2, 40, 4), 3))
def test_mitm_candidates_match_the_list_decode(case):
    n, k, examples, budget = case
    assert MitmInner(n, k).candidates(examples, budget) == list_candidates(
        examples, n, k, budget
    )


def test_mitm_decode_holds_one_chunk_not_every_syndrome():
    # The list decode holds all C(40, 4) = 91 390 syndromes and a flag per
    # syndrome, about 4.3 MiB; one small int per syndrome alone would be
    # 2.4 MiB.  The chunked walk holds 780 pair syndromes, one chunk of at
    # most 741 entries and the hits.
    n, k = 40, 4
    hidden = BitVector.from_support(n, (3, 17, 18, 36))
    primary = take(UniformSource(hidden, seed=9, eta=0.0), 40)
    inner = MitmInner(n, k)
    tracemalloc.start()
    try:
        found = inner.candidates(primary, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert found == [hidden] == list_candidates(primary, n, k, 2)
    assert peak < math.comb(n, k) * 28 // 16


def test_mitm_decode_where_most_syndromes_are_hits_holds_less_than_the_list():
    # Four examples at flip budget 2 put 11 of every 16 syndromes near the
    # labels.  The decode then keeps a flip mask per hit and the marks of
    # every chunk, but builds no support for a hit it does not own, so it
    # still peaks below the list decode (one syndrome and one flag per
    # support, plus the hits).
    n, k = 30, 4
    hidden = BitVector.from_support(n, (2, 11, 12, 25))
    primary = take(UniformSource(hidden, seed=9, eta=0.0), 4)
    peaks = []
    for decode in (
        lambda: MitmInner(n, k).candidates(primary, 2),
        lambda: list_candidates(primary, n, k, 2),
    ):
        tracemalloc.start()
        try:
            found = decode()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert found == []
    assert peaks[0] < peaks[1]


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
        # the hook decodes from the syndrome map and never calls run
        hook_inner.run = runs.append
        for inner in (hook_inner, RunOnly(MitmLookup(n, k))):
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
    examples = take(UniformSource(hidden, seed=46, eta=0.0), 120)
    assert inner.run(examples) == hidden
    assert inner.run(examples) == hidden


def test_pac_online_inner_starts_from_new_learner(monkeypatch):
    # the same family and charts as new_learner, unverified families too
    for verify in (None, lambda family: (family, (0, 1))):
        if verify:
            monkeypatch.setattr("sparseparity.cover.verify_cover", verify)
        inner = PacOnlineInner(16, 2, t=4, alpha=2, delta=0.05, rng_seed=9)
        learner = new_learner(16, 2, 4, 2, rng_seed=9)
        assert inner.family == learner.family
        assert inner.family.verified == (verify is None)
        assert decode_charts(inner._start) == decode_charts(learner)
        assert inner.mistake_bound == learner.mistake_bound


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
    examples = take(UniformSource(hidden, seed=44, eta=0.0), 120)
    assert inner.run(examples) is None


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
        vectors = [BitVector(n, bits(rng, n)) for _ in range((s_prime + 1) // 2)]
        pairs = [LabeledExample(a, y) for a in vectors for y in (0, 1)]
        return pairs[:s_prime]
    if kind == "zero":
        return [LabeledExample(BitVector(n, bits(rng, n)), 0) for _ in range(s_prime)]
    weight = k + 1 if kind == "wrong-weight" else k
    hidden = gen_hidden(n, weight, rng.next_u64())
    examples = []
    for _ in range(s_prime):
        a = BitVector(n, bits(rng, n))
        flip = kind == "noisy" and rng.below(4) == 0
        examples.append(LabeledExample(a, dot(a, hidden) ^ flip))
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
    return "threshold" if learner.identified() is None else "identified"


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
# Replays that certify at the edge of their horizon.  The leaves (2,) and
# (4,) are identified before their survival runs complete: a leaf rule
# without the smallest-dim term, or with >=, loses both, and a rule with
# >= for the root, which has flips to spare, loses (4,).
@example(16, 1, 13, 1, "zero", 0.01, 540)
# At budget 2, (2,) forks (2, 16), which certifies 1544: the leaf rule
# applied to (2,) stops it before that fork.
@example(16, 3, 22, 2, "noisy", 0.25, 679)
# The leaf (0, 6) certifies 530 by its survival run while its charts still
# have more dimensions than the run lacks: a reach of threshold + run_length
# stops it first.
@example(15, 3, 21, 2, "zero", 0.25, 596)
def test_chart_candidates_match_the_flip_set_loop(
    n, k, s_prime, budget, kind, delta, seed
):
    budget = min(budget, s_prime)
    inner = _chart_inner(n, k, delta)
    primary = _stream(kind, n, k, s_prime, seed)
    assert inner.candidates(primary, budget) == loop_candidates(
        ReplayRun(inner), primary, budget
    )


@settings(deadline=None, max_examples=100)
@given(
    st.integers(min_value=8, max_value=20),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=24),
    st.sampled_from(STREAM_KINDS),
    st.sampled_from((0.01, 0.25)),
    st.integers(min_value=0, max_value=2**64 - 1),
)
def test_chart_candidates_at_budget_zero_are_one_replay(
    n, k, s_prime, kind, delta, seed
):
    inner = _chart_inner(n, k, delta)
    primary = _stream(kind, n, k, s_prime, seed)
    x = ReplayRun(inner).run(primary)
    assert inner.candidates(primary, 0) == ([] if x is None else [x])
    assert inner.run(primary) == x


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
                ReplayRun(inner), primary, budget
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
        # a fresh learner is a fork of the shared start; count the walk's
        forks[0] += self is not inner._start
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

    def counted_fork(self):
        # a fresh learner is a fork of the shared start; count the walk's
        if self is not inner._start:
            forks.append(1)
        return fork(self)

    monkeypatch.setattr(LearnerState, "fork", counted_fork)
    got = inner.candidates(primary, 1)
    assert len(forks) == root.draws
    assert got == loop_candidates(ReplayRun(inner), primary, 1)


def test_chart_candidates_flip_the_last_example():
    # an honest stream cut where the replay certifies, with its last label
    # flipped: only the flip set of the last index recovers the hidden
    # vector, so the walk must fork before the very last draw and replay
    # that fork to the end of the stream
    inner = _chart_inner(12, 2, 0.25)
    hidden = gen_hidden(12, 2, 8)
    honest = take(UniformSource(hidden, seed=9), 60)
    probe = ReplaySource(honest)
    assert pac_learn(
        LearnerState(inner.family), probe,
        PacParams(delta=inner.delta, sample_budget=len(honest)),
    ) == hidden
    primary = apply_flips(honest[:probe.draws], (probe.draws - 1,))
    assert inner.run(primary) is None
    assert inner.candidates(primary, 1) == [hidden]
    assert loop_candidates(ReplayRun(inner), primary, 1) == [hidden]


def test_gate7_reports_match_on_both_paths():
    # gate 7's setup: the hook reproduces the loop's reports trial by
    # trial and runs the inner learner zero times
    params = NoisyParams.from_counts(eta=0.01, delta=0.25, s_prime=67)
    inner = PacOnlineInner(48, 2, t=12, alpha=2, delta=0.01, rng_seed=7700)
    loop_path = ReplayRun(inner)
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


# ---------------------------------------------------------------------------
# chart-learner inner: horizons that stop hopeless replays


@st.composite
def horizon_cases(draw):
    """A stream of up to 30 examples over n <= 14 coordinates, k in 0-4
    (above n/2 and above n included), and flip sets of up to 3 indices,
    the empty one first."""
    n = draw(st.integers(min_value=1, max_value=14))
    k = draw(st.integers(min_value=0, max_value=4))
    s_prime = draw(st.integers(min_value=0, max_value=30))
    rows = draw(st.lists(
        st.integers(min_value=0, max_value=2**n - 1),
        min_size=s_prime, max_size=s_prime,
    ))
    labels = draw(st.lists(
        st.integers(min_value=0, max_value=1),
        min_size=s_prime, max_size=s_prime,
    ))
    examples = [LabeledExample(BitVector(n, a), y) for a, y in zip(rows, labels)]
    indices = st.integers(min_value=0, max_value=max(s_prime - 1, 0))
    flip_sets = draw(st.lists(
        st.sets(indices, max_size=3 if s_prime else 0), max_size=6,
    ))
    return n, k, examples, [()] + [tuple(sorted(f)) for f in flip_sets]


@settings(deadline=None, max_examples=150)
@given(horizon_cases())
# no weight-4 vector over 3 coordinates: every horizon is -1
@example((3, 4, [LabeledExample(BitVector(3, 5), 1)] * 2, [(), (1,)]))
def test_horizon_matches_brute_force(case):
    n, k, examples, flip_sets = case
    horizon = noisy._horizons(examples, n, k)
    for flips in flip_sets:
        assert horizon(flips) == brute_force_horizon(examples, n, k, flips)


# Three examples over three coordinates and a fourth holding all of them:
# the weight-1 syndromes, read backwards, are 0b1001, 0b0101 and 0b0011.
_EDGE_ROWS = (0b001, 0b010, 0b100, 0b111)


@pytest.mark.parametrize(
    "labels,flips,expected",
    [
        # 0b0000 lies below every syndrome: its one neighbour is 0b0011
        ((0, 0, 0, 0), (), 2),
        # 0b1111 lies above every syndrome: its one neighbour is 0b1001
        ((1, 1, 1, 1), (), 1),
        # equal to 0b0101 once example 3 is flipped: the whole stream
        ((0, 1, 0, 0), (3,), 4),
        ((0, 1, 0, 1), (), 4),
        # between 0b0101 and 0b1001, nearer the lower one
        ((0, 1, 1, 0), (), 2),
        # between 0b0011 and 0b0101, nearer the upper one
        ((0, 1, 0, 0), (), 3),
    ],
)
def test_horizon_at_the_ends_of_the_sorted_syndromes(labels, flips, expected):
    examples = [
        LabeledExample(BitVector(3, a), y) for a, y in zip(_EDGE_ROWS, labels)
    ]
    assert brute_force_horizon(examples, 3, 1, flips) == expected
    assert noisy._horizons(examples, 3, 1)(flips) == expected


@settings(deadline=None, max_examples=60)
@given(
    st.integers(min_value=8, max_value=16),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=24),
    st.integers(min_value=0, max_value=3),
    st.sampled_from(STREAM_KINDS),
    st.sampled_from((0.01, 0.25)),
    st.integers(min_value=0, max_value=2**64 - 1),
)
# A chart pinned at dimension 0 but not identified leaves a reach of 0:
# a stop rule without max(1, ...) draws the horizon's own example.
@example(11, 2, 10, 0, "zero", 0.01, 190)
def test_chart_replays_never_draw_past_their_horizon(
    n, k, s_prime, budget, kind, delta, seed
):
    # a leaf must still be able to certify after each draw; a replay with
    # flips to spare may draw its horizon's example, to fork there
    budget = min(budget, s_prime)
    inner = _chart_inner(n, k, delta)
    primary = _stream(kind, n, k, s_prime, seed)
    drawn = {}
    draw = noisy._ForkingReplay.next_example

    def recorded(self):
        ex = draw(self)
        drawn.setdefault(self.flips, []).append(self.start + self.draws - 1)
        return ex

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(noisy._ForkingReplay, "next_example", recorded)
        inner.candidates(primary, budget)
    for flips, indices in drawn.items():
        horizon = brute_force_horizon(primary, n, k, flips)
        assert max(indices) < horizon + (len(flips) < budget)


def _steps(monkeypatch):
    """A counter of ``LearnerState.step`` calls, from now on."""
    count = [0]
    step = LearnerState.step

    def counted(self, a, y):
        count[0] += 1
        return step(self, a, y)

    monkeypatch.setattr(LearnerState, "step", counted)
    return count


def test_chart_horizon_is_built_up_to_the_enumeration_budget(monkeypatch):
    # C(12, 2) = 66 syndromes: a budget of 66 builds the horizon, 65 runs
    # every replay to its end, with the same candidates
    inner = _chart_inner(12, 2, 0.25)
    primary = _stream("noisy", 12, 2, 20, 5)
    count = _steps(monkeypatch)
    rounds = {}
    lists = {}
    for budget in (66, 65):
        monkeypatch.setattr("sparseparity.cover.ENUMERATION_BUDGET", budget)
        count[0] = 0
        lists[budget] = inner.candidates(primary, 2)
        rounds[budget] = count[0]
    assert lists[66] == lists[65]
    assert rounds[66] < rounds[65]


def test_chart_candidates_with_a_wrong_length_example():
    # a 17-bit example among 16-bit ones builds no horizon: a replay that
    # steps it raises, and one past every replay's stop leaves the list of
    # the clean stream; by example 15 every replay has stopped at budget 2
    inner = PacOnlineInner(16, 2, t=4, alpha=2, delta=0.25, rng_seed=162)
    clean = UniformSource(gen_hidden(16, 2, 5), seed=11, eta=0.05).examples(40)
    lists = ([1536], [1536, 24, 32800], [1536, 24, 32800, 320])
    for budget in range(3):
        assert [x.value for x in inner.candidates(clean, budget)] == lists[budget]
    for position in (0, 11, 15, 27, 39):
        primary = list(clean)
        primary[position] = LabeledExample(BitVector(17, 1 << 16 | 3), 1)
        for budget in range(3):
            if position < 15:
                with pytest.raises(ValueError, match="length 17"):
                    inner.candidates(primary, budget)
            else:
                got = inner.candidates(primary, budget)
                assert [x.value for x in got] == lists[budget]


def test_gate7_horizon_halves_the_rounds(monkeypatch):
    # the ten trials of test_gate7_reports_match_on_both_paths, with and
    # without the horizon: the same reports from at most 60% of the rounds
    params = NoisyParams.from_counts(eta=0.01, delta=0.25, s_prime=67)
    inner = PacOnlineInner(48, 2, t=12, alpha=2, delta=0.01, rng_seed=7700)
    count = _steps(monkeypatch)
    reports, rounds = [], []
    for budget in (math.comb(48, 2), math.comb(48, 2) - 1):
        monkeypatch.setattr("sparseparity.cover.ENUMERATION_BUDGET", budget)
        count[0] = 0
        master = SplitMix64(7)
        outcomes = []
        for _ in range(10):
            hidden = gen_hidden(48, 2, master.next_u64())
            source = UniformSource(hidden, seed=master.next_u64(), eta=0.01)
            try:
                outcomes.append(noisy_learn_report(inner, source, params))
            except NoCandidatesError:
                outcomes.append(None)
        reports.append(outcomes)
        rounds.append(count[0])
    assert reports[0] == reports[1]
    assert rounds[0] <= 0.6 * rounds[1]
