"""Tests for the chart-based online mistake-bound learner."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparseparity.cover import (
    SAMPLE_ATTEMPTS,
    CoverFamily,
    CoverParams,
    round_robin_parts,
    sample_family,
)
from sparseparity.errors import AllChartsEmptyError, BudgetExceededError
from sparseparity.gf2 import BitVector
from sparseparity.online import LearnerState, learner_update, new_learner
from sparseparity.sources import UniformSource, gen_hidden

from bit_reference import dot, from01
from chart_reference import ChartLearner, decode_charts, six_operation_update

V = from01


def take(source, count):
    """The next ``count`` examples of ``source``, in draw order."""
    return [source.next_example() for _ in range(count)]


def hand_family(n, k, t, alpha, subsets):
    params = CoverParams(n=n, k=k, t=t, alpha=alpha)
    return CoverFamily(
        params=params,
        parts=round_robin_parts(n, params.T),
        subsets=tuple(tuple(s) for s in subsets),
        verified=False,
    )


def hand_state(n, k, t, alpha, subsets):
    return LearnerState(hand_family(n, k, t, alpha, subsets))


def chart_points(chart, n):
    """A chart's solution set ``point + span(basis)`` as packed vectors."""
    points = [chart.point]
    for z in chart.basis:
        points += [p ^ z for p in points]
    return set(points)


def assert_canonical(chart):
    """The generator-form invariant of a stored chart.

    Basis vectors lie inside the support and have distinct highest bits in
    ascending order; no highest bit appears in another basis vector or in
    the point, and the point lies inside the support.
    """
    support, point, basis = chart
    assert all(basis) and len(basis) <= support.bit_count()
    tops = [1 << (z.bit_length() - 1) for z in basis]
    assert tops == sorted(set(tops))
    free = sum(tops)
    assert not point & ~support and not point & free
    for z, top in zip(basis, tops):
        assert not z & ~support and z & free == top


def embedded_union(state, max_points=1 << 20):
    """All global vectors across charts, as packed ints."""
    if state.mass > max_points:
        raise BudgetExceededError("chart union too large to enumerate")
    union = set()
    for chart in decode_charts(state):
        union |= chart_points(chart, state.n)
    return union


def run_honest(state, hidden, seed, max_rounds=500):
    """Drive the protocol with uniform honest examples until identified."""
    src = UniformSource(hidden, seed=seed)
    for _ in range(max_rounds):
        found = state.identified()
        if found is not None:
            return found
        ex = src.next_example()
        state.step(ex.a, ex.label)
    return None


class TestNewLearner:
    def test_chart_dimensions_bounded(self):
        state = new_learner(8, 1, 2, 2, rng_seed=0)
        T = 4
        bound = 2 * 1 * math.ceil(8 / T)
        assert decode_charts(state)
        for support, point, basis in decode_charts(state):
            assert support.bit_count() <= bound
            assert support >> 8 == 0
            assert point == 0
            assert basis == [1 << c for c in range(8) if (support >> c) & 1]

    def test_initial_mass_bound(self):
        state = new_learner(8, 1, 2, 2, rng_seed=0)
        m = state.family.m
        assert state.initial_mass == state.mass
        assert state.mass <= m * 2 ** (2 * math.ceil(8 / 4))

    def test_same_seed_same_state(self):
        a = new_learner(16, 2, 4, 2, rng_seed=5)
        b = new_learner(16, 2, 4, 2, rng_seed=5)
        assert decode_charts(a) == decode_charts(b)
        assert (a.initial_mass, a.mass) == (b.initial_mass, b.mass)

    def test_family_is_verified_at_small_scale(self):
        state = new_learner(16, 2, 4, 2, rng_seed=1)
        assert state.family.verified

    def test_duplicate_subsets_collapse_to_one_chart(self):
        state = hand_state(4, 1, 2, 2, [(0, 1), (0, 1), (2, 3)])
        assert len(decode_charts(state)) == 2

    def test_construction_survives_unverifiable_family(self, monkeypatch, caplog):
        def explode(family):
            raise BudgetExceededError("forced for test")

        monkeypatch.setattr("sparseparity.cover.verify_cover", explode)
        state = new_learner(16, 2, 4, 2, rng_seed=1)
        assert not state.family.verified
        assert decode_charts(state)
        assert any("unverified" in r.message for r in caplog.records)

    def test_an_unverified_learner_draws_each_attempt_once(self, monkeypatch):
        seeds = []

        def counted_sample(params, seed):
            seeds.append(seed)
            return sample_family(params, seed)

        monkeypatch.setattr("sparseparity.cover.sample_family", counted_sample)
        monkeypatch.setattr(
            "sparseparity.cover.verify_cover", lambda family: (family, (0, 1))
        )
        state = new_learner(16, 2, 4, 2, rng_seed=1)
        assert len(seeds) == SAMPLE_ATTEMPTS
        assert state.family == sample_family(CoverParams(16, 2, 4, 2), 1)


class TestFork:
    @staticmethod
    def snapshot(state):
        return (
            list(decode_charts(state)), state.mistakes, state.run_length,
            state.rounds, state.initial_mass, state.mass,
        )

    def test_stepping_a_fork_leaves_the_original_unchanged(self):
        state = new_learner(16, 2, 4, 2, rng_seed=3)
        hidden = gen_hidden(16, 2, 4)
        examples = take(UniformSource(hidden, seed=5), 12)
        for ex in examples[:3]:
            state.step(ex.a, ex.label)
        before = self.snapshot(state)
        twin = state.fork()
        assert self.snapshot(twin) == before
        for ex in examples[3:]:
            # the fork takes the wrong label too, so it makes mistakes
            twin.step(ex.a, ex.label ^ (ex.a.value & 1))
        assert twin.rounds == state.rounds + len(examples) - 3
        assert self.snapshot(state) == before
        assert twin.mistakes > state.mistakes

    def test_fork_continues_like_the_original(self):
        hidden = gen_hidden(16, 2, 6)
        examples = take(UniformSource(hidden, seed=7), 10)
        whole = new_learner(16, 2, 4, 2, rng_seed=8)
        resumed = new_learner(16, 2, 4, 2, rng_seed=8)
        for ex in examples[:4]:
            whole.step(ex.a, ex.label)
            resumed.step(ex.a, ex.label)
        twin = resumed.fork()
        for ex in examples[4:]:
            assert whole.step(ex.a, ex.label) == twin.step(ex.a, ex.label)
        assert self.snapshot(twin) == self.snapshot(whole)
        assert twin.identified() == whole.identified()


class TestRunLength:
    """``run_length`` counts the rounds since the learner's last mistake."""

    @staticmethod
    def replay(state, examples):
        """Step the examples until every chart dies; after each round, the
        learner's ``run_length`` and the run its predictions give."""
        run, runs = state.run_length, []
        for ex in examples:
            try:
                guess = state.step(ex.a, ex.label)
            except AllChartsEmptyError:
                break
            run = run + 1 if guess == ex.label else 0
            runs.append((state.run_length, run))
        return runs

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        eta=st.sampled_from((0.0, 0.1, 0.3)),
        cut=st.integers(min_value=0, max_value=30),
    )
    def test_matches_the_predictions_and_forks_carry_it(self, seed, eta, cut):
        whole = new_learner(16, 2, 4, 2, rng_seed=seed)
        part = whole.fork()
        assert whole.run_length == 0
        hidden = gen_hidden(16, 2, seed)
        examples = take(UniformSource(hidden, seed=seed, eta=eta), 30)
        runs = self.replay(whole, examples)
        assert all(own == recomputed for own, recomputed in runs)
        head = self.replay(part, examples[:cut])
        twin = part.fork()
        assert twin.run_length == part.run_length
        tail = self.replay(twin, examples[cut:])
        assert head + tail == runs


class TestPredict:
    """A step returns its prediction; stepping a fork leaves the learner."""

    def test_full_chart_ties_to_zero(self):
        state = hand_state(3, 1, 1, 3, [(0, 1, 2)])
        assert state.fork().step(V("111"), 1) == 0
        assert state.fork().step(V("100"), 1) == 0

    def test_forced_label_wins(self):
        state = hand_state(3, 1, 1, 3, [(0, 1, 2)])
        learner_update(state, V("110"), 1)
        assert state.fork().step(V("110"), 1) == 1

    def test_majority_across_two_charts(self):
        # Chart over {0,1,2} sees a zero projection: 8 points forced to
        # label 0.  Chart over {3,4} splits 2/2.  Masses 10 vs 2.
        state = hand_state(5, 1, 1, 5, [(0, 1, 2), (3, 4)])
        assert state.fork().step(V("00010"), 1) == 0

    def test_does_not_mutate_state(self):
        state = hand_state(3, 1, 1, 3, [(0, 1, 2)])
        learner_update(state, V("110"), 1)
        before = list(decode_charts(state))
        state.fork().step(V("101"), 1)
        assert decode_charts(state) == before
        assert (state.initial_mass, state.mass, state.rounds) == (8, 4, 1)

    def test_raises_when_no_charts(self):
        state = hand_state(2, 1, 1, 2, [(0, 1)])
        state.step(V("10"), 0)
        with pytest.raises(AllChartsEmptyError):
            state.step(V("10"), 1)
        with pytest.raises(AllChartsEmptyError):
            state.fork().step(V("10"), 0)

    @pytest.mark.parametrize("y", [0, 1])
    def test_no_live_chart_raises_before_the_counters_move(self, y):
        state = hand_state(2, 1, 1, 2, [(0, 1)])
        state.step(V("10"), 0)
        with pytest.raises(AllChartsEmptyError):
            state.step(V("10"), 1)
        counters = (state.rounds, state.mistakes, state.run_length)
        with pytest.raises(AllChartsEmptyError, match="no live charts"):
            state.step(V("01"), y)
        assert (state.rounds, state.mistakes, state.run_length) == counters

    def test_length_checked(self):
        state = hand_state(3, 1, 1, 3, [(0, 1, 2)])
        with pytest.raises(ValueError):
            state.fork().step(V("10"), 0)

    @pytest.mark.parametrize("y", [2, -1])
    def test_label_checked(self, y):
        state = hand_state(3, 1, 1, 3, [(0, 1, 2)])
        with pytest.raises(ValueError, match="label must be 0 or 1"):
            state.step(V("101"), y)
        assert (state.rounds, state.mass) == (0, state.initial_mass)


class TestLearnerUpdate:
    def test_repeat_update_is_noop_on_mass(self):
        state = hand_state(3, 1, 1, 3, [(0, 1, 2)])
        learner_update(state, V("101"), 1)
        first = state.mass
        learner_update(state, V("101"), 1)
        assert state.mass == first

    def test_contradiction_kills_single_chart(self):
        state = hand_state(3, 1, 1, 3, [(0, 1, 2)])
        learner_update(state, V("101"), 0)
        assert state.mass == 4
        with pytest.raises(AllChartsEmptyError):
            learner_update(state, V("101"), 1)
        assert decode_charts(state) == []
        assert state.mass == 0

    def test_hidden_vector_stays_in_union(self):
        state = new_learner(12, 2, 4, 2, rng_seed=3)
        hidden = gen_hidden(12, 2, 9)
        src = UniformSource(hidden, seed=21)
        for _ in range(60):
            if state.identified() is not None:
                break
            ex = src.next_example()
            state.step(ex.a, ex.label)
            assert hidden.value in embedded_union(state)

    def test_mass_never_increases(self):
        state = new_learner(12, 2, 4, 2, rng_seed=4)
        hidden = gen_hidden(12, 2, 11)
        src = UniformSource(hidden, seed=2)
        hist = [state.mass]
        for _ in range(60):
            if state.identified() is not None:
                break
            ex = src.next_example()
            state.step(ex.a, ex.label)
            hist.append(state.mass)
        assert len(hist) > 2
        assert all(b <= a for a, b in zip(hist, hist[1:]))

    def test_mistake_rounds_halve_mass(self):
        state = new_learner(16, 2, 4, 2, rng_seed=7)
        hidden = gen_hidden(16, 2, 13)
        src = UniformSource(hidden, seed=5)
        halvings = 0
        for _ in range(80):
            if state.identified() is not None:
                break
            ex = src.next_example()
            before = state.mass
            guess = state.step(ex.a, ex.label)
            if guess != ex.label:
                assert state.mass <= before // 2
                halvings += 1
        assert halvings == state.mistakes


class TestIdentified:
    def test_fresh_learner_active(self):
        state = new_learner(8, 1, 2, 2, rng_seed=0)
        assert state.identified() is None
        assert state.mistakes == 0

    def test_identified_after_independent_examples(self):
        state = new_learner(4, 1, 2, 2, rng_seed=1)
        hidden = gen_hidden(4, 1, 3)
        for i in range(4):
            a = BitVector.from_support(4, [i])
            state.step(a, dot(a, hidden))
        assert state.identified() == hidden

    def test_identified_via_random_stream_matches_hidden(self):
        for seed in range(5):
            state = new_learner(16, 2, 4, 2, rng_seed=seed)
            hidden = gen_hidden(16, 2, 100 + seed)
            got = run_honest(state, hidden, seed=200 + seed)
            assert got == hidden
            assert got.popcount() == 2

    def test_mistakes_bounded_by_log_initial_mass(self):
        for seed in range(5):
            state = new_learner(16, 2, 4, 2, rng_seed=seed)
            bound = state.mistake_bound
            assert bound == math.floor(math.log2(state.initial_mass))
            hidden = gen_hidden(16, 2, 50 + seed)
            assert run_honest(state, hidden, seed=300 + seed) == hidden
            assert state.mistakes <= bound


class TestOracleEquivalence:
    def consistent_weight_k(self, n, k, history):
        out = set()
        for support in itertools.combinations(range(n), k):
            f = BitVector.from_support(n, support)
            if all(dot(ex_a, f) == y for ex_a, y in history):
                out.add(f.value)
        return out

    def test_consistent_candidates_subset_of_union(self):
        n, k = 12, 2
        state = new_learner(n, k, 4, 2, rng_seed=8)
        hidden = gen_hidden(n, k, 77)
        src = UniformSource(hidden, seed=42)
        history = []
        for _ in range(40):
            if state.identified() is not None:
                break
            ex = src.next_example()
            state.step(ex.a, ex.label)
            history.append((ex.a, ex.label))
            brute = self.consistent_weight_k(n, k, history)
            union = embedded_union(state)
            assert brute <= union
        found = state.identified()
        assert found is not None
        assert self.consistent_weight_k(n, k, history) == {found.value}


class TestChartInvariants:
    def test_live_charts_and_ranks_stay_bounded(self):
        """Before and after every step: live charts never increase and stay
        at most m, and every chart is in canonical generator form."""
        for flip in (0, 1):
            state = new_learner(16, 2, 4, 2, rng_seed=2)
            src = UniformSource(gen_hidden(16, 2, 6), seed=9)
            live = state.family.m
            for _ in range(200):
                assert len(decode_charts(state)) <= live
                live = len(decode_charts(state))
                for chart in decode_charts(state):
                    assert_canonical(chart)
                if not decode_charts(state) or state.identified() is not None:
                    break
                ex = src.next_example()
                try:
                    # a complemented stream fits no parity: every chart dies
                    state.step(ex.a, ex.label ^ flip)
                except AllChartsEmptyError:
                    pass
            assert state.rounds > 0
            assert bool(decode_charts(state)) == (state.identified() is not None)
            for chart in decode_charts(state):
                assert_canonical(chart)


class TestBestHypothesis:
    def test_prefers_most_constrained_chart(self):
        state = hand_state(5, 1, 1, 5, [(0, 1, 2), (3, 4)])
        learner_update(state, V("10000"), 1)
        # Chart {0,1,2} now has 4 points; chart {3,4} kept 2 of 4 after
        # the zero-projection constraint forced... the zero projection on
        # {3,4} forces label 0, contradicting y=1: that chart dies.
        assert len(decode_charts(state)) == 1
        h = state.best_hypothesis()
        assert h is not None
        assert h.n == 5
        assert h.value & 1 == 1  # consistent with the constraint <e0,f>=1

    def test_none_when_everything_died(self):
        state = hand_state(2, 1, 1, 2, [(0, 1)])
        try:
            learner_update(state, V("10"), 0)
            learner_update(state, V("10"), 1)
        except AllChartsEmptyError:
            pass
        assert state.best_hypothesis() is None


class TestZeroSparsity:
    def test_identified_immediately(self):
        state = new_learner(6, 0, 3, 2, rng_seed=0)
        assert state.identified() == BitVector(6)
        assert state.mistake_bound == 0

    def test_zero_parts(self):
        # t = 0 gives no parts and one empty chart: the zero vector.
        state = new_learner(6, 0, 0, 2, rng_seed=0)
        assert (state.live_charts, state.initial_mass) == (1, 1)
        assert state.identified() == state.best_hypothesis() == BitVector(6)
        assert state.step(V("101100"), 0) == 0
        assert state.identified() == BitVector(6)
        with pytest.raises(AllChartsEmptyError):
            state.step(V("101100"), 1)

    def test_no_subsets(self):
        # n = 2T: a chart width below zero would be a negative shift
        state = hand_state(8, 1, 2, 2, [])
        assert (state.live_charts, state.initial_mass) == (0, 0)
        assert state.mistake_bound == 0
        assert state.identified() is None and state.best_hypothesis() is None


class TestInvalidFamilies:
    def test_parts_must_be_round_robin(self):
        params = CoverParams(n=4, k=1, t=1, alpha=2)
        family = CoverFamily(
            params=params, parts=((0, 1), (2, 3)), subsets=((0,),),
            verified=False,
        )
        with pytest.raises(ValueError, match="round-robin"):
            LearnerState(family)

    def test_a_subset_may_not_repeat_a_part(self):
        with pytest.raises(ValueError, match="twice"):
            hand_state(6, 1, 1, 3, [(0, 1), (2, 2)])

    def test_a_repeated_part_is_caught_among_repeated_subsets(self):
        with pytest.raises(ValueError, match="part 2 twice"):
            hand_state(6, 1, 1, 3, [(0, 1), (0, 1), (2, 2), (0, 1), (2, 2)])
        with pytest.raises(ValueError, match="part 0 twice"):
            hand_state(6, 1, 1, 3, [(1, 2), (0, 1, 0), (1, 2)])

    def test_a_part_out_of_range_is_not_laid_out(self):
        with pytest.raises(ValueError, match="part -1 is outside range"):
            hand_state(4, 1, 2, 2, [(-1, 0), (1, 2)])
        with pytest.raises(ValueError, match="part 4 is outside range"):
            hand_state(4, 1, 2, 2, [(1, 2), (0, 4)])


class TestChartReferenceEquivalence:
    """Round-by-round agreement with the per-chart learner it replaced.

    Every round compares the prediction, the counters, the live charts,
    ``identified()``, ``best_hypothesis()`` and the decoded charts, tuple
    for tuple.
    """

    @staticmethod
    def assert_same_state(state, ref):
        assert (state.mistakes, state.rounds) == (ref.mistakes, ref.rounds)
        assert (state.initial_mass, state.mass) == (ref.initial_mass, ref.mass)
        assert state.mistake_bound == ref.mistake_bound
        assert state.live_charts == len(ref.charts)
        assert state.identified() == ref.identified()
        assert state.best_hypothesis() == ref.best_hypothesis()
        assert decode_charts(state) == ref.charts

    def step_both(self, state, ref, a, y):
        """One round on both learners; False once every chart died."""
        try:
            expected = ref.step(a, y)
        except AllChartsEmptyError:
            with pytest.raises(AllChartsEmptyError):
                state.step(a, y)
            self.assert_same_state(state, ref)
            return False
        assert state.step(a, y) == expected
        self.assert_same_state(state, ref)
        return True

    def drive(self, family, examples, until_identified=False):
        state, ref = LearnerState(family), ChartLearner(family)
        self.assert_same_state(state, ref)
        for a, y in examples:
            if until_identified and ref.identified() is not None:
                break
            if not self.step_both(state, ref, a, y):
                break
        return state

    @staticmethod
    def stream(hidden, seed, count, eta=0.0, flip=0):
        src = UniformSource(hidden, seed=seed, eta=eta)
        return [(ex.a, ex.label ^ flip) for ex in take(src, count)]

    @pytest.mark.parametrize(
        "n,k,t,alpha", [(64, 3, 12, 2), (96, 2, 16, 2), (32, 4, 8, 3)]
    )
    def test_gate_two_configs(self, n, k, t, alpha):
        for trial in range(20):
            family = new_learner(n, k, t, alpha, rng_seed=500 + trial).family
            hidden = gen_hidden(n, k, 600 + trial)
            examples = self.stream(hidden, 700 + trial, 200)
            state = self.drive(family, examples, until_identified=True)
            assert state.identified() == hidden

    def test_forks_step_independently(self):
        family = new_learner(32, 2, 8, 2, rng_seed=9).family
        hidden = gen_hidden(32, 2, 10)
        honest = self.stream(hidden, 11, 40)
        noisy = self.stream(hidden, 12, 40, eta=0.3)
        state, ref = LearnerState(family), ChartLearner(family)
        for i, (a, y) in enumerate(honest[:25]):
            twin, ref_twin = state.fork(), ref.fork()
            # the fork sees other labels; the original must not notice
            for b, z in noisy[i:i + 6]:
                if not self.step_both(twin, ref_twin, b, z):
                    break
            self.assert_same_state(state, ref)
            if not self.step_both(state, ref, a, y):
                break

    @pytest.mark.parametrize("eta,flip", [(0.0, 0), (0.2, 0), (0.0, 1)])
    def test_duplicate_and_same_support_subsets(self, eta, flip):
        family = hand_family(
            12, 1, 3, 2,
            [(0, 2), (1, 3), (0, 2), (4, 5), (0, 1), (2, 0), (5, 4), (3, 1)],
        )
        hidden = BitVector.from_support(12, [0, 2])
        self.drive(family, self.stream(hidden, 3, 60, eta, flip))

    def test_subsets_of_different_sizes(self):
        family = hand_family(10, 1, 1, 5, [(0, 1, 2), (3, 4), (4,), (1, 3)])
        hidden = BitVector.from_support(10, [3, 4])
        for seed in range(5):
            self.drive(family, self.stream(hidden, seed, 40, 0.1))

    @pytest.mark.parametrize("flip", [0, 1])
    def test_zero_sparsity(self, flip):
        family = new_learner(6, 0, 3, 2, rng_seed=0).family
        state = self.drive(family, self.stream(BitVector(6), 5, 20, 0, flip))
        assert state.rounds > 0
        assert (state.live_charts == 0) == bool(flip)

    @pytest.mark.parametrize(
        "n,k,t,alpha", [(64, 3, 12, 2), (48, 2, 12, 2), (32, 4, 8, 3)]
    )
    def test_every_chart_dies(self, n, k, t, alpha):
        family = new_learner(n, k, t, alpha, rng_seed=n).family
        complemented = self.stream(gen_hidden(n, k, 1), 2, 80, flip=1)
        state = self.drive(family, complemented)
        assert state.live_charts == 0 and state.mass == 0
        assert decode_charts(state) == []
        assert state.identified() is None and state.best_hypothesis() is None
        with pytest.raises(AllChartsEmptyError):
            state.step(*complemented[0])

    def test_stride_below_a_byte(self):
        # n = T = 6 and subsets of at most two parts give a stride of
        # 2 + 2 = 4, so two charts start in every byte.
        pairs = list(itertools.combinations(range(6), 2))
        family = hand_family(6, 1, 3, 2, pairs + [(3,), (0, 5), (2,)])
        assert LearnerState(family)._starts & 0xFF == 0b10001
        hidden = BitVector.from_support(6, [1, 4])
        for seed in range(4):
            self.drive(family, self.stream(hidden, seed, 30, 0.1 * seed))

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_random_families_and_streams(self, data):
        alpha = data.draw(st.integers(min_value=2, max_value=4))
        t = data.draw(st.integers(min_value=1, max_value=4))
        T = alpha * t
        n = data.draw(st.integers(min_value=T, max_value=3 * T + 2))
        k = data.draw(st.integers(min_value=0, max_value=t))
        subsets = data.draw(
            st.lists(
                st.lists(
                    st.integers(min_value=0, max_value=T - 1),
                    unique=True, max_size=T,
                ).map(tuple),
                min_size=1, max_size=12,
            )
        )
        family = hand_family(n, k, t, alpha, subsets)
        hidden = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
        eta = data.draw(st.sampled_from((0.0, 0.1, 0.45)))
        seed = data.draw(st.integers(min_value=0, max_value=2**32))
        self.drive(family, self.stream(BitVector(n, hidden), seed, 30, eta))


class TestColumnUpdateReference:
    """Round by round, the four-operation column update leaves the columns,
    masks and counters the six-operation update left."""

    @staticmethod
    def assert_same_state(state, ref):
        assert state._cols == ref._cols
        assert (state._basis, state._live) == (ref._basis, ref._live)
        assert state._dims == ref._dims
        assert (state.mass, state.mistakes) == (ref.mass, ref.mistakes)
        assert (state.rounds, state.live_charts) == (ref.rounds, ref.live_charts)

    def step_both(self, state, ref, a, y):
        """One round on both learners; False once every chart died."""
        try:
            expected = six_operation_update(ref, a, y)
        except AllChartsEmptyError:
            with pytest.raises(AllChartsEmptyError):
                state.step(a, y)
            self.assert_same_state(state, ref)
            return False
        assert state.step(a, y) == expected
        self.assert_same_state(state, ref)
        return True

    @pytest.mark.parametrize(
        "n,k,t,alpha", [(64, 3, 12, 2), (96, 2, 16, 2), (32, 4, 8, 3)]
    )
    def test_gate_two_configs(self, n, k, t, alpha):
        for trial in range(4):
            family = new_learner(n, k, t, alpha, rng_seed=80 + trial).family
            state, ref = LearnerState(family), LearnerState(family)
            hidden = gen_hidden(n, k, 90 + trial)
            source = UniformSource(hidden, seed=trial)
            while ref.identified() is None:
                ex = source.next_example()
                self.step_both(state, ref, ex.a, ex.label)
            assert state.identified() == hidden

    def test_flipped_labels_until_every_chart_dies(self):
        family = new_learner(48, 2, 12, 2, rng_seed=5).family
        state, ref = LearnerState(family), LearnerState(family)
        source = UniformSource(gen_hidden(48, 2, 6), seed=7)
        for ex in take(source, 200):
            if not self.step_both(state, ref, ex.a, ex.label ^ 1):
                break
        assert state.live_charts == 0 and state.mass == 0

    def test_forks_step_independently(self):
        family = new_learner(48, 2, 12, 2, rng_seed=9).family
        hidden = gen_hidden(48, 2, 10)
        honest = take(UniformSource(hidden, seed=11), 40)
        noisy = take(UniformSource(hidden, seed=12, eta=0.3), 40)
        state, ref = LearnerState(family), LearnerState(family)
        for i, ex in enumerate(honest[:25]):
            twin, ref_twin = state.fork(), ref.fork()
            for other in noisy[i:i + 6]:
                if not self.step_both(twin, ref_twin, other.a, other.label):
                    break
            self.assert_same_state(state, ref)
            if not self.step_both(state, ref, ex.a, ex.label):
                break
