"""Tests for the chart-based online mistake-bound learner."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparseparity.cover import CoverFamily, CoverParams, round_robin_parts
from sparseparity.errors import AllChartsEmptyError, BudgetExceededError
from sparseparity.gf2 import AffineSpace, BitVector, dot, insert_row, reduce_rows
from sparseparity.online import (
    LearnerState,
    back_substitute,
    learner_update,
    new_learner,
)
from sparseparity.sources import UniformSource, gen_hidden

from chart_reference import ReferenceLearner

V = BitVector.from01


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
    """A chart's solution set as packed global vectors, zero off-support."""
    space = AffineSpace.full(n)
    for i in range(n):
        if not (chart.support >> i) & 1:
            space = space.constrain(BitVector.from_support(n, [i]), 0)
    for mask, rhs in chart.rows:
        space = space.constrain(BitVector(n, mask), rhs)
    return {p.value for p in space.points()}


def canonical_rows(rows):
    """Canonical RREF of a chart's stored rows, inserted one by one."""
    canon = []
    for mask, rhs in rows:
        residual, rhs = reduce_rows(canon, mask, rhs)
        assert residual, "stored rows must be independent"
        canon = insert_row(canon, residual, rhs)
    return canon


def assert_pivot_free(chart):
    """No stored row contains the pivot (lowest set bit) of an earlier row."""
    pivots = 0
    for mask, _ in chart.rows:
        assert mask and not mask & ~chart.support
        assert not mask & pivots
        pivots |= mask & -mask


def embedded_union(state, max_points=1 << 20):
    """All global vectors across charts, as packed ints."""
    if state.mass > max_points:
        raise BudgetExceededError("chart union too large to enumerate")
    union = set()
    for chart in state.charts:
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
        assert state.charts
        for chart in state.charts:
            assert chart.dim <= bound
            assert chart.dim == chart.support.bit_count()
            assert chart.support >> 8 == 0
            assert chart.rows == []

    def test_initial_mass_bound(self):
        state = new_learner(8, 1, 2, 2, rng_seed=0)
        m = state.family.m
        assert state.initial_mass == state.mass
        assert state.mass <= m * 2 ** (2 * math.ceil(8 / 4))

    def test_same_seed_same_state(self):
        a = new_learner(16, 2, 4, 2, rng_seed=5)
        b = new_learner(16, 2, 4, 2, rng_seed=5)
        assert a.charts == b.charts
        assert (a.initial_mass, a.mass) == (b.initial_mass, b.mass)

    def test_family_is_verified_at_small_scale(self):
        state = new_learner(16, 2, 4, 2, rng_seed=1)
        assert state.family.verified

    def test_duplicate_subsets_collapse_to_one_chart(self):
        state = hand_state(4, 1, 2, 2, [(0, 1), (0, 1), (2, 3)])
        assert len(state.charts) == 2

    def test_construction_survives_unverifiable_family(self, monkeypatch, caplog):
        def explode(params, seed):
            raise BudgetExceededError("forced for test")

        monkeypatch.setattr("sparseparity.cover.build_verified_family", explode)
        state = new_learner(16, 2, 4, 2, rng_seed=1)
        assert not state.family.verified
        assert state.charts
        assert any("unverified" in r.message for r in caplog.records)


class TestFork:
    @staticmethod
    def snapshot(state):
        return (
            list(state.charts), state.mistakes, state.rounds,
            state.initial_mass, state.mass,
        )

    def test_stepping_a_fork_leaves_the_original_unchanged(self):
        state = new_learner(16, 2, 4, 2, rng_seed=3)
        hidden = gen_hidden(16, 2, 4)
        examples = UniformSource(hidden, seed=5).take(12)
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
        examples = UniformSource(hidden, seed=7).take(10)
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
        before = list(state.charts)
        state.fork().step(V("101"), 1)
        assert state.charts == before
        assert (state.initial_mass, state.mass, state.rounds) == (8, 4, 1)

    def test_raises_when_no_charts(self):
        state = hand_state(2, 1, 1, 2, [(0, 1)])
        state.step(V("10"), 0)
        with pytest.raises(AllChartsEmptyError):
            state.step(V("10"), 1)
        with pytest.raises(AllChartsEmptyError):
            state.fork().step(V("10"), 0)

    def test_length_checked(self):
        state = hand_state(3, 1, 1, 3, [(0, 1, 2)])
        with pytest.raises(ValueError):
            state.fork().step(V("10"), 0)


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
        assert state.charts == []
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
        at most m, no chart holds more rows than its dimension, and no
        stored row contains the pivot of an earlier row in its chart."""
        for flip in (0, 1):
            state = new_learner(16, 2, 4, 2, rng_seed=2)
            src = UniformSource(gen_hidden(16, 2, 6), seed=9)
            live = state.family.m
            for _ in range(200):
                assert len(state.charts) <= live
                live = len(state.charts)
                assert all(len(c.rows) <= c.dim for c in state.charts)
                for chart in state.charts:
                    assert_pivot_free(chart)
                if not state.charts or state.identified() is not None:
                    break
                ex = src.next_example()
                try:
                    # a complemented stream fits no parity: every chart dies
                    state.step(ex.a, ex.label ^ flip)
                except AllChartsEmptyError:
                    pass
            assert state.rounds > 0
            assert bool(state.charts) == (state.identified() is not None)
            for chart in state.charts:
                assert_pivot_free(chart)


class TestBackSubstitute:
    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_canonical_point(self, data):
        n = data.draw(st.integers(min_value=1, max_value=10))
        point = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
        masks = data.draw(
            st.lists(st.integers(min_value=1, max_value=(1 << n) - 1), max_size=14)
        )
        rows = []
        space = AffineSpace.full(n)
        # Consistent constraints, inserted as learner_update inserts them
        # and into the canonical space.
        for mask in masks:
            rhs = (mask & point).bit_count() & 1
            residual, forced = reduce_rows(rows, mask, rhs)
            if residual:
                rows = [*rows, (residual, forced)]
            space = space.constrain(BitVector(n, mask), rhs)
        assert len(rows) == space.rank
        canonical = sum(bv.value & -bv.value for bv, r in space.rows if r)
        assert back_substitute(rows) == canonical
        if space.rank == n:
            assert back_substitute(rows) == space.sole_point().value == point


class TestBestHypothesis:
    def test_prefers_most_constrained_chart(self):
        state = hand_state(5, 1, 1, 5, [(0, 1, 2), (3, 4)])
        learner_update(state, V("10000"), 1)
        # Chart {0,1,2} now has 4 points; chart {3,4} kept 2 of 4 after
        # the zero-projection constraint forced... the zero projection on
        # {3,4} forces label 0, contradicting y=1: that chart dies.
        assert len(state.charts) == 1
        h = state.best_hypothesis()
        assert h is not None
        assert h.n == 5
        assert h.bit(0) == 1  # consistent with the constraint <e0,f>=1

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
        assert state.identified() == BitVector.zeros(6)
        assert state.mistake_bound == 0


class TestLocalReferenceEquivalence:
    """Round-by-round agreement with the local-coordinate reference learner.

    Charts are compared as support masks with the canonical RREF of their
    stored rows, which fixes the solution sets; on the hand-built families
    the solution sets themselves are enumerated and compared as global
    vectors too.
    """

    def assert_same_state(self, state, ref, points):
        assert state.mistakes == ref.mistakes
        assert state.rounds == ref.rounds
        assert state.initial_mass == ref.mass_history[0]
        assert state.mass == ref.mass_history[-1]
        assert len(state.charts) == len(ref.charts)
        assert state.identified() == ref.identified()
        assert state.best_hypothesis() == ref.best_hypothesis()
        assert [
            (c.support, canonical_rows(c.rows)) for c in state.charts
        ] == ref.global_charts()
        for chart in state.charts:
            assert_pivot_free(chart)
        if points:
            for i, chart in enumerate(state.charts):
                assert chart_points(chart, state.n) == ref.global_points(i)

    def drive(self, state, examples, points=False):
        """Feed both learners the same (a, y) pairs; returns rounds run."""
        ref = ReferenceLearner(state.n, state.k, state.family)
        self.assert_same_state(state, ref, points)
        for rounds, (a, y) in enumerate(examples):
            if state.identified() is not None:
                return rounds
            try:
                expected = ref.step(a, y)
            except AllChartsEmptyError:
                with pytest.raises(AllChartsEmptyError):
                    state.step(a, y)
                self.assert_same_state(state, ref, points)
                return rounds + 1
            assert state.step(a, y) == expected
            self.assert_same_state(state, ref, points)
        return len(examples)

    def honest(self, hidden, seed, count):
        src = UniformSource(hidden, seed=seed)
        return [(ex.a, ex.label) for ex in src.take(count)]

    @pytest.mark.parametrize(
        "n,k,t,alpha", [(64, 3, 12, 2), (96, 2, 16, 2), (32, 4, 8, 3)]
    )
    def test_gate_two_configs(self, n, k, t, alpha):
        for trial in range(2):
            state = new_learner(n, k, t, alpha, rng_seed=40 + trial)
            hidden = gen_hidden(n, k, 60 + trial)
            rounds = self.drive(state, self.honest(hidden, 80 + trial, 200))
            assert 0 < rounds < 200
            assert state.identified() == hidden

    def test_zero_sparsity(self):
        state = new_learner(6, 0, 3, 2, rng_seed=0)
        assert self.drive(state, self.honest(BitVector.zeros(6), 1, 5), True) == 0
        ref = ReferenceLearner(6, 0, state.family)
        for a, y in self.honest(BitVector.zeros(6), 2, 5):
            assert state.step(a, y) == ref.step(a, y)
            self.assert_same_state(state, ref, True)

    def test_duplicate_subsets_and_dying_charts(self):
        # Six parts {j, j + 6}; the hidden vector {0, 2} lies in parts 0
        # and 2, so only the two charts over those parts survive: (0, 2)
        # once deduplicated, and (2, 0) with the same support.
        family = hand_family(
            12, 1, 3, 2, [(0, 2), (1, 3), (0, 2), (4, 5), (0, 1), (2, 0)]
        )
        hidden = BitVector.from_support(12, [0, 2])
        state = LearnerState(family)
        rounds = self.drive(state, self.honest(hidden, 3, 60), True)
        assert len(state.charts) == 2
        assert 0 < rounds < 60

    def test_every_chart_dies(self):
        family = hand_family(8, 1, 2, 2, [(0, 1), (2, 3), (0, 1), (1, 2)])
        src = UniformSource(BitVector.zeros(8), seed=7)
        examples = [(ex.a, 1) for ex in src.take(40)]
        state = LearnerState(family)
        assert self.drive(state, examples, True) < 40
        assert state.charts == []
        assert state.best_hypothesis() is None
