"""Tests for the mistake-bound to PAC conversion."""

import math

import pytest

from sparseparity.errors import BudgetExhaustedError, SourceExhaustedError
from sparseparity.gf2 import BitVector
from sparseparity.online import new_learner
from sparseparity.pac import PacParams, pac_learn, survival_threshold
from sparseparity.sources import (
    LabeledExample,
    ReplaySource,
    UniformSource,
    gen_hidden,
)


class TestPacParams:
    def test_defaults(self):
        p = PacParams()
        assert 0 < p.delta < 1

    @pytest.mark.parametrize("delta", [0.0, 1.0, -0.2])
    def test_delta_validated(self, delta):
        with pytest.raises(ValueError):
            PacParams(delta=delta)

    def test_budget_validated(self):
        with pytest.raises(ValueError):
            PacParams(sample_budget=-1)


class TestSurvivalThreshold:
    def test_union_bound_formula(self):
        assert survival_threshold(13, 0.1) == math.ceil(math.log2(14 / 0.1))
        assert survival_threshold(13, 0.1) == 8

    def test_zero_mistake_bound(self):
        assert survival_threshold(0, 0.5) == 1

    def test_at_least_one(self):
        assert survival_threshold(0, 0.9) == 1


class TestPacLearn:
    def test_zero_sparsity_needs_no_samples(self):
        learner = new_learner(6, 0, 3, 2, rng_seed=0)
        source = ReplaySource([])
        got = pac_learn(learner, source, PacParams(delta=0.1, sample_budget=0))
        assert got == BitVector.zeros(6)
        assert source.draws == 0

    def test_zero_budget_exhausts_for_positive_sparsity(self):
        learner = new_learner(16, 2, 4, 2, rng_seed=1)
        hidden = gen_hidden(16, 2, 2)
        source = UniformSource(hidden, seed=3)
        with pytest.raises(BudgetExhaustedError) as info:
            pac_learn(learner, source, PacParams(delta=0.1, sample_budget=0))
        assert info.value.samples_used == 0
        assert not info.value.certified
        assert isinstance(info.value.hypothesis, BitVector)

    def test_budget_exhausted_reports_samples(self):
        learner = new_learner(16, 2, 4, 2, rng_seed=1)
        hidden = gen_hidden(16, 2, 2)
        source = UniformSource(hidden, seed=3)
        with pytest.raises(BudgetExhaustedError) as info:
            pac_learn(learner, source, PacParams(delta=0.1, sample_budget=3))
        assert info.value.samples_used == 3
        assert source.draws == 3

    def test_replay_exhaustion_propagates(self):
        learner = new_learner(16, 2, 4, 2, rng_seed=1)
        hidden = gen_hidden(16, 2, 2)
        feed = UniformSource(hidden, seed=4).take(2)
        with pytest.raises(SourceExhaustedError):
            pac_learn(learner, ReplaySource(feed), PacParams(delta=0.1))

    def test_success_rate_at_small_scale(self):
        # 200 seeded trials at n=16, k=2, t=4, delta=0.1: the guarantee
        # is >= 1 - delta, and honest noiseless runs almost always reach
        # identification, so demand at least 90%.
        trials = 200
        hits = 0
        sample_records = []
        for seed in range(trials):
            learner = new_learner(16, 2, 4, 2, rng_seed=seed)
            hidden = gen_hidden(16, 2, 10_000 + seed)
            source = UniformSource(hidden, seed=20_000 + seed)
            got = pac_learn(learner, source, PacParams(delta=0.1))
            hits += got == hidden
            sample_records.append((source.draws, learner.mistake_bound))
        assert hits >= 0.90 * trials
        # Deterministic ceiling: at most (bound+1) runs, each shorter
        # than the survival threshold before its terminating mistake.
        for draws, bound in sample_records:
            threshold = survival_threshold(bound, 0.1)
            assert draws <= (bound + 1) * threshold

    def test_identified_result_is_certain_even_with_tiny_delta(self):
        learner = new_learner(16, 2, 4, 2, rng_seed=9)
        hidden = gen_hidden(16, 2, 5)
        source = UniformSource(hidden, seed=6)
        got = pac_learn(learner, source, PacParams(delta=0.999999 * 0.5))
        assert got.popcount() == 2

    def test_deterministic_given_seeds(self):
        results = []
        for _ in range(2):
            learner = new_learner(16, 2, 4, 2, rng_seed=31)
            hidden = gen_hidden(16, 2, 7)
            source = UniformSource(hidden, seed=8)
            results.append(pac_learn(learner, source, PacParams(delta=0.05)))
        assert results[0] == results[1]


class TestResume:
    """``run_length`` carries a mistake-free run over from earlier rounds."""

    @staticmethod
    def learner_and_vector():
        """A fresh learner, a vector and the learner's prediction for it."""
        learner = new_learner(16, 2, 4, 2, rng_seed=1)
        a = UniformSource(gen_hidden(16, 2, 2), seed=3).next_example().a
        return learner, a, learner.fork().step(a, 0)

    def test_one_run_short_certifies_after_one_correct_example(self):
        learner, a, guess = self.learner_and_vector()
        threshold = survival_threshold(learner.mistake_bound, 0.1)
        assert threshold > 1
        source = ReplaySource([LabeledExample(a, guess)] * 5)
        got = pac_learn(
            learner, source, PacParams(delta=0.1), run_length=threshold - 1
        )
        assert source.draws == 1
        assert learner.mistakes == 0
        assert got == learner.best_hypothesis()

    def test_a_mistake_resets_the_carried_run(self):
        learner, a, guess = self.learner_and_vector()
        threshold = survival_threshold(learner.mistake_bound, 0.1)
        wrong = LabeledExample(a, guess ^ 1)
        source = ReplaySource([wrong] * (threshold + 1))
        pac_learn(
            learner, source, PacParams(delta=0.1), run_length=threshold - 1
        )
        # the mistake restarts the run, which the repeats then fill
        assert learner.mistakes == 1
        assert source.draws == threshold + 1

    def test_default_starts_a_fresh_run(self):
        hidden = gen_hidden(16, 2, 2)
        draws = []
        results = []
        for resume in (False, True):
            learner = new_learner(16, 2, 4, 2, rng_seed=1)
            source = UniformSource(hidden, seed=3)
            extra = {"run_length": 0} if resume else {}
            results.append(pac_learn(learner, source, PacParams(delta=0.1), **extra))
            draws.append(source.draws)
        assert results[0] == results[1] == hidden
        assert draws[0] == draws[1]
