"""Tests for the reference learners."""

import itertools

import pytest

from sparseparity.baselines import (
    CandidateSet,
    Inconsistent,
    Underdetermined,
    UniqueSolution,
    gauss_learn,
    mitm_learn,
)
from sparseparity.cover import binom
from sparseparity.errors import BudgetExceededError, InconsistentStreamError
from sparseparity.gf2 import BitVector, dot
from sparseparity.online import Identified
from sparseparity.pac import PacParams, pac_learn
from sparseparity.rng import SplitMix64
from sparseparity.sources import LabeledExample, UniformSource, gen_hidden

V = BitVector.from01


def brute_force_consistent(examples, n, k):
    """Independent reference filter over all weight-k vectors."""
    out = []
    for support in itertools.combinations(range(n), k):
        f = BitVector.from_support(n, support)
        if all(dot(ex.a, f) == ex.label for ex in examples):
            out.append(f)
    return out


def random_examples(n, count, seed, labeler=None):
    rng = SplitMix64(seed)
    examples = []
    for _ in range(count):
        a = BitVector(n, rng.bits(n))
        y = labeler(a) if labeler else rng.below(2)
        examples.append(LabeledExample(a, y))
    return examples


class TestGaussLearn:
    def test_basis_rows_recover_any_vector(self):
        # Dense targets too: elimination does not rely on sparsity.
        for value in [0b10110011, 0b11111111, 0b00000001]:
            f = BitVector(8, value)
            examples = [
                LabeledExample(BitVector.from_support(8, [i]), f.bit(i))
                for i in range(8)
            ]
            assert gauss_learn(examples) == UniqueSolution(f)

    def test_contradiction_detected(self):
        a = V("1010")
        assert gauss_learn(
            [LabeledExample(a, 0), LabeledExample(a, 1)]
        ) == Inconsistent()

    def test_underdetermined_reports_rank(self):
        rng = SplitMix64(15)
        f = gen_hidden(8, 3, 2)
        examples = []
        seen_rank = 0
        while seen_rank < 5:
            a = BitVector(8, rng.bits(8))
            trial = examples + [LabeledExample(a, dot(a, f))]
            result = gauss_learn(trial)
            rank = result.rank if isinstance(result, Underdetermined) else 8
            if rank > seen_rank:
                examples = trial
                seen_rank = rank
        assert gauss_learn(examples) == Underdetermined(rank=5)

    def test_no_examples(self):
        assert gauss_learn([]) == Underdetermined(rank=0)

    def test_random_full_rank_run(self):
        f = gen_hidden(10, 4, 33)
        examples = random_examples(10, 40, 4, labeler=lambda a: dot(a, f))
        assert gauss_learn(examples) == UniqueSolution(f)


class TestCandidateSet:
    def test_initial_set_is_all_weight_k(self):
        cs = CandidateSet(5, 2)
        assert len(cs.survivors) == binom(5, 2)
        assert all(f.popcount() == 2 for f in cs.survivors)

    def test_budget_guard(self):
        with pytest.raises(BudgetExceededError):
            CandidateSet(40, 6, budget=10**5)

    def test_update_filters_on_label(self):
        cs = CandidateSet(4, 1)
        # Hidden e3 (third basis vector): <1100, e3> = 0 keeps {e3, e4}.
        cs.step(V("1100"), 0)
        assert {f.support() for f in cs.survivors} == {(2,), (3,)}

    def test_empty_survivors_is_inconsistent(self):
        cs = CandidateSet(3, 1)
        cs.step(V("111"), 1)
        with pytest.raises(InconsistentStreamError):
            cs.step(V("000"), 1)

    def test_predict_after_identification_is_exact(self):
        cs = CandidateSet(4, 1)
        f = BitVector.from_support(4, [2])
        for i in range(4):
            a = BitVector.from_support(4, [i])
            cs.step(a, dot(a, f))
        assert cs.survivors == [f]
        mistakes = cs.mistakes
        rng = SplitMix64(3)
        for _ in range(50):
            a = BitVector(4, rng.bits(4))
            assert cs.step(a, dot(a, f)) == dot(a, f)
        assert cs.survivors == [f]
        assert cs.mistakes == mistakes

    def test_mistakes_at_most_log_candidates_exhaustively(self):
        # Every hidden target and every basis-example stream of length 6.
        basis = [BitVector.from_support(4, [i]) for i in range(4)]
        for hidden in basis:
            for stream in itertools.product(range(4), repeat=6):
                cs = CandidateSet(4, 1)
                mistakes = 0
                for idx in stream:
                    a = basis[idx]
                    y = dot(a, hidden)
                    if cs.step(a, y) != y:
                        mistakes += 1
                assert cs.mistakes == mistakes <= 2  # ceil(log2 C(4,1))

    def test_ties_predict_zero(self):
        cs = CandidateSet(2, 1)
        assert cs.step(V("10"), 1) == 0

    def test_works_as_pac_learner(self):
        hits = 0
        for seed in range(50):
            cs = CandidateSet(16, 2)
            hidden = gen_hidden(16, 2, 400 + seed)
            source = UniformSource(hidden, seed=500 + seed)
            got = pac_learn(cs, source, PacParams(delta=0.1))
            hits += got == hidden
        assert hits >= 45

    def test_status_transitions(self):
        cs = CandidateSet(4, 1)
        assert not isinstance(cs.status(), Identified)
        f = BitVector.from_support(4, [1])
        for i in range(4):
            a = BitVector.from_support(4, [i])
            cs.step(a, dot(a, f))
        st = cs.status()
        assert isinstance(st, Identified)
        assert st.f == f


class TestMitmLearn:
    def test_zero_examples_returns_everything(self):
        out = mitm_learn([], 6, 2)
        assert len(out) == binom(6, 2)
        assert sorted(f.support() for f in out) == list(
            itertools.combinations(range(6), 2)
        )

    def test_zero_sparsity(self):
        zeros = BitVector.zeros(4)
        ok = [LabeledExample(V("1010"), 0), LabeledExample(V("0111"), 0)]
        assert mitm_learn(ok, 4, 0) == [zeros]
        bad = [LabeledExample(V("1010"), 1)]
        assert mitm_learn(bad, 4, 0) == []

    def test_contains_hidden_and_converges(self):
        f = BitVector.from_support(6, [0, 3])
        examples = random_examples(6, 8, 11, labeler=lambda a: dot(a, f))
        out = mitm_learn(examples, 6, 2)
        assert f in out
        more = random_examples(6, 12, 12, labeler=lambda a: dot(a, f))
        assert mitm_learn(more, 6, 2) == [f]

    def test_matches_brute_force_on_seeded_sets(self):
        cases = 0
        for seed in range(60):
            rng = SplitMix64(seed)
            n = 4 + rng.below(9)  # 4..12
            k = rng.below(4)  # 0..3
            if k > n:
                continue
            count = rng.below(15)
            f = gen_hidden(n, min(k, n), seed + 1000)
            honest = rng.below(2)
            examples = random_examples(
                n,
                count,
                seed + 2000,
                labeler=(lambda a: dot(a, f)) if honest else None,
            )
            got = mitm_learn(examples, n, k)
            want = brute_force_consistent(examples, n, k)
            assert {x.value for x in got} == {x.value for x in want}
            cases += 1
        assert cases >= 50

    def test_output_is_sorted_by_support(self):
        out = mitm_learn([], 7, 2)
        assert [f.support() for f in out] == sorted(f.support() for f in out)

    def test_unbalanced_supports_found(self):
        # Support entirely inside one half of the coordinate split.
        f = BitVector.from_support(8, [0, 1, 2])
        examples = random_examples(8, 14, 5, labeler=lambda a: dot(a, f))
        out = mitm_learn(examples, 8, 3)
        assert f in out
        g = BitVector.from_support(8, [5, 6, 7])
        examples = random_examples(8, 14, 6, labeler=lambda a: dot(a, g))
        assert g in mitm_learn(examples, 8, 3)

    def test_sample_phase_transition(self):
        # With 3*k*log2(n) honest examples the consistent set is almost
        # always a singleton at n=64, k=2.
        singletons = 0
        trials = 100
        for seed in range(trials):
            f = gen_hidden(64, 2, 7000 + seed)
            examples = random_examples(
                64, 36, 8000 + seed, labeler=lambda a: dot(a, f)
            )
            out = mitm_learn(examples, 64, 2)
            assert f in out
            singletons += len(out) == 1
        assert singletons >= 95

    def test_rejects_mixed_lengths(self):
        with pytest.raises(ValueError):
            mitm_learn([LabeledExample(V("10"), 0)], 3, 1)
