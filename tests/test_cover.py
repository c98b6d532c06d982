"""Tests for covering-family construction and verification."""

import dataclasses
import itertools
import logging
import math
import sys
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sparseparity.cover import (
    CoverFamily,
    CoverParams,
    _first_uncovered,
    build_verified_family,
    family_size_m,
    ratio_bound_report,
    round_robin_parts,
    sample_family,
    spread_columns,
    verify_cover,
)
from sparseparity.errors import BudgetExceededError
from sparseparity.rng import SplitMix64

from cover_reference import (
    reference_holders,
    reference_incidence,
    reference_sample_family,
    reference_verify_cover,
)


class TestBinom:
    """The properties of ``math.comb`` that the family sizes rely on."""

    def test_hand_checked(self):
        assert math.comb(10, 4) == 210

    def test_choose_zero(self):
        for x in [0, 1, 5, 100]:
            assert math.comb(x, 0) == 1

    def test_y_exceeding_x_is_zero(self):
        assert math.comb(5, 7) == 0

    def test_pascal_triangle_oracle(self):
        row = [1]
        for x in range(65):
            for y in range(x + 1):
                assert math.comb(x, y) == row[y]
            assert math.comb(x, x + 1) == 0
            row = [1] + [row[i] + row[i + 1] for i in range(x)] + [1]


class TestCoverParams:
    def test_derived_part_count(self):
        p = CoverParams(n=12, k=2, t=3, alpha=2)
        assert p.T == 6

    def test_rejects_k_above_t(self):
        with pytest.raises(ValueError):
            CoverParams(n=12, k=4, t=3, alpha=2)

    def test_rejects_negative_k(self):
        with pytest.raises(ValueError, match="0 <= k"):
            CoverParams(n=12, k=-1, t=3, alpha=2)

    def test_rejects_t_above_n(self):
        with pytest.raises(ValueError):
            CoverParams(n=2, k=1, t=3, alpha=2)

    def test_rejects_small_alpha(self):
        with pytest.raises(ValueError):
            CoverParams(n=12, k=2, t=3, alpha=1)

    def test_rejects_more_parts_than_coords(self):
        with pytest.raises(ValueError):
            CoverParams(n=5, k=1, t=3, alpha=2)


class TestFamilySizeM:
    def test_hand_checked_ratio_seven_and_a_half(self):
        # T=10, k=2, alpha*k=4: ratio 210/28 = 7.5, so
        # m = ceil(15 * ln C(10,2)) = ceil(15 * ln 45) = 58.
        p = CoverParams(n=10, k=2, t=5, alpha=2)
        assert family_size_m(p) == 58

    def test_hand_checked_ratio_three(self):
        # T=6, k=1, alpha*k=2: ratio 15/5 = 3, m = ceil(6 * ln 6) = 11.
        p = CoverParams(n=6, k=1, t=3, alpha=2)
        assert family_size_m(p) == 11

    def test_zero_sparsity_clamps_to_one(self):
        p = CoverParams(n=6, k=0, t=3, alpha=2)
        assert family_size_m(p) == 1


class TestRoundRobinParts:
    def test_divisible(self):
        parts = round_robin_parts(12, 6)
        assert all(len(part) == 2 for part in parts)
        assert parts[0] == (0, 6)

    def test_remainder_goes_to_low_parts(self):
        parts = round_robin_parts(13, 6)
        assert sorted(len(p) for p in parts) == [2, 2, 2, 2, 2, 3]
        assert max(len(p) for p in parts) == math.ceil(13 / 6)
        assert parts[0] == (0, 6, 12)

    def test_partition_properties(self):
        for n, T in [(12, 6), (13, 6), (7, 7), (30, 4)]:
            parts = round_robin_parts(n, T)
            assert len(parts) == T
            flat = [i for part in parts for i in part]
            assert sorted(flat) == list(range(n))
            assert all(list(part) == sorted(part) for part in parts)
            assert all(len(part) <= math.ceil(n / T) for part in parts)


class TestSampleFamily:
    def test_deterministic(self):
        p = CoverParams(n=12, k=2, t=3, alpha=2)
        assert sample_family(p, 7) == sample_family(p, 7)
        assert sample_family(p, 7) != sample_family(p, 8)

    def test_subset_shape(self):
        p = CoverParams(n=12, k=2, t=3, alpha=2)
        fam = sample_family(p, 3)
        assert fam.m == family_size_m(p)
        assert not fam.verified
        ak = p.alpha * p.k
        for s in fam.subsets:
            assert len(s) == ak
            assert len(set(s)) == ak
            assert list(s) == sorted(s)
            assert all(0 <= i < p.T for i in s)


def word_by_word_subsets(params, seed):
    """The subsets as ``m`` calls of ``sample_sorted``, one word per draw."""
    rng = SplitMix64(seed)
    ak = params.alpha * params.k
    return tuple(
        rng.sample_sorted(params.T, ak) for _ in range(family_size_m(params))
    )


# T = alpha * t parts and alpha * k drawn per subset, with n up to 3
# past T.  Up to t = 8 any k; from t = 9 to T = 300, k = 1, so m stays
# near T ln T.  t = 0 gives T = 0 and k = t gives alpha*k = T: no draw
# decides anything.
drawn_params = st.builds(
    lambda alpha, t, share, extra: CoverParams(
        n=alpha * t + extra,
        k=round(share * t) if t <= 8 else 1,
        t=t,
        alpha=alpha,
    ),
    st.integers(min_value=2, max_value=4),
    st.one_of(
        st.integers(min_value=0, max_value=8),
        st.integers(min_value=9, max_value=75),
    ),
    st.floats(min_value=0, max_value=1),
    st.integers(min_value=0, max_value=3),
)


def lane_and_token_examples(test):
    """The part counts on both sides of where the sampler widens a lane
    (past 128) or a token (past 256), and the edge cases of a draw.

    127 and 257 are prime, so no alpha >= 2 gives them.  T = 16 and 32
    make every bound 2**b - i; T = 24 with alpha*k = 12 narrows the mask
    from 5 to 4 bits partway through a subset; T = 256 accepts every word
    at the first swap; T = 129 with alpha*k = T draws every part.
    """
    for params, seed in [
        (CoverParams(n=3, k=0, t=0, alpha=2), 1),
        (CoverParams(n=2, k=1, t=1, alpha=2), 0),
        (CoverParams(n=16, k=3, t=8, alpha=2), 3),
        (CoverParams(n=16, k=8, t=8, alpha=2), 2),
        (CoverParams(n=32, k=8, t=8, alpha=4), 5),
        (CoverParams(n=24, k=4, t=8, alpha=3), 4),
        (CoverParams(n=126, k=1, t=63, alpha=2), 7),
        (CoverParams(n=128, k=1, t=64, alpha=2), 8),
        (CoverParams(n=129, k=1, t=43, alpha=3), 9),
        (CoverParams(n=130, k=1, t=65, alpha=2), 10),
        (CoverParams(n=255, k=1, t=85, alpha=3), 11),
        (CoverParams(n=256, k=1, t=128, alpha=2), 12),
        (CoverParams(n=258, k=1, t=86, alpha=3), 6),
        (CoverParams(n=260, k=1, t=130, alpha=2), 5),
        (CoverParams(n=129, k=43, t=43, alpha=3), 13),
    ]:
        test = example(params, seed)(test)
    return test


class TestBlockDraws:
    """Block-fed sampling gives the subsets of word-by-word sampling."""

    @pytest.mark.parametrize(
        "n,k,t,alpha", [(64, 3, 12, 2), (96, 2, 16, 2), (32, 4, 8, 3)]
    )
    def test_gate_two_configs(self, n, k, t, alpha):
        params = CoverParams(n=n, k=k, t=t, alpha=alpha)
        for seed in range(20):
            family = sample_family(params, seed)
            assert family.subsets == word_by_word_subsets(params, seed)

    @given(drawn_params, st.integers(min_value=0, max_value=2**64 - 1))
    @lane_and_token_examples
    @settings(max_examples=80, deadline=None)
    def test_any_part_count_and_subset_size(self, params, seed):
        family = sample_family(params, seed)
        assert family.subsets == word_by_word_subsets(params, seed)

    @pytest.mark.parametrize("seed", [0, 2, 14, 24])
    def test_a_high_rejection_rate_draws_more_blocks(self, seed):
        # T = 34: the first swap's 6-bit mask rejects 30 of 64 words.  Of
        # these seeds, 2, 14 and 24 need more words for their m = 5 205
        # subsets than the first estimate of blocks, and 0 does not.
        params = CoverParams(n=34, k=3, t=17, alpha=2)
        family = sample_family(params, seed)
        assert family.subsets == word_by_word_subsets(params, seed)


def hand_family(n, k, t, alpha, subsets):
    p = CoverParams(n=n, k=k, t=t, alpha=alpha)
    return CoverFamily(
        params=p,
        parts=round_robin_parts(n, p.T),
        subsets=tuple(tuple(s) for s in subsets),
        verified=False,
    )


class TestSamplerFillsIncidence:
    """The sampler's subsets and its table, byte for byte, against the two
    passes it replaced: sample, then fill a row per subset."""

    @staticmethod
    def assert_same_draw(params, seed):
        family = sample_family(params, seed)
        ref = reference_sample_family(params, seed)
        assert family.subsets == ref.subsets
        table = family.__dict__["incidence"]
        assert type(table) is bytes
        assert table == reference_incidence(ref)
        assert table == dataclasses.replace(family).incidence

    @pytest.mark.parametrize(
        "n,k,t,alpha", [(64, 3, 12, 2), (96, 2, 16, 2), (32, 4, 8, 3)]
    )
    def test_gate_two_configs(self, n, k, t, alpha):
        for seed in range(3):
            self.assert_same_draw(CoverParams(n=n, k=k, t=t, alpha=alpha), seed)

    @given(drawn_params, st.integers(min_value=0, max_value=2**64 - 1))
    @lane_and_token_examples
    @settings(max_examples=80, deadline=None)
    def test_any_part_count_and_subset_size(self, params, seed):
        self.assert_same_draw(params, seed)


class TestVerifyCover:
    def test_universal_subset_covers(self):
        fam = hand_family(4, 2, 2, 2, [(0, 1, 2, 3)])
        certified, witness = verify_cover(fam)
        assert witness is None
        assert certified.verified

    def test_first_uncovered_pair_is_witness(self):
        fam = hand_family(4, 2, 2, 2, [(0, 1, 2)])
        unchanged, witness = verify_cover(fam)
        assert witness == (0, 3)
        assert not unchanged.verified

    def test_no_subsets_first_singleton_is_witness(self):
        fam = hand_family(4, 1, 2, 2, [])
        _, witness = verify_cover(fam)
        assert witness == (0,)

    def test_budget_enforced(self, monkeypatch):
        fam = hand_family(4, 2, 2, 2, [(0, 1, 2, 3)])
        monkeypatch.setattr("sparseparity.cover.ENUMERATION_BUDGET", 5)
        with pytest.raises(BudgetExceededError):
            verify_cover(fam)
        # C(4, 2) = 6 k-subsets are at the budget, not over it
        monkeypatch.setattr("sparseparity.cover.ENUMERATION_BUDGET", 6)
        assert verify_cover(fam)[1] is None

    def test_the_budget_is_a_million_k_subsets(self):
        # C(27, 7) = 888 030 k-subsets may be walked; C(28, 7) may not.
        under = hand_family(27, 7, 9, 3, [tuple(range(1, 27))])
        assert verify_cover(under)[1] == tuple(range(7))
        over = hand_family(28, 7, 14, 2, [])
        with pytest.raises(BudgetExceededError, match="= 1184040 exceeds"):
            verify_cover(over)

    def test_verification_does_not_mutate_input(self):
        fam = hand_family(4, 2, 2, 2, [(0, 1, 2, 3)])
        verify_cover(fam)
        assert not fam.verified

    def test_zero_sparsity_with_no_subsets_has_empty_witness(self):
        fam = hand_family(6, 0, 3, 2, [])
        unchanged, witness = verify_cover(fam)
        assert witness == ()
        assert unchanged is fam

    def test_zero_sparsity_with_one_subset_verifies(self):
        fam = hand_family(6, 0, 3, 2, [()])
        certified, witness = verify_cover(fam)
        assert witness is None
        assert certified.verified

    def test_witness_completes_the_first_dead_prefix(self):
        # Part 0 is in no subset, so every k-subset holding it is
        # uncovered and the first one in lex order is the witness.
        fam = hand_family(6, 3, 3, 2, [(1, 2, 3, 4, 5)])
        assert verify_cover(fam)[1] == (0, 1, 2)
        fam = hand_family(6, 3, 3, 2, [(0, 1, 2, 3, 4), (0, 1, 5), (2, 3, 5)])
        assert verify_cover(fam)[1] == (0, 2, 5)


def all_but(T, k, t, alpha, missing):
    """The hand family of every k-subset of ``range(T)`` but ``missing``,
    so the lex-first of ``missing`` is the only possible witness."""
    kept = (c for c in itertools.combinations(range(T), k) if c not in missing)
    return hand_family(T, k, t, alpha, kept)


class TestChunkEdges:
    """Witnesses at the edges of the walk's chunks, one chunk of pairs per
    (k-2)-prefix of parts, against the exhaustive reference check."""

    @staticmethod
    def assert_witness(family, expected):
        assert verify_cover(family)[1] == expected
        assert reference_verify_cover(family)[1] == expected

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_first_pair_of_a_chunk(self, k):
        # (k-2)-prefix (1, 3, ...) and the first pair past its last part;
        # two later k-subsets are missing too
        prefix = (1, 3, 4)[: k - 2]
        start = prefix[-1] + 1 if prefix else 0
        witness = prefix + (start, start + 1)
        later = [prefix + (start, start + 2), tuple(range(10 - k, 10))]
        self.assert_witness(all_but(10, k, 5, 2, [witness, *later]), witness)

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_last_pair_of_a_chunk(self, k):
        prefix = (1, 3, 4)[: k - 2]
        witness = prefix + (8, 9)
        later = [tuple(range(10 - k, 10))]
        self.assert_witness(all_but(10, k, 5, 2, [witness, *later]), witness)

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_a_prefix_whose_own_and_is_zero(self, k):
        # No subset holds all of parts 0..k-3, so the first prefix's AND
        # is 0 and its first completion is the witness.
        dead = set(range(k - 2))
        subsets = [
            c
            for c in itertools.combinations(range(10), k)
            if not dead <= set(c)
        ]
        family = hand_family(10, k, 5, 2, subsets)
        self.assert_witness(family, tuple(range(k)))

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_no_subsets(self, k):
        self.assert_witness(hand_family(10, k, 5, 2, []), tuple(range(k)))

    @pytest.mark.parametrize("T,k", [(4, 2), (6, 3), (8, 4), (10, 5)])
    def test_k_at_half_the_parts(self, T, k):
        complete = hand_family(T, k, k, 2, [tuple(range(T))])
        self.assert_witness(complete, None)
        last = tuple(range(T - k, T))
        self.assert_witness(all_but(T, k, k, 2, [last]), last)

    @pytest.mark.parametrize(
        "n,k,t,alpha,seed,cut,witness",
        [
            (64, 3, 12, 2, 32, 952, (7, 10, 22)),
            (32, 4, 8, 3, 31, 212, (2, 7, 8, 20)),
        ],
    )
    def test_gate_two_shapes_fail_inside_a_later_chunk(
        self, n, k, t, alpha, seed, cut, witness
    ):
        family = sample_family(CoverParams(n=n, k=k, t=t, alpha=alpha), seed)
        cut_short = dataclasses.replace(family, subsets=family.subsets[:cut])
        self.assert_witness(cut_short, witness)

    def test_the_walk_holds_the_pair_table_and_one_chunk(self):
        # T = 24, k = 4: the walk holds the C(24, 2) pair ANDs, the 24
        # holders and one chunk of at most 253 pairs, never the 2 024
        # triples or the 10 626 k-subsets.
        family = sample_family(CoverParams(n=32, k=4, t=8, alpha=3), 0)
        holders = spread_columns(family.incidence, len(family.parts), 1)
        pairs = [a & b for a, b in itertools.combinations(holders, 2)]
        table = sys.getsizeof(pairs) + sum(map(sys.getsizeof, pairs))
        tracemalloc.start()
        try:
            certified, witness = verify_cover(family)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert witness is None and certified.verified
        assert peak < 3 * table // 2


def gate_configs():
    """The gate-2 learner configs and the gate-3 certification grid."""
    configs = [(64, 3, 12, 2), (96, 2, 16, 2), (32, 4, 8, 3)]
    for alpha in (2, 3):
        for T in range(alpha, 25, alpha):
            for k in range(0, min(3, T // alpha) + 1):
                configs.append((T, k, T // alpha, alpha))
    return configs


def assert_same_check(family):
    got, witness = verify_cover(family)
    expected, expected_witness = reference_verify_cover(family)
    assert witness == expected_witness
    assert got == expected
    assert (got is family) == (witness is not None)


class TestReferenceEquivalence:
    """Same ``(verified, witness)`` as the exhaustive reference check, on
    drawn families and on prefixes of them cut short so witnesses appear."""

    @pytest.mark.parametrize("n,k,t,alpha", gate_configs())
    def test_gate_configs_and_cuts(self, n, k, t, alpha):
        params = CoverParams(n=n, k=k, t=t, alpha=alpha)
        seeds = range(2) if n <= 24 else range(3)
        for seed in seeds:
            family = sample_family(params, 500 + seed)
            m = family.m
            for cut in (m, m // 3, m // 10, 1, 0):
                assert_same_check(
                    dataclasses.replace(family, subsets=family.subsets[:cut])
                )

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_small_hand_families(self, data):
        alpha = data.draw(st.integers(min_value=2, max_value=3))
        t = data.draw(st.integers(min_value=1, max_value=4))
        k = data.draw(st.integers(min_value=0, max_value=t))
        T = alpha * t
        subsets = data.draw(
            st.lists(
                st.sets(st.integers(min_value=0, max_value=T - 1), max_size=T),
                max_size=12,
            )
        )
        assert_same_check(hand_family(T, k, t, alpha, map(sorted, subsets)))


class TestIncidenceHolders:
    """The part bitsets read off the incidence table equal the ones the OR
    loop built, and the walk finds the same witness from either."""

    @staticmethod
    def assert_same_holders(family):
        holders = spread_columns(family.incidence, len(family.parts), 1)
        expected = reference_holders(family)
        assert holders == expected
        k, drawn = family.params.k, (1 << family.m) - 1
        witness = _first_uncovered(holders, k, drawn)
        assert witness == _first_uncovered(expected, k, drawn)
        assert witness == reference_verify_cover(family)[1]

    @given(st.data())
    @settings(max_examples=120, deadline=None)
    def test_drawn_families_cut_and_repeated(self, data):
        alpha = data.draw(st.integers(min_value=2, max_value=3))
        t = data.draw(st.integers(min_value=0, max_value=5))
        k = data.draw(st.integers(min_value=0, max_value=t))
        n = alpha * t + data.draw(st.integers(min_value=0, max_value=4))
        params = CoverParams(n=n, k=k, t=t, alpha=alpha)
        family = sample_family(params, data.draw(st.integers(0, 2**64 - 1)))
        m = family.m
        cut = data.draw(st.sampled_from((m, m // 3, m // 10, 1)))
        subsets = family.subsets[:cut]
        if subsets:
            repeats = data.draw(
                st.lists(st.integers(0, len(subsets) - 1), max_size=6)
            )
            subsets += tuple(subsets[i] for i in repeats)
        self.assert_same_holders(dataclasses.replace(family, subsets=subsets))

    @pytest.mark.parametrize("n,k,t,alpha", gate_configs()[:3])
    def test_gate_two_configs(self, n, k, t, alpha):
        family = sample_family(CoverParams(n=n, k=k, t=t, alpha=alpha), 31)
        for cut in (family.m, family.m // 3, family.m // 10, 1):
            self.assert_same_holders(
                dataclasses.replace(family, subsets=family.subsets[:cut])
            )

    def test_zero_sparsity_and_the_fewest_parts(self):
        self.assert_same_holders(hand_family(6, 0, 3, 2, [(), (), (4, 1)]))
        self.assert_same_holders(hand_family(2, 1, 1, 2, [(1,), (0, 1), (1,)]))
        self.assert_same_holders(hand_family(2, 1, 1, 2, [(1,), (1,)]))

    def test_a_certified_copy_keeps_the_table(self):
        family = sample_family(CoverParams(n=16, k=2, t=4, alpha=2), 1)
        certified, witness = verify_cover(family)
        assert witness is None
        assert certified.incidence is family.incidence

    def test_a_part_out_of_range_raises(self):
        with pytest.raises(ValueError, match="part 4 is outside range"):
            hand_family(4, 1, 2, 2, [(0, 4), (1,)]).incidence

    def test_a_negative_part_is_not_read_as_the_last(self):
        family = CoverFamily(
            CoverParams(4, 1, 2, 2), round_robin_parts(4, 4),
            ((-1, 0), (1, 2)), False,
        )
        with pytest.raises(ValueError, match="part -1 is outside range"):
            family.incidence
        with pytest.raises(ValueError, match="part -1 is outside range"):
            verify_cover(family)


class TestSpreadColumns:
    @given(
        st.integers(min_value=1, max_value=5).flatmap(
            lambda width: st.tuples(
                st.just(width),
                st.lists(
                    st.lists(
                        st.integers(0, 1), min_size=width, max_size=width
                    ),
                    max_size=40,
                ),
            )
        ),
        st.integers(min_value=1, max_value=21),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_the_definition(self, shape, stride):
        width, rows = shape
        table = bytes(bit for row in rows for bit in row)
        expected = [
            sum(1 << (i * stride) for i, row in enumerate(rows) if row[p])
            for p in range(width)
        ]
        assert spread_columns(table, width, stride) == expected

    def test_no_columns(self):
        assert spread_columns(b"", 0, 9) == []


class TestBuildVerifiedFamily:
    def test_small_params_verify(self):
        p = CoverParams(n=16, k=2, t=4, alpha=2)
        fam = build_verified_family(p, rng_seed=1)
        assert fam.verified
        _, witness = verify_cover(fam)
        assert witness is None

    def test_first_attempt_matches_plain_sample_when_it_verifies(self):
        p = CoverParams(n=16, k=2, t=4, alpha=2)
        plain = sample_family(p, 5)
        _, witness = verify_cover(plain)
        if witness is None:
            built = build_verified_family(p, rng_seed=5)
            assert built.subsets == plain.subsets

    def test_over_budget_returns_unverified_with_warning(
        self, monkeypatch, caplog
    ):
        p = CoverParams(n=16, k=2, t=4, alpha=2)
        monkeypatch.setattr("sparseparity.cover.ENUMERATION_BUDGET", 3)
        with caplog.at_level(logging.WARNING, logger="sparseparity.cover"):
            fam = build_verified_family(p, rng_seed=1)
        assert not fam.verified
        assert fam == sample_family(p, 1)
        (record,) = caplog.records
        assert "over the enumeration budget" in record.getMessage()
        assert "unverified" in record.getMessage()

    @staticmethod
    def never_verified(monkeypatch):
        """Count the sampler's seeds and make every family unverified."""
        seeds = []

        def counted_sample(params, seed):
            seeds.append(seed)
            return sample_family(params, seed)

        monkeypatch.setattr("sparseparity.cover.sample_family", counted_sample)
        monkeypatch.setattr(
            "sparseparity.cover.verify_cover", lambda family: (family, (0, 1))
        )
        return seeds

    def test_no_verified_attempt_returns_the_first_sample(
        self, monkeypatch, caplog
    ):
        p = CoverParams(n=16, k=2, t=4, alpha=2)
        seeds = self.never_verified(monkeypatch)
        with caplog.at_level(logging.WARNING, logger="sparseparity.cover"):
            fam = build_verified_family(p, rng_seed=1)
        # one draw per attempt, ten attempts, and none after them: attempt
        # 0's is kept
        meta = SplitMix64(1)
        retries = [meta.next_u64() for _ in range(9)]
        assert seeds == [1, *retries]
        assert not fam.verified
        assert fam == sample_family(p, 1)
        (record,) = caplog.records
        assert "within 10 attempts" in record.getMessage()
        assert "unverified" in record.getMessage()

    def test_attempts_are_read_at_call_time(self, monkeypatch):
        p = CoverParams(n=16, k=2, t=4, alpha=2)
        seeds = self.never_verified(monkeypatch)
        monkeypatch.setattr("sparseparity.cover.SAMPLE_ATTEMPTS", 3)
        assert build_verified_family(p, rng_seed=1) == sample_family(p, 1)
        assert len(seeds) == 3

    def test_retry_seeds_derive_from_base_seed(self):
        # Two runs from the same base seed walk the same attempt sequence.
        p = CoverParams(n=24, k=3, t=4, alpha=3)
        a = build_verified_family(p, rng_seed=123)
        b = build_verified_family(p, rng_seed=123)
        assert a == b


class TestVerifiedCoverageSemantics:
    def test_every_sparse_support_lands_in_one_chart(self):
        p = CoverParams(n=20, k=2, t=4, alpha=2)
        fam = build_verified_family(p, rng_seed=11)
        supports = [
            {c for j in subset for c in fam.parts[j]} for subset in fam.subsets
        ]
        rng = SplitMix64(99)
        for _ in range(200):
            coords = rng.sample_sorted(p.n, p.k)
            assert any(set(coords) <= s for s in supports)

    def test_sparse_support_touches_at_most_k_parts(self):
        parts = round_robin_parts(30, 10)
        owner = {}
        for j, part in enumerate(parts):
            for c in part:
                owner[c] = j
        rng = SplitMix64(4)
        for _ in range(200):
            coords = rng.sample_sorted(30, 3)
            assert len({owner[c] for c in coords}) <= 3


class TestRatioBoundReport:
    def test_zero_sparsity(self):
        rep = ratio_bound_report(t=5, k=0, alpha=2)
        assert rep.ratio_log2 == 0.0
        assert rep.rhs_log2 == 0.0
        assert rep.holds

    def test_equal_t_and_k_reports_without_failing(self):
        rep = ratio_bound_report(t=3, k=3, alpha=2)
        assert rep.ratio_log2 == 0.0
        assert rep.rhs_log2 == pytest.approx(-3 / 4.01 / math.log(2))
        assert not rep.holds

    def test_boolean_is_consistent_with_logs(self):
        for t, k, alpha in [(100, 2, 2), (1000, 10, 32), (50, 5, 4)]:
            rep = ratio_bound_report(t=t, k=k, alpha=alpha)
            assert rep.holds == (rep.ratio_log2 <= rep.rhs_log2)

    def test_exact_binomial_ratio_against_logs(self):
        rep = ratio_bound_report(t=10, k=2, alpha=2)
        expected = math.log2(math.comb(20, 4)) - math.log2(math.comb(18, 2))
        assert rep.ratio_log2 == pytest.approx(expected, abs=1e-12)

    def test_rejects_bad_arguments(self):
        for k in (4, -1):
            with pytest.raises(ValueError, match="0 <= k <= t"):
                ratio_bound_report(t=3, k=k, alpha=2)
        with pytest.raises(ValueError):
            ratio_bound_report(t=3, k=1, alpha=1)


@st.composite
def valid_params(draw):
    t = draw(st.integers(min_value=1, max_value=6))
    alpha = draw(st.integers(min_value=2, max_value=3))
    k = draw(st.integers(min_value=0, max_value=min(t, 3)))
    T = alpha * t
    n = draw(st.integers(min_value=T, max_value=T + 20))
    return CoverParams(n=n, k=k, t=t, alpha=alpha)


class TestFamilyProperties:
    @given(valid_params(), st.integers(min_value=0, max_value=2**64 - 1))
    @settings(max_examples=60, deadline=None)
    def test_sampled_family_invariants(self, params, seed):
        fam = sample_family(params, seed)
        flat = [i for part in fam.parts for i in part]
        assert sorted(flat) == list(range(params.n))
        assert all(
            len(part) <= math.ceil(params.n / params.T) for part in fam.parts
        )
        ak = params.alpha * params.k
        assert fam.m == family_size_m(params)
        for s in fam.subsets:
            assert len(s) == ak and len(set(s)) == ak
