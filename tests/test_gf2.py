"""Tests for word-packed bit vectors and canonical affine subspaces."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparseparity.errors import LengthMismatchError, NotSingletonError
from sparseparity.gf2 import AffineSpace, BitVector, dot, reduce_rows

from chart_reference import restrict, split_sizes

V = BitVector.from01


def space_from(dim, constraints):
    s = AffineSpace.full(dim)
    for vtext, y in constraints:
        s = s.constrain(V(vtext), y)
    return s


def int_rows(space):
    return [(bv.value, rhs) for bv, rhs in space.rows]


def row_texts(space):
    return {(bv.to01(), rhs) for bv, rhs in space.rows}


def point_texts(space):
    return {p.to01() for p in space.points()}


def check_rref_invariants(space):
    """Structural invariants every stored space must satisfy."""
    if space.empty:
        assert space.rows == ()
        return
    masks = [bv.value for bv, _ in space.rows]
    assert all(m != 0 for m in masks), "zero row stored"
    pivots = [m & -m for m in masks]
    assert pivots == sorted(pivots), "rows not in pivot order"
    assert len(set(pivots)) == len(pivots), "duplicate pivots"
    for p in pivots:
        owners = [m for m in masks if m & p]
        assert len(owners) == 1, "pivot column present in another row"


# -- BitVector ---------------------------------------------------------


class TestBitVector:
    def test_text_roundtrip(self):
        for text in ["", "0", "1", "1100", "0110100110010110"]:
            assert V(text).to01() == text

    def test_char_i_is_coordinate_i(self):
        v = V("0100")
        assert [v.bit(i) for i in range(4)] == [0, 1, 0, 0]
        assert v.support() == (1,)

    def test_from_support(self):
        assert BitVector.from_support(5, [0, 3]).to01() == "10010"
        assert BitVector.from_support(3, []).to01() == "000"
        with pytest.raises(ValueError):
            BitVector.from_support(3, [3])

    def test_from_bits(self):
        assert BitVector.from_bits([1, 0, 1]).to01() == "101"
        with pytest.raises(ValueError):
            BitVector.from_bits([2])

    def test_zeros_ones(self):
        assert BitVector.zeros(4).to01() == "0000"
        assert BitVector.ones(4).to01() == "1111"

    def test_words_little_endian(self):
        v = BitVector(70, (3 << 64) | 5)
        assert v.words == (5, 3)
        assert BitVector(64, 7).words == (7,)
        assert BitVector(0).words == ()

    def test_storage_must_fit_length(self):
        with pytest.raises(ValueError):
            BitVector(3, 8)

    def test_xor(self):
        assert (V("1100") ^ V("1010")).to01() == "0110"
        with pytest.raises(LengthMismatchError):
            V("110") ^ V("1100")

    def test_restrict(self):
        v = V("10110")
        assert restrict(v, [0, 2, 3]).to01() == "111"
        assert restrict(v, [4, 0]).to01() == "01"
        assert restrict(v, []).to01() == ""

    def test_equality_and_hash(self):
        assert V("101") == V("101")
        assert V("101") != V("1010")
        assert V("101") != V("100")
        assert len({V("101"), V("101"), V("011")}) == 2

    def test_popcount(self):
        assert V("10110").popcount() == 3
        assert BitVector.zeros(100).popcount() == 0


class TestDot:
    def test_hand_checked_pairs(self):
        assert dot(V("1100"), V("1010")) == 1
        assert dot(V("0000"), V("1111")) == 0
        assert dot(V("1111"), V("1111")) == 0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            dot(V("110"), V("1100"))


# -- AffineSpace frozen cases ------------------------------------------


class TestReduce:
    def test_two_row_elimination(self):
        s = space_from(3, [("100", 0), ("010", 1)])
        assert reduce_rows(int_rows(s), V("110").value, 1) == (0, 0)

    def test_empty_row_set(self):
        s = AffineSpace.full(3)
        assert reduce_rows(int_rows(s), V("101").value, 1) == (V("101").value, 1)

    def test_disjoint_support(self):
        s = space_from(3, [("100", 1)])
        assert reduce_rows(int_rows(s), V("011").value, 0) == (V("011").value, 0)

    def test_residual_avoids_pivot_columns(self):
        s = space_from(4, [("1100", 1), ("0110", 0)])
        pivot_mask = 0
        for bv, _ in s.rows:
            pivot_mask |= bv.value & -bv.value
        for bits in range(16):
            residual, _ = reduce_rows(int_rows(s), bits, 0)
            assert residual & pivot_mask == 0


class TestSplitSizes:
    def test_full_space_halves(self):
        assert split_sizes(AffineSpace.full(3), V("101")) == (2, 2)

    def test_forced_label(self):
        s = space_from(3, [("101", 1)])
        assert split_sizes(s, V("101")) == (None, 2)

    def test_zero_vector_forces_zero(self):
        assert split_sizes(AffineSpace.full(3), V("000")) == (3, None)

    def test_empty_space(self):
        s = space_from(2, [("10", 1), ("10", 0)])
        assert s.empty
        assert split_sizes(s, V("10")) == (None, None)


class TestConstrain:
    def test_single_constraint_point_set(self):
        s = AffineSpace.full(2).constrain(V("10"), 1)
        assert s.log2_size == 1
        assert point_texts(s) == {"10", "11"}

    def test_contradiction_empties(self):
        s = space_from(2, [("10", 1), ("10", 0)])
        assert s.empty
        assert s.log2_size is None
        assert s.rows == ()

    def test_two_constraints_dim3(self):
        s = space_from(3, [("110", 0), ("011", 1)])
        assert not s.empty
        assert s.rank == 2
        assert s.log2_size == 1
        assert point_texts(s) == {"001", "110"}
        # Fully reduced form of {f0+f1=0, f1+f2=1}.
        assert row_texts(s) == {("101", 1), ("011", 1)}
        check_rref_invariants(s)

    def test_redundant_constraint_is_noop(self):
        s = space_from(3, [("110", 0)])
        again = s.constrain(V("110"), 0)
        assert again == s

    def test_empty_absorbs(self):
        s = space_from(2, [("10", 1), ("10", 0)])
        assert s.constrain(V("01"), 1).empty

    def test_rejects_bad_label(self):
        with pytest.raises(ValueError):
            AffineSpace.full(2).constrain(V("10"), 2)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            AffineSpace.full(3).constrain(V("10"), 0)


class TestSolePoint:
    def test_identity_system(self):
        s = space_from(2, [("10", 1), ("01", 0)])
        assert s.sole_point() == V("10")

    def test_coupled_system(self):
        s = space_from(2, [("11", 1), ("01", 1)])
        assert s.sole_point() == V("01")

    def test_rank_deficient_raises(self):
        s = space_from(2, [("10", 1)])
        with pytest.raises(NotSingletonError):
            s.sole_point()

    def test_empty_raises(self):
        s = space_from(2, [("10", 1), ("10", 0)])
        with pytest.raises(NotSingletonError):
            s.sole_point()

    def test_zero_dim_space(self):
        s = AffineSpace.full(0)
        assert s.sole_point() == BitVector(0)


class TestContains:
    def test_membership(self):
        s = space_from(3, [("110", 0), ("011", 1)])
        assert s.contains(V("001"))
        assert s.contains(V("110"))
        assert not s.contains(V("011"))
        assert not s.contains(V("000"))

    def test_empty_contains_nothing(self):
        s = space_from(2, [("10", 1), ("10", 0)])
        assert not s.contains(V("10"))


# -- randomized properties ---------------------------------------------

WORD_BOUNDARY_LENGTHS = [63, 64, 65, 127, 128, 129]

lengths = st.one_of(
    st.integers(min_value=1, max_value=300),
    st.sampled_from(WORD_BOUNDARY_LENGTHS),
)


@st.composite
def bitvector_pairs(draw):
    n = draw(lengths)
    a = draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    b = draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    return BitVector(n, a), BitVector(n, b)


class TestPackedVsNaive:
    @given(bitvector_pairs())
    @settings(max_examples=400, deadline=None)
    def test_dot_xor_popcount(self, pair):
        a, b = pair
        abits = [a.bit(i) for i in range(a.n)]
        bbits = [b.bit(i) for i in range(b.n)]
        assert dot(a, b) == sum(x & y for x, y in zip(abits, bbits)) % 2
        assert (a ^ b).to01() == "".join(str(x ^ y) for x, y in zip(abits, bbits))
        assert a.popcount() == sum(abits)

    def test_word_boundary_regression(self):
        rnd = random.Random(20240817)
        for n in WORD_BOUNDARY_LENGTHS:
            for _ in range(200):
                x = rnd.getrandbits(n)
                y = rnd.getrandbits(n)
                a, b = BitVector(n, x), BitVector(n, y)
                assert dot(a, b) == (x & y).bit_count() % 2
                naive = sum(((x >> i) & (y >> i)) & 1 for i in range(n)) % 2
                assert dot(a, b) == naive


@st.composite
def constraint_sequences(draw, max_dim=8, max_constraints=10):
    dim = draw(st.integers(min_value=1, max_value=max_dim))
    count = draw(st.integers(min_value=0, max_value=max_constraints))
    cons = []
    for _ in range(count):
        mask = draw(st.integers(min_value=0, max_value=(1 << dim) - 1))
        y = draw(st.integers(min_value=0, max_value=1))
        cons.append((BitVector(dim, mask), y))
    return dim, cons


class TestSpaceProperties:
    @given(constraint_sequences())
    @settings(max_examples=300, deadline=None)
    def test_enumeration_matches_brute_force(self, seq):
        dim, cons = seq
        s = AffineSpace.full(dim)
        for v, y in cons:
            s = s.constrain(v, y)
        check_rref_invariants(s)
        brute = {
            bits
            for bits in range(1 << dim)
            if all((bits & v.value).bit_count() & 1 == y for v, y in cons)
        }
        assert {p.value for p in s.points()} == brute
        if s.empty:
            assert not brute
        else:
            assert len(brute) == 1 << s.log2_size

    @given(constraint_sequences())
    @settings(max_examples=300, deadline=None)
    def test_canonicity_under_insertion_order(self, seq):
        dim, cons = seq
        a = AffineSpace.full(dim)
        for v, y in cons:
            a = a.constrain(v, y)
        b = AffineSpace.full(dim)
        for v, y in reversed(cons):
            b = b.constrain(v, y)
        assert a == b
        assert a.rows == b.rows
        assert hash(a) == hash(b)

    @given(constraint_sequences(max_dim=10), st.integers(min_value=0))
    @settings(max_examples=300, deadline=None)
    def test_size_conservation(self, seq, vbits):
        dim, cons = seq
        s = AffineSpace.full(dim)
        for v, y in cons:
            s = s.constrain(v, y)
        v = BitVector(dim, vbits & ((1 << dim) - 1))
        s0, s1 = split_sizes(s, v)
        if s.empty:
            assert (s0, s1) == (None, None)
            return
        total = (0 if s0 is None else 1 << s0) + (0 if s1 is None else 1 << s1)
        assert total == 1 << s.log2_size
        # Each branch of constrain lands on the matching split size.
        for y, sy in ((0, s0), (1, s1)):
            branch = s.constrain(v, y)
            assert branch.log2_size == sy

    @given(constraint_sequences(max_dim=8))
    @settings(max_examples=200, deadline=None)
    def test_contains_agrees_with_points(self, seq):
        dim, cons = seq
        s = AffineSpace.full(dim)
        for v, y in cons:
            s = s.constrain(v, y)
        pts = {p.value for p in s.points()}
        for bits in range(1 << dim):
            assert s.contains(BitVector(dim, bits)) == (bits in pts)

    @given(st.integers(min_value=1, max_value=60), st.data())
    @settings(max_examples=200, deadline=None)
    def test_sole_point_recovers_target(self, dim, data):
        target = data.draw(st.integers(min_value=0, max_value=(1 << dim) - 1))
        s = AffineSpace.full(dim)
        tries = 0
        while s.rank < dim and tries < 20 * dim:
            mask = data.draw(st.integers(min_value=0, max_value=(1 << dim) - 1))
            y = (mask & target).bit_count() & 1
            s = s.constrain(BitVector(dim, mask), y)
            tries += 1
        if s.rank == dim:
            assert s.sole_point().value == target
            check_rref_invariants(s)


class TestPointsHelpers:
    def test_full_space_enumerates_everything(self):
        pts = point_texts(AffineSpace.full(3))
        assert pts == {"".join(bits) for bits in itertools.product("01", repeat=3)}

    def test_empty_space_enumerates_nothing(self):
        s = space_from(2, [("10", 1), ("10", 0)])
        assert list(s.points()) == []

    def test_zero_dim(self):
        assert [p.to01() for p in AffineSpace.full(0).points()] == [""]

    @given(constraint_sequences())
    @settings(max_examples=300, deadline=None)
    def test_points_come_in_free_assignment_order(self, seq):
        # reference: point c sets the free coordinates named by the bits
        # of c (lowest free coordinate first) and solves for the pivots
        dim, cons = seq
        s = AffineSpace.full(dim)
        for v, y in cons:
            s = s.constrain(v, y)
        rows = [(bv.value, rhs) for bv, rhs in s.rows]
        pivot_mask = 0
        for m, _ in rows:
            pivot_mask |= m & -m
        free = [c for c in range(dim) if not (pivot_mask >> c) & 1]
        expected = []
        if not s.empty:
            for combo in range(1 << len(free)):
                x = 0
                for idx, c in enumerate(free):
                    if (combo >> idx) & 1:
                        x |= 1 << c
                for m, r in rows:
                    if ((m ^ (m & -m)) & x).bit_count() & 1 ^ r:
                        x |= m & -m
                expected.append(x)
        assert [p.value for p in s.points()] == expected

    def test_first_point_of_a_large_space_is_immediate(self):
        # 2**200 points: taking the first must not enumerate the rest
        s = AffineSpace.full(200).constrain(BitVector.from_support(200, (3,)), 1)
        assert next(iter(s.points())) == BitVector.from_support(200, (3,))
