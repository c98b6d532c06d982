"""Tests for word-packed bit vectors, the bit-matrix transpose and the
chunked k-subset walk."""

import functools
import gc
import itertools
import random
from operator import and_, or_, xor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparseparity.errors import LengthMismatchError
from sparseparity.gf2 import BitVector, subset_chunks, transpose

from bit_reference import dot, from01

V = from01


# -- BitVector ---------------------------------------------------------


class TestBitVector:
    def test_text_roundtrip(self):
        for text in ["", "0", "1", "1100", "0110100110010110"]:
            assert V(text).to01() == text

    def test_char_i_is_coordinate_i(self):
        assert V("0100").value == 1 << 1
        assert V("0100") == BitVector.from_support(4, [1])

    def test_from_support(self):
        assert BitVector.from_support(5, [0, 3]).to01() == "10010"
        assert BitVector.from_support(3, []).to01() == "000"
        for index in (3, -1):
            with pytest.raises(ValueError, match="out of range"):
                BitVector.from_support(3, [index])
        # a support is a set: a repeated index sets its bit once
        assert BitVector.from_support(4, [1, 1]) == BitVector.from_support(4, [1])

    def test_from_bits(self):
        assert BitVector.from_bits([1, 0, 1]).to01() == "101"
        with pytest.raises(ValueError, match="bit must be 0 or 1"):
            BitVector.from_bits([2])

    def test_zeros_ones(self):
        assert BitVector(4).to01() == "0000"
        assert BitVector(4, (1 << 4) - 1).to01() == "1111"

    def test_words_little_endian(self):
        v = BitVector(70, (3 << 64) | 5)
        assert v.words == (5, 3)
        assert BitVector(64, 7).words == (7,)
        # one bit past a word boundary takes a word of its own
        assert BitVector(65, 1 << 64).words == (0, 1)
        assert BitVector(129, 1 << 128).words == (0, 0, 1)
        assert BitVector(0).words == ()

    def test_storage_must_fit_length(self):
        with pytest.raises(ValueError):
            BitVector(3, 8)
        with pytest.raises(ValueError, match="nonnegative"):
            BitVector(-1)

    def test_repr_spells_the_bits(self):
        assert repr(V("1011")) == "BitVector('1011')"

    def test_len_is_the_length(self):
        assert len(V("101")) == 3
        assert len(BitVector(0)) == 0

    def test_xor(self):
        assert (V("1100") ^ V("1010")).to01() == "0110"
        with pytest.raises(LengthMismatchError):
            V("110") ^ V("1100")

    def test_equality_and_hash(self):
        assert V("101") == V("101")
        assert V("101") != V("1010")
        assert V("101") != V("100")
        assert len({V("101"), V("101"), V("011")}) == 2

    def test_popcount(self):
        assert V("10110").popcount() == 3
        assert BitVector(100).popcount() == 0

    def test_storage_is_two_slots(self):
        # a vector holds its length and packed bits and nothing else
        with pytest.raises(AttributeError):
            V("10").extra = 1


class TestDot:
    def test_hand_checked_pairs(self):
        assert dot(V("1100"), V("1010")) == 1
        assert dot(V("0000"), V("1111")) == 0
        assert dot(V("1111"), V("1111")) == 0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            dot(V("110"), V("1100"))



# -- transpose against the per-bit loop --------------------------------


def bit_transpose(rows, width):
    """Column c collects bit c of every row, one bit at a time."""
    columns = [0] * width
    for i, row in enumerate(rows):
        for c in range(width):
            if (row >> c) & 1:
                columns[c] |= 1 << i
    return columns


@st.composite
def bit_matrices(draw):
    height = draw(st.integers(min_value=0, max_value=130))
    width = draw(st.integers(min_value=0, max_value=70))
    row = st.integers(min_value=0, max_value=(1 << width) - 1)
    return draw(st.lists(row, min_size=height, max_size=height)), width


class TestTranspose:
    @pytest.mark.parametrize(
        "height,width",
        [(0, 0), (1, 1), (63, 24), (64, 24), (65, 24), (130, 20), (3, 70),
         (0, 5), (5, 0), (64, 64), (1, 129)],
    )
    @given(st.data())
    @settings(max_examples=10, deadline=None)
    def test_named_shapes_match_the_bit_loop(self, height, width, data):
        row = st.integers(min_value=0, max_value=(1 << width) - 1)
        rows = data.draw(st.lists(row, min_size=height, max_size=height))
        assert transpose(rows, width) == bit_transpose(rows, width)

    @given(bit_matrices())
    @settings(max_examples=200, deadline=None)
    def test_matches_the_bit_loop(self, matrix):
        rows, width = matrix
        assert transpose(rows, width) == bit_transpose(rows, width)

    def test_dense_rows_fill_every_column(self):
        assert transpose([0b111] * 65, 3) == [(1 << 65) - 1] * 3

    @pytest.mark.parametrize(
        "rows,width",
        [([1], 0), ([0, 8], 3), ([1 << 64], 64), ([-1], 4), ([0, -1], 4)],
    )
    def test_rows_that_do_not_fit_raise(self, rows, width):
        with pytest.raises(ValueError):
            transpose(rows, width)


# -- subset_chunks -----------------------------------------------------


def flat_walk(columns, k, op, unit):
    """Every (k-subset, value) that the chunks of ``subset_chunks`` give,
    in the order they give them."""
    walked = []
    for prefix, value, chunk, start in subset_chunks(columns, k, op, unit):
        tails = itertools.combinations(range(start, len(columns)), min(k, 2))
        walked += [
            (prefix + tail, op(value, entry))
            for tail, entry in zip(tails, chunk, strict=True)
        ]
    return walked


class TestSubsetChunks:
    """The chunks give every k-subset once, in lexicographic order, with
    ``unit`` and its columns folded by ``op``."""

    @settings(max_examples=120, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=255), max_size=9),
        st.integers(min_value=0, max_value=7),
        st.sampled_from([(xor, 0), (and_, 255), (or_, 0)]),
    )
    def test_every_k_subset_in_lex_order(self, columns, k, op_unit):
        op, unit = op_unit
        expected = [
            (c, functools.reduce(op, (columns[i] for i in c), unit))
            for c in itertools.combinations(range(len(columns)), k)
        ]
        assert flat_walk(columns, k, op, unit) == expected

    def test_one_chunk_below_three(self):
        columns = [0b0011, 0b0101, 0b0110]
        assert list(subset_chunks(columns, 0, xor, 0)) == [((), 0, [0], 0)]
        ((prefix, value, chunk, start),) = subset_chunks(columns, 1, xor, 0)
        assert (prefix, value, start) == ((), 0, 0) and chunk is columns
        assert list(subset_chunks(columns, 2, and_, 0b1111)) == [
            ((), 0b1111, [0b0001, 0b0010, 0b0100], 0)
        ]

    def test_a_chunk_is_the_pairs_past_the_prefix(self):
        columns = [1 << i for i in range(5)]
        chunks = list(subset_chunks(columns, 3, xor, 0))
        assert [(p, v, s) for p, v, _, s in chunks] == [
            ((i,), 1 << i, i + 1) for i in range(5)
        ]
        assert chunks[1][2] == [0b01100, 0b10100, 0b11000]
        assert [len(c) for _, _, c, _ in chunks] == [6, 3, 1, 0, 0]

    def test_k_past_the_columns_gives_no_subsets(self):
        assert flat_walk([3, 5, 6], 5, xor, 0) == []
        assert flat_walk([], 2, xor, 0) == []

    def test_a_walk_leaves_no_reference_cycle(self):
        # A cycle per call would hold each pair table until the cyclic
        # collector ran, whose pauses doubled gate 6's tail latency.
        gc.collect()
        gc.disable()
        try:
            for k in range(6):
                for _ in subset_chunks([1, 2, 3, 4, 5, 6, 7], k, xor, 0):
                    pass
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_a_negative_size_raises(self):
        with pytest.raises(ValueError, match="nonnegative"):
            subset_chunks([1, 2], -1, xor, 0)


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
        abits = [(a.value >> i) & 1 for i in range(a.n)]
        bbits = [(b.value >> i) & 1 for i in range(b.n)]
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
