"""Tests for the pinned SplitMix64 generator and its derived draws."""

import math
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sparseparity
from sparseparity.rng import SplitMix64, lane_words, word_lanes

from bit_reference import bernoulli, bits

MASK64 = (1 << 64) - 1


def reference_stream(seed: int, count: int) -> list[int]:
    """Per-step transcription of the published SplitMix64 algorithm."""
    s = seed & MASK64
    out = []
    for _ in range(count):
        s = (s + 0x9E3779B97F4A7C15) & MASK64
        z = s
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        out.append(z ^ (z >> 31))
    return out


class TestNextU64:
    def test_state_is_one_slot(self):
        # a generator holds its 64-bit counter and nothing else
        with pytest.raises(AttributeError):
            SplitMix64(0).extra = 1

    def test_seed_zero_published_vector(self):
        # First outputs of SplitMix64 with seed 0, as published with the
        # reference C implementation.
        r = SplitMix64(0)
        assert r.next_u64() == 0xE220A8397B1DCDAF
        assert r.next_u64() == 0x6E789E6AA1B965F4
        assert r.next_u64() == 0x06C45D188009454F

    @pytest.mark.parametrize("seed", [0, 1, 0xDEADBEEF, MASK64, 1 << 63])
    def test_matches_reference_transcription(self, seed):
        r = SplitMix64(seed)
        assert [r.next_u64() for _ in range(50)] == reference_stream(seed, 50)

    def test_seed_is_masked_to_64_bits(self):
        a = SplitMix64(5)
        b = SplitMix64(5 + (1 << 64))
        assert [a.next_u64() for _ in range(4)] == [b.next_u64() for _ in range(4)]

    def test_determinism(self):
        a = [SplitMix64(99).next_u64() for _ in range(1)]
        r = SplitMix64(99)
        assert r.next_u64() == a[0]
        r2 = SplitMix64(99)
        assert [r2.next_u64() for _ in range(10)] == reference_stream(99, 10)


class TestBits:
    """The pinned ``bits`` stream of the per-word source oracle."""

    def test_little_endian_word_assembly(self):
        words = reference_stream(42, 3)
        expected = (words[0] | (words[1] << 64) | (words[2] << 128)) & ((1 << 130) - 1)
        assert bits(SplitMix64(42), 130) == expected

    @pytest.mark.parametrize("nbits", [1, 63, 64, 65, 127, 128, 129, 300])
    def test_within_range(self, nbits):
        v = bits(SplitMix64(7), nbits)
        assert 0 <= v < (1 << nbits)

    def test_zero_bits(self):
        assert bits(SplitMix64(1), 0) == 0

    def test_exact_word_count_consumed(self):
        # bits(65) should consume exactly two u64 words.
        r = SplitMix64(8)
        bits(r, 65)
        follow = r.next_u64()
        assert follow == reference_stream(8, 3)[2]


class TestWords:
    @given(
        st.one_of(st.sampled_from([0, MASK64]), st.integers(0, MASK64)),
        st.one_of(
            st.sampled_from([0, 1, 255, 256, 257, 1000]), st.integers(0, 600)
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_next_u64_loop(self, seed, count):
        block, scalar = SplitMix64(seed), SplitMix64(seed)
        assert block.words(count) == [scalar.next_u64() for _ in range(count)]
        assert block.next_u64() == scalar.next_u64()

    @pytest.mark.parametrize("seed", [0, MASK64, 1 << 63])
    def test_matches_reference_transcription(self, seed):
        # Consecutive calls of different sizes continue one stream.
        r = SplitMix64(seed)
        got = r.words(3) + r.words(256) + r.words(1) + r.words(40)
        assert got == reference_stream(seed, 300)

    def test_first_call_of_a_fresh_process(self):
        # the lane constants are cached per count: the cache a process
        # starts with must hold no count
        src = Path(sparseparity.__file__).resolve().parent.parent
        code = (
            "from sparseparity.rng import SplitMix64\n"
            "for count in (1, 0):\n"
            "    print(SplitMix64(5).words(count))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True, env={"PYTHONPATH": str(src)},
        )
        assert done.stdout.split("\n")[:2] == [
            str(reference_stream(5, 1)), "[]"]

    def test_rejects_negative_count(self):
        with pytest.raises(ValueError):
            SplitMix64(0).words(-1)
        r = SplitMix64(3)
        with pytest.raises(ValueError, match="cannot draw"):
            r.lanes(-1)
        assert r.next_u64() == reference_stream(3, 1)[0]


class TestLanes:
    @given(st.integers(0, MASK64), st.integers(0, 600))
    @settings(max_examples=100, deadline=None)
    def test_low_halves_are_the_words(self, seed, count):
        lanes, block = SplitMix64(seed), SplitMix64(seed)
        z = lanes.lanes(count)
        assert z < 1 << (128 * count)
        words = block.words(count)
        assert [(z >> (128 * i)) & MASK64 for i in range(count)] == words
        assert lane_words(z, count) == words
        assert lanes.next_u64() == block.next_u64()

    @given(st.lists(st.integers(0, MASK64), max_size=300))
    def test_word_lanes_inverts_lane_words(self, words):
        z = word_lanes(words)
        assert z < 1 << (128 * len(words))
        assert all(z >> (128 * i + 64) & MASK64 == 0 for i in range(len(words)))
        assert lane_words(z, len(words)) == words


class TestSkip:
    @given(
        st.integers(0, MASK64),
        st.one_of(st.sampled_from([0, 1, 255, 256, 257]), st.integers(0, 10**5)),
    )
    @settings(max_examples=100, deadline=None)
    def test_same_state_as_drawing(self, seed, count):
        skipped, drawn = SplitMix64(seed), SplitMix64(seed)
        skipped.skip(count)
        drawn.words(count)
        assert skipped._state == drawn._state
        assert skipped.next_u64() == drawn.next_u64()

    def test_rejects_negative_count(self):
        with pytest.raises(ValueError):
            SplitMix64(0).skip(-1)


class TestBelow:
    @given(st.integers(min_value=1, max_value=10**9), st.integers(0, MASK64))
    @settings(max_examples=200, deadline=None)
    def test_in_range(self, bound, seed):
        assert 0 <= SplitMix64(seed).below(bound) < bound

    def test_bound_one_is_free(self):
        r = SplitMix64(13)
        assert r.below(1) == 0
        assert r.next_u64() == reference_stream(13, 1)[0]

    def test_rejects_nonpositive_bound(self):
        with pytest.raises(ValueError):
            SplitMix64(0).below(0)
        with pytest.raises(ValueError):
            SplitMix64(0).below(-3)

    def test_rejection_uses_low_bits(self):
        # For bound 10 the mask is 0xF: accept the first word whose low
        # nibble is < 10.
        r = SplitMix64(21)
        got = r.below(10)
        for w in reference_stream(21, 100):
            if w & 0xF < 10:
                assert got == (w & 0xF)
                break

    def test_rough_uniformity(self):
        r = SplitMix64(5)
        counts = [0] * 10
        draws = 20000
        for _ in range(draws):
            counts[r.below(10)] += 1
        for c in counts:
            assert abs(c - draws / 10) < 5 * math.sqrt(draws)


class TestSampleSorted:
    def test_shape(self):
        s = SplitMix64(9).sample_sorted(20, 5)
        assert len(s) == 5
        assert len(set(s)) == 5
        assert list(s) == sorted(s)
        assert all(0 <= x < 20 for x in s)

    def test_degenerate_sizes(self):
        assert SplitMix64(1).sample_sorted(5, 0) == ()
        assert SplitMix64(1).sample_sorted(5, 5) == (0, 1, 2, 3, 4)
        assert SplitMix64(1).sample_sorted(0, 0) == ()

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            SplitMix64(0).sample_sorted(3, 4)
        with pytest.raises(ValueError):
            SplitMix64(0).sample_sorted(3, -1)

    def test_all_subsets_reachable(self):
        r = SplitMix64(17)
        seen = {r.sample_sorted(4, 2) for _ in range(2000)}
        assert len(seen) == 6  # C(4,2)

    @given(
        st.integers(min_value=0, max_value=40),
        st.integers(0, MASK64),
        st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_always_valid_subset(self, n, seed, data):
        k = data.draw(st.integers(min_value=0, max_value=n))
        s = SplitMix64(seed).sample_sorted(n, k)
        assert len(s) == k and len(set(s)) == k
        assert list(s) == sorted(s)
        assert all(0 <= x < n for x in s)


class TestBernoulli:
    """The pinned ``bernoulli`` stream of the per-word source oracle."""

    def test_extremes(self):
        r = SplitMix64(3)
        assert not any(bernoulli(r, 0.0) for _ in range(100))
        assert all(bernoulli(r, 1.0) for _ in range(100))

    def test_threshold_rule(self):
        # bernoulli(p) is next_u64() < floor(p * 2**64).
        words = reference_stream(31, 50)
        r = SplitMix64(31)
        thresh = int(0.3 * 2.0**64)
        assert [bernoulli(r, 0.3) for _ in range(50)] == [w < thresh for w in words]

    def test_rough_mean(self):
        r = SplitMix64(11)
        draws = 20000
        mean = sum(bernoulli(r, 0.25) for _ in range(draws)) / draws
        assert abs(mean - 0.25) < 0.02
