"""Tests for example sources and noise injection."""

import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparseparity import sources
from sparseparity.gf2 import BitVector
from sparseparity.rng import SplitMix64
from sparseparity.sources import LabeledExample, UniformSource, gen_hidden

from bit_reference import bernoulli, bits, dot, from01
from replay_source import ReplaySource, SourceExhaustedError

V = from01


def take(source, count):
    """The next ``count`` examples of ``source``, in draw order."""
    return [source.next_example() for _ in range(count)]


def test_example_label_must_be_a_bit():
    assert LabeledExample(V("10"), 1).label == 1
    for label in (2, -1):
        with pytest.raises(ValueError, match="label must be 0 or 1"):
            LabeledExample(V("10"), label)


class TestGenHidden:
    def test_zero_weight(self):
        assert gen_hidden(5, 0, 7) == BitVector(5)

    def test_full_weight(self):
        assert gen_hidden(5, 5, 7) == BitVector(5, (1 << 5) - 1)

    def test_weight_and_determinism(self):
        a = gen_hidden(40, 3, 123)
        b = gen_hidden(40, 3, 123)
        assert a == b
        assert a.popcount() == 3

    def test_rejects_k_above_n(self):
        for k in (4, -1):
            with pytest.raises(ValueError, match="need 0 <= k <= n"):
                gen_hidden(3, k, 0)

    def test_support_distribution_roughly_uniform(self):
        # 15 possible supports for n=6, k=2; chi-square over 10^4 seeds.
        counts = Counter(gen_hidden(6, 2, seed).value for seed in range(10**4))
        assert len(counts) == 15
        expected = 10**4 / 15
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        # 14 degrees of freedom: 99.9th percentile is ~36.1.
        assert chi2 < 40


def flips_of(examples, hidden):
    """Each example's flip: its label XOR the hidden parity of its vector."""
    return [ex.label ^ dot(ex.a, hidden) for ex in examples]


class TestUniformSource:
    def test_noiseless_labels_are_exact(self):
        hidden = gen_hidden(20, 3, 5)
        src = UniformSource(hidden, seed=9)
        for _ in range(300):
            ex = src.next_example()
            assert ex.label == dot(ex.a, hidden)

    def test_seed_determinism(self):
        hidden = gen_hidden(16, 2, 1)
        s1 = UniformSource(hidden, seed=42, eta=0.25)
        s2 = UniformSource(hidden, seed=42, eta=0.25)
        e1 = take(s1, 100)
        e2 = take(s2, 100)
        assert e1 == e2
        assert flips_of(e1, hidden) == flips_of(e2, hidden)
        assert any(flips_of(e1, hidden))

    def test_noisy_labels_flip_exactly_when_logged(self):
        hidden = gen_hidden(16, 2, 3)
        src = UniformSource(hidden, seed=8, eta=0.25)
        ref = ReferenceSource(hidden, SplitMix64(8), 0.25)
        for _ in range(500):
            ref.next_example()
        assert flips_of(take(src, 500), hidden) == ref.flips

    def test_flip_rate_near_eta(self):
        hidden = gen_hidden(10, 2, 2)
        src = UniformSource(hidden, seed=77, eta=0.25)
        rate = sum(flips_of(take(src, 10**4), hidden)) / 10**4
        assert abs(rate - 0.25) < 0.02

    def test_rejects_bad_eta(self):
        hidden = gen_hidden(4, 1, 0)
        with pytest.raises(ValueError):
            UniformSource(hidden, seed=0, eta=0.5)
        with pytest.raises(ValueError):
            UniformSource(hidden, seed=0, eta=-0.1)

    def test_distinct_parities_disagree_on_half(self):
        f = BitVector.from_support(12, [0, 3])
        g = BitVector.from_support(12, [1, 5])
        src = UniformSource(f, seed=13)
        draws = 4000
        disagree = 0
        for _ in range(draws):
            ex = src.next_example()
            disagree += ex.label != dot(ex.a, g)
        sigma = math.sqrt(draws * 0.25)
        assert abs(disagree - draws / 2) < 3 * sigma


class ReferenceSource:
    """The draw UniformSource made before it fused its RNG calls.

    Per example: ``bits(n)``, the public ``BitVector`` constructor, ``dot``,
    then ``bernoulli(eta)`` when ``eta > 0``, and the checked
    ``LabeledExample`` constructor.
    """

    def __init__(self, hidden, rng, eta):
        self.hidden = hidden
        self.rng = rng
        self.eta = eta
        self.flips = []
        self.draws = 0

    def next_example(self):
        a = BitVector(self.hidden.n, bits(self.rng, self.hidden.n))
        label = dot(a, self.hidden)
        if self.eta > 0.0:
            flip = bernoulli(self.rng, self.eta)
            self.flips.append(flip)
            if flip:
                label ^= 1
        self.draws += 1
        return LabeledExample(a, label)

def upcoming_words(source, count=3):
    """The next ``count`` words the source would consume, without drawing.

    A ``UniformSource`` hands out the rest of its block before its
    generator's words; a ``ReferenceSource`` draws straight from its
    generator.  Equal upcoming words mean equal stream positions.
    """
    if isinstance(source, UniformSource):
        words = source._block[source._cursor:][:count]
        rng = SplitMix64(source._rng._state)
    else:
        words = []
        rng = SplitMix64(source.rng._state)
    return words + [rng.next_u64() for _ in range(count - len(words))]


def assert_same_draws(fast, ref, count):
    """Compare ``count`` draws; returns the fast source's flips."""
    start = len(ref.flips)
    examples = []
    for _ in range(count):
        got, want = fast.next_example(), ref.next_example()
        assert got == want
        assert got.a.n == want.a.n and got.a.value == want.a.value
        assert got.label == want.label
        # the trusted constructor must store an int label, not a bool
        assert type(got.label) is int
        examples.append(got)
    flips = flips_of(examples, fast.hidden)
    if ref.eta > 0.0:
        assert flips == ref.flips[start:]
    else:
        assert not any(flips) and ref.flips == []
    assert fast.draws == ref.draws
    assert upcoming_words(fast) == upcoming_words(ref)
    return flips


GAMMA = 0x9E3779B97F4A7C15


def unmix(word):
    """The counter state whose SplitMix64 output is ``word``."""
    mask = (1 << 64) - 1

    def unshift(y, shift):
        x = y
        for _ in range(64 // shift + 1):
            x = y ^ (x >> shift)
        return x

    z = unshift(word, 31)
    z = unshift(z * pow(0x94D049BB133111EB, -1, 1 << 64) & mask, 27)
    return unshift(z * pow(0xBF58476D1CE4E5B9, -1, 1 << 64) & mask, 30)


def words_per_example(n, eta):
    return (n + 63) // 64 + (eta > 0.0)


ETAS = (0.0, 0.01, 0.05, 0.3, 0.49)


class TestDrawEquivalence:
    @given(
        st.one_of(
            st.sampled_from([0, 1, 63, 64, 65, 128, 129]), st.integers(1, 200)
        ),
        st.sampled_from(ETAS),
        st.integers(0, (1 << 64) - 1),
        st.integers(0, (1 << 64) - 1),
        st.integers(0, 300),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_draw(self, n, eta, hidden_seed, seed, before):
        hidden = gen_hidden(n, min(n, 3), hidden_seed)
        fast = UniformSource(hidden, seed=seed, eta=eta)
        ref = ReferenceSource(hidden, SplitMix64(seed), eta)
        assert_same_draws(fast, ref, before)
        assert_same_draws(fast, ref, 25)

    # 64 * 300 + 1 bits: one example takes more words than a block holds.
    @pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 128, 129, 19201])
    def test_every_eta_at_word_boundaries(self, n):
        hidden = gen_hidden(n, min(n, 1), n)
        for eta in ETAS:
            # enough draws to refill the block at least twice, stopping
            # where the first block's words run out and one draw later
            width = max(words_per_example(n, eta), 1)
            count = 3 * sources._BLOCK_WORDS // width + 1
            at = sources._BLOCK_WORDS // width
            fast = UniformSource(hidden, seed=n, eta=eta)
            ref = ReferenceSource(hidden, SplitMix64(n), eta)
            for chunk in (at, 1, count - at - 1):
                assert_same_draws(fast, ref, chunk)

    def test_word_order(self):
        # Vector words little-endian, then the flip word w < floor(eta 2^64).
        hidden = gen_hidden(100, 3, 2)
        rng = SplitMix64(11)
        src = UniformSource(hidden, seed=11, eta=0.25)
        for _ in range(300):
            w0, w1, w2 = rng.next_u64(), rng.next_u64(), rng.next_u64()
            ex = src.next_example()
            assert ex.a.value == (w0 | w1 << 64) & ((1 << 100) - 1)
            assert ex.label == dot(ex.a, hidden) ^ (w2 < 1 << 62)

    def test_flip_is_bernoulli(self):
        hidden = gen_hidden(24, 2, 3)
        src = UniformSource(hidden, seed=3, eta=0.05)
        rng = SplitMix64(3)
        for _ in range(2000):
            ex = src.next_example()
            assert ex.a.value == bits(rng, 24)
            assert ex.label ^ dot(ex.a, hidden) == bernoulli(rng, 0.05)

    @pytest.mark.parametrize("offset, flipped", [(0, False), (-1, True)])
    def test_flip_word_at_the_threshold(self, offset, flipped):
        # Seed the stream so example 0's flip word (its second word) is
        # threshold + offset: a flip needs the word strictly below.
        threshold = int(0.25 * 2.0**64)
        seed = (unmix(threshold + offset) - 2 * GAMMA) % (1 << 64)
        hidden = gen_hidden(24, 2, 3)
        rng = SplitMix64(seed)
        rng.next_u64()
        assert rng.next_u64() == threshold + offset
        ex = UniformSource(hidden, seed=seed, eta=0.25).next_example()
        assert ex.label ^ dot(ex.a, hidden) == flipped

    @pytest.mark.parametrize("offset, flipped", [(0, False), (-1, True)])
    def test_scored_flip_word_at_the_threshold(self, offset, flipped):
        # the same stream scored without drawing: the hidden vector misses
        # example 0 exactly when its flip word is below the threshold
        threshold = int(0.25 * 2.0**64)
        seed = (unmix(threshold + offset) - 2 * GAMMA) % (1 << 64)
        hidden = gen_hidden(24, 2, 3)
        src = UniformSource(hidden, seed=seed, eta=0.25)
        assert src.disagreements([hidden], 1) == [int(flipped)]

    @pytest.mark.parametrize("offset", [0, -1])
    def test_scored_like_drawn_past_the_first_example(self, offset):
        # example 1's flip word at an odd threshold (eta * 2**64 below
        # 2**53): each flip lane is read alone, whatever the lanes below
        # it hold and whatever the parity of its word
        eta = 1e-5
        threshold = int(eta * 2.0**64)
        assert threshold & 1
        seed = (unmix(threshold + offset) - 4 * GAMMA) % (1 << 64)
        hidden = gen_hidden(24, 2, 3)
        drawn = take(UniformSource(hidden, seed=seed, eta=eta), 2)
        assert drawn[1].label ^ dot(drawn[1].a, hidden) == (offset < 0)
        misses = sum(ex.label ^ dot(ex.a, hidden) for ex in drawn)
        src = UniformSource(hidden, seed=seed, eta=eta)
        assert src.disagreements([hidden], 2) == [misses]

    def test_flip_word_drawn_below_threshold_resolution(self):
        # eta * 2**64 < 1: bernoulli never flips but still draws its word
        hidden = gen_hidden(10, 2, 1)
        fast = UniformSource(hidden, seed=4, eta=1e-30)
        ref = ReferenceSource(hidden, SplitMix64(4), 1e-30)
        assert not any(assert_same_draws(fast, ref, 50))


class TestSkip:
    # widths 1 to 3: one or two vector words, a flip word when eta > 0
    @given(
        st.sampled_from([1, 24, 63, 64, 65, 130]),
        st.sampled_from([0.0, 0.05]),
        st.integers(0, (1 << 64) - 1),
        st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_same_next_example_as_drawing(self, n, eta, seed, data):
        width = words_per_example(n, eta)
        per_block = sources._BLOCK_WORDS // width
        # start and stop on both sides of a block edge
        near = st.integers(-2, 2)
        before = data.draw(st.one_of(
            st.sampled_from([0, 1]), near.map(lambda d: per_block + d)))
        count = data.draw(st.one_of(
            st.integers(0, 3),
            near.map(lambda d: per_block - before % per_block + d),
            near.map(lambda d: 3 * per_block + d),
        ).filter(lambda c: c >= 0))
        hidden = gen_hidden(n, min(n, 2), seed)
        fast = UniformSource(hidden, seed=seed, eta=eta)
        twin = UniformSource(hidden, seed=seed, eta=eta)
        take(fast, before)
        take(twin, before + count)
        fast.skip(count)
        assert fast.draws == twin.draws == before + count
        assert upcoming_words(fast) == upcoming_words(twin)
        assert take(fast, 3) == take(twin, 3)

    @pytest.mark.parametrize("then", ["skip", "score"])
    def test_a_skip_past_the_block_leaves_the_source_as_drawing(self, then):
        # from mid-block past its end, then on: nothing of the old block
        # may be counted again
        hidden = gen_hidden(24, 2, 3)
        x = BitVector.from_support(24, (0,))
        fast = UniformSource(hidden, seed=5)
        twin = UniformSource(hidden, seed=5)
        take(fast, 3)
        fast.skip(sources._BLOCK_WORDS)
        take(twin, 3 + sources._BLOCK_WORDS)
        if then == "skip":
            fast.skip(2)
            take(twin, 2)
        else:
            assert fast.disagreements([x], 2) == twin.disagreements([x], 2)
        assert take(fast, 3) == take(twin, 3)

    def test_rejects_negative_count(self):
        src = UniformSource(gen_hidden(8, 2, 1), seed=1)
        with pytest.raises(ValueError):
            src.skip(-1)
        with pytest.raises(ValueError, match="cannot score"):
            src.disagreements([], -1)
        assert src.draws == 0

    def test_scores_a_block_and_the_word_before_it(self):
        # one word left: the block refills only once it is used up, so a
        # pass scores that word's example and a whole fresh block
        hidden = gen_hidden(24, 2, 3)
        x = BitVector.from_support(24, (0, 1))
        src = UniformSource(hidden, seed=7)
        twin = UniformSource(hidden, seed=7)
        take(src, sources._BLOCK_WORDS - 1)
        take(twin, sources._BLOCK_WORDS - 1)
        drawn = take(twin, sources._BLOCK_WORDS + 1)
        want = [sum(ex.label ^ dot(ex.a, v) for ex in drawn) for v in (hidden, x)]
        assert src.disagreements([hidden, x], len(drawn)) == want

    def test_scores_zero_length_examples(self):
        # n = 0 and no noise draw no words: every label and guess is 0
        src = UniformSource(BitVector(0), seed=1)
        assert src.disagreements([BitVector(0)] * 2, 5) == [0, 0]
        assert src.draws == 5

    def test_replay_skips_then_exhausts_like_drawing(self):
        exs = take(UniformSource(gen_hidden(8, 2, 1), seed=2), 5)
        src = ReplaySource(exs)
        src.skip(2)
        assert src.draws == 2
        assert src.next_example() == exs[2]
        with pytest.raises(SourceExhaustedError):
            src.skip(3)
        assert src.draws == 5  # as far as drawing gets before it raises
        with pytest.raises(SourceExhaustedError):
            src.disagreements([exs[0].a], 1)
        src = ReplaySource(exs)
        with pytest.raises(ValueError):
            src.skip(-1)
        src.skip(5)
        assert src.draws == 5


class TestReplaySource:
    def test_replays_then_exhausts(self):
        exs = [
            LabeledExample(V("101"), 1),
            LabeledExample(V("011"), 0),
            LabeledExample(V("000"), 0),
        ]
        src = ReplaySource(exs)
        assert [src.next_example() for _ in range(3)] == exs
        with pytest.raises(SourceExhaustedError):
            src.next_example()

    def test_rejects_mixed_lengths(self):
        with pytest.raises(ValueError):
            ReplaySource([LabeledExample(V("10"), 0), LabeledExample(V("1"), 0)])

    def test_empty(self):
        src = ReplaySource([])
        assert src.n is None
        with pytest.raises(SourceExhaustedError):
            src.next_example()
