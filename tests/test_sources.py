"""Tests for example sources, noise injection, and stream files."""

import io
import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparseparity.errors import SourceExhaustedError
from sparseparity.gf2 import BitVector, dot
from sparseparity.rng import SplitMix64
from sparseparity.sources import (
    LabeledExample,
    ReplaySource,
    UniformSource,
    format_stream,
    gen_hidden,
    parse_stream_line,
    read_stream,
    write_stream,
)

V = BitVector.from01


class TestGenHidden:
    def test_zero_weight(self):
        assert gen_hidden(5, 0, 7) == BitVector.zeros(5)

    def test_full_weight(self):
        assert gen_hidden(5, 5, 7) == BitVector.ones(5)

    def test_weight_and_determinism(self):
        a = gen_hidden(40, 3, 123)
        b = gen_hidden(40, 3, 123)
        assert a == b
        assert a.popcount() == 3

    def test_rejects_k_above_n(self):
        with pytest.raises(ValueError):
            gen_hidden(3, 4, 0)

    def test_support_distribution_roughly_uniform(self):
        # 15 possible supports for n=6, k=2; chi-square over 10^4 seeds.
        counts = Counter(gen_hidden(6, 2, seed).support() for seed in range(10**4))
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
        e1 = s1.take(100)
        e2 = s2.take(100)
        assert e1 == e2
        assert flips_of(e1, hidden) == flips_of(e2, hidden)
        assert any(flips_of(e1, hidden))

    def test_noisy_labels_flip_exactly_when_logged(self):
        hidden = gen_hidden(16, 2, 3)
        src = UniformSource(hidden, seed=8, eta=0.25)
        ref = ReferenceSource(hidden, SplitMix64(8), 0.25)
        for _ in range(500):
            ref.next_example()
        assert flips_of(src.take(500), hidden) == ref.flips

    def test_flip_rate_near_eta(self):
        hidden = gen_hidden(10, 2, 2)
        src = UniformSource(hidden, seed=77, eta=0.25)
        rate = sum(flips_of(src.take(10**4), hidden)) / 10**4
        assert abs(rate - 0.25) < 0.02

    def test_from_seed_is_reproducible(self):
        s1 = UniformSource.from_seed(24, 2, seed=11, eta=0.05)
        s2 = UniformSource.from_seed(24, 2, seed=11, eta=0.05)
        assert s1.hidden == s2.hidden
        assert s1.hidden.popcount() == 2
        assert s1.take(50) == s2.take(50)

    def test_fork_gives_independent_deterministic_streams(self):
        base1 = UniformSource(gen_hidden(12, 2, 4), seed=6, eta=0.1)
        base2 = UniformSource(gen_hidden(12, 2, 4), seed=6, eta=0.1)
        f1 = base1.fork()
        f2 = base2.fork()
        assert f1.take(20) == f2.take(20)
        # Forking advanced the parent identically in both copies.
        assert base1.take(20) == base2.take(20)
        # Child and parent streams differ.
        g1 = UniformSource(gen_hidden(12, 2, 4), seed=6, eta=0.1)
        child = g1.fork()
        assert child.take(20) != g1.take(20)

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
        a = BitVector(self.hidden.n, self.rng.bits(self.hidden.n))
        label = dot(a, self.hidden)
        if self.eta > 0.0:
            flip = self.rng.bernoulli(self.eta)
            self.flips.append(flip)
            if flip:
                label ^= 1
        self.draws += 1
        return LabeledExample(a, label)

    def fork(self):
        return ReferenceSource(self.hidden, self.rng.split(), self.eta)


def assert_same_draws(fast, ref, count):
    """Compare ``count`` draws; returns the fast source's flips."""
    start = len(ref.flips)
    examples = []
    for _ in range(count):
        got, want = fast.next_example(), ref.next_example()
        assert got == want
        assert got.a.n == want.a.n and got.a.value == want.a.value
        assert got.label == want.label
        # a bool label would print as "True" in a stream file
        assert type(got.label) is int
        examples.append(got)
    flips = flips_of(examples, fast.hidden)
    if ref.eta > 0.0:
        assert flips == ref.flips[start:]
    else:
        assert not any(flips) and ref.flips == []
    assert fast.draws == ref.draws
    assert fast._rng._state == ref.rng._state
    return flips


class TestDrawEquivalence:
    @given(
        st.one_of(st.sampled_from([63, 64, 65, 128, 129]), st.integers(1, 200)),
        st.sampled_from([0.0, 0.01, 0.05, 0.3, 0.49]),
        st.integers(0, (1 << 64) - 1),
        st.integers(0, (1 << 64) - 1),
        st.integers(0, 40),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_draw(self, n, eta, hidden_seed, seed, before):
        hidden = gen_hidden(n, min(n, 3), hidden_seed)
        fast = UniformSource(hidden, seed=seed, eta=eta)
        ref = ReferenceSource(hidden, SplitMix64(seed), eta)
        assert_same_draws(fast, ref, before)
        fast_child, ref_child = fast.fork(), ref.fork()
        assert_same_draws(fast_child, ref_child, 25)
        assert_same_draws(fast, ref, 25)

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 128, 129])
    def test_every_eta_at_word_boundaries(self, n):
        hidden = gen_hidden(n, 1, n)
        for eta in (0.0, 0.01, 0.05, 0.3, 0.49):
            fast = UniformSource(hidden, seed=n, eta=eta)
            ref = ReferenceSource(hidden, SplitMix64(n), eta)
            assert_same_draws(fast, ref, 200)

    def test_flip_word_drawn_below_threshold_resolution(self):
        # eta * 2**64 < 1: bernoulli never flips but still draws its word
        hidden = gen_hidden(10, 2, 1)
        fast = UniformSource(hidden, seed=4, eta=1e-30)
        ref = ReferenceSource(hidden, SplitMix64(4), 1e-30)
        assert not any(assert_same_draws(fast, ref, 50))


class TestReplaySource:
    def test_replays_then_exhausts(self):
        exs = [
            LabeledExample(V("101"), 1),
            LabeledExample(V("011"), 0),
            LabeledExample(V("000"), 0),
        ]
        src = ReplaySource(exs)
        assert src.remaining == 3
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


class TestStreamFiles:
    def test_format_and_parse_roundtrip(self):
        exs = [LabeledExample(V("1010"), 1), LabeledExample(V("0001"), 0)]
        text = format_stream(exs)
        assert text == "1010 1\n0001 0\n"
        assert read_stream(io.StringIO(text)) == exs

    def test_file_roundtrip(self, tmp_path):
        exs = [LabeledExample(V("110"), 0), LabeledExample(V("011"), 1)]
        path = tmp_path / "stream.txt"
        write_stream(path, exs)
        assert read_stream(path) == exs
        assert path.read_text() == "110 0\n011 1\n"

    def test_bit_i_is_coordinate_i(self):
        ex = parse_stream_line("0100 1")
        assert ex.a.support() == (1,)
        assert ex.label == 1

    def test_blank_lines_skipped(self):
        assert read_stream(io.StringIO("\n10 1\n\n01 0\n\n")) == [
            LabeledExample(V("10"), 1),
            LabeledExample(V("01"), 0),
        ]

    @pytest.mark.parametrize(
        "line",
        ["10", "10 2", "1x 0", "10 1 extra", "10  "],
    )
    def test_malformed_lines_rejected(self, line):
        with pytest.raises(ValueError):
            parse_stream_line(line)

    def test_mixed_lengths_rejected(self):
        with pytest.raises(ValueError):
            read_stream(io.StringIO("10 1\n101 0\n"))

    def test_replay_of_written_file_matches(self, tmp_path):
        hidden = gen_hidden(8, 2, 3)
        src = UniformSource(hidden, seed=10)
        exs = src.take(5)
        path = tmp_path / "s.txt"
        write_stream(path, exs)
        replay = ReplaySource(read_stream(path))
        assert replay.take(5) == exs
