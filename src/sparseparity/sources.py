"""Labeled-example sources: hidden sparse parities, uniform draws, noise.

A source emits :class:`LabeledExample` values whose labels are the inner
product of the drawn vector with a hidden weight-``k`` vector, optionally
XORed with an independent Bernoulli flip.  All randomness flows through a
seeded :class:`~sparseparity.rng.SplitMix64`, so streams are reproducible
across runs and platforms.

Besides ``next_example``, a source hands out examples in bulk and moves
past examples it does not build: ``examples(count)`` returns the next
``count`` in one list, ``skip(count)`` drops them unread, and
``disagreements(candidates, count)`` scores candidate vectors against
their labels.  All three leave the source, and ``draws``, where ``count``
draws would.  :class:`UniformSource` is the library's one source; any
object with these members and ``n`` serves the noisy driver.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from operator import lshift, or_
from typing import Sequence

from .gf2 import BitVector
from .rng import SplitMix64, lane_words, word_lanes


@dataclass(frozen=True, slots=True)
class LabeledExample:
    a: BitVector
    label: int

    def __post_init__(self):
        if self.label not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {self.label!r}")


# Trusted construction for UniformSource, whose arithmetic already
# guarantees a 0/1 int label and a vector below 2**n: the slot setters
# bypass the frozen __setattr__ and the constructors' checks, at half
# their cost.
_new = object.__new__
_set_a = LabeledExample.a.__set__
_set_label = LabeledExample.label.__set__
_set_n = BitVector.n.__set__
_set_bits = BitVector._bits.__set__


def gen_hidden(n: int, k: int, seed: int) -> BitVector:
    """A uniform weight-k vector of length n, deterministic per seed."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    support = SplitMix64(seed).sample_sorted(n, k)
    return BitVector.from_support(n, support)


# Words UniformSource mixes per refill: SplitMix64.words amortises its
# per-call cost over the block, and a block of this size drew fastest.
_BLOCK_WORDS = 256

# Bit 4i of a lane holds the parity of nibble i once the lane is XORed
# with itself shifted by 1 and by 2; times _NIBBLES, the sum of those
# sixteen bits, hence the lane's parity, lands in bit 60.
_NIBBLES = 0x1111111111111111
_PARITY_BIT = 60


class UniformSource:
    """Uniform example vectors labeled by a hidden parity, with optional noise.

    Per example the generator draws the vector words first and then, only
    when ``eta > 0``, one word for the label flip.  The words come from a
    block of :meth:`~sparseparity.rng.SplitMix64.words` and are consumed
    in stream order, so the examples are exactly those of per-word draws.
    A flip is not stored: it equals ``label ^ <a, hidden>``.
    """

    def __init__(self, hidden: BitVector, seed: int, eta: float = 0.0):
        if not 0.0 <= eta < 0.5:
            raise ValueError(f"noise rate must be in [0, 0.5), got {eta}")
        self.n = hidden.n
        self.hidden = hidden
        self._rng = SplitMix64(seed)
        self._hidden_bits = hidden.value
        self._mask = (1 << self.n) - 1
        self._vector_words = (self.n + 63) // 64
        # The flip threshold of tests/bit_reference.py's bernoulli(eta);
        # eta = 0 draws no flip word.
        self._noisy = eta > 0.0
        self._threshold = int(eta * 2.0**64)
        self._width = self._vector_words + self._noisy
        self._block: list[int] = []
        self._cursor = 0
        self.draws = 0

    def next_example(self) -> LabeledExample:
        c = self._cursor
        block = self._block
        if c + self._width > len(block):
            # keep the unconsumed words, then a freshly mixed block
            block = self._block = block[c:] + self._rng.words(
                max(_BLOCK_WORDS, self._width)
            )
            c = 0
        self._cursor = c + self._width
        if self._vector_words == 1:
            bits = block[c] & self._mask
        else:
            bits = 0
            for j in range(self._vector_words):
                bits |= block[c + j] << (64 * j)
            bits &= self._mask
        label = (bits & self._hidden_bits).bit_count() & 1
        if self._noisy and block[c + self._vector_words] < self._threshold:
            label ^= 1
        self.draws += 1
        ex = _new(LabeledExample)
        _set_a(ex, BitVector(self.n, bits))
        _set_label(ex, label)
        return ex

    def examples(self, count: int) -> list[LabeledExample]:
        """The next ``count`` examples: those of ``count`` calls of
        :meth:`next_example`, in one list.

        The block is refilled as :meth:`next_example` refills it, once
        for each block those draws would mix, so the source is left in the
        state ``count`` draws leave it in.
        """
        if count < 0:
            raise ValueError(f"cannot draw {count} examples")
        width, c, block = self._width, self._cursor, self._block
        end = c + count * width
        while end > len(block):
            block = self._block = block[c:] + self._rng.words(
                max(_BLOCK_WORDS, width)
            )
            c, end = 0, end - c
        self._cursor = end
        self.draws += count
        # example e's words start at c + width * e: its vector words, then
        # its flip word when eta > 0 (a flip of 0 is never below 0)
        vectors = self._vector_words
        values = block[c:end:width] if vectors else [0] * count
        for j in range(1, vectors):
            high = map(lshift, block[c + j : end : width], repeat(64 * j))
            values = list(map(or_, values, high))
        flips = block[c + vectors : end : width] if self._noisy else repeat(0)
        n, mask, hidden = self.n, self._mask, self._hidden_bits
        threshold = self._threshold
        drawn = []
        for bits, flip in zip(values, flips):
            bits &= mask
            a = _new(BitVector)
            _set_n(a, n)
            _set_bits(a, bits)
            ex = _new(LabeledExample)
            _set_a(ex, a)
            _set_label(
                ex, ((bits & hidden).bit_count() & 1) ^ (flip < threshold)
            )
            drawn.append(ex)
        return drawn

    def skip(self, count: int) -> None:
        """Move past ``count`` examples without drawing their words.

        The rest of the block goes, and the generator skips the words the
        examples still need, so the next example and ``draws`` are those
        after ``count`` calls of :meth:`next_example`.
        """
        if count < 0:
            raise ValueError(f"cannot skip {count} examples")
        over = self._cursor + count * self._width - len(self._block)
        if over > 0:
            self._rng.skip(over)
            self._block = []
            self._cursor = 0
        else:
            self._cursor += count * self._width
        self.draws += count

    def disagreements(
        self, candidates: Sequence[BitVector], count: int
    ) -> list[int]:
        """Per candidate, how many of the next ``count`` labels it misses.

        Candidate ``x`` misses an example exactly when ``<a, hidden ^ x>``
        differs from its flip.  The examples are never built: the words
        are scored a block at a time in the 128-bit lanes that
        :meth:`~sparseparity.rng.SplitMix64.lanes` mixes them in ("SIMD
        within a register"; Warren, Hacker's Delight, ch. 5).  Per
        candidate and block that is one AND with ``hidden ^ x`` repeated
        at each example, the parity folded inside each lane, and one
        ``bit_count`` of the bits where it differs from the flip.  A flip
        word ``f`` is below the threshold ``t`` exactly when
        ``2**64 + t - 1 - f`` sets the guard bit 64 of its lane.  Blocks
        are drawn when :meth:`next_example` would draw them, so the source
        ends exactly as after ``count`` draws.  A candidate whose length
        is not ``n`` raises :class:`LengthMismatchError` before any draw.
        """
        if count < 0:
            raise ValueError(f"cannot score {count} examples")
        # hidden ^ x raises LengthMismatchError for a candidate of another n
        misses = [(self.hidden ^ x).words for x in candidates]
        self.draws += count
        counts = [0] * len(candidates)
        width, vector_words = self._width, self._vector_words
        if not width:
            # n = 0 and no noise: every label and every prediction is 0
            return counts
        size = max(_BLOCK_WORDS, width)
        # example e starts at lane width * e; a pass scores at most the
        # examples that end in one fresh block, plus one begun before it
        per_pass = (size + width - 1) // width
        starts = int.from_bytes(
            (b"\x01" + bytes(16 * width - 1)) * per_pass, "little"
        )
        patterns = [word_lanes(words) * starts for words in misses]
        nibbles = _NIBBLES * starts
        parity_bits = starts << _PARITY_BIT
        # flip lane of example e is lane width * e + vector_words; bit 64
        # there lines up with the parity bit of lane width * e
        flip_shift = 128 * vector_words
        flip_words = (((1 << 64) - 1) << flip_shift) * starts
        below = (((1 << 64) + self._threshold - 1) << flip_shift) * starts
        flip_shift += 64 - _PARITY_BIT
        block = self._block
        held = len(block) - self._cursor
        z = word_lanes(block[self._cursor:])
        while count:
            if held < width:
                z |= self._rng.lanes(size) << (128 * held)
                held += size
            e = min(held // width, count)
            used = 128 * width * e
            window = (1 << used) - 1
            words = z & window
            z >>= used
            held -= width * e
            count -= e
            if self._noisy:
                flips = (below - (words & flip_words)) >> flip_shift
            else:
                flips = 0
            wanted = parity_bits & window
            for i, pattern in enumerate(patterns):
                masked = words & pattern
                folded = masked
                for j in range(1, vector_words):
                    folded ^= masked >> (128 * j)
                folded ^= folded >> 1
                folded ^= folded >> 2
                folded = (folded & nibbles) * _NIBBLES
                counts[i] += ((folded ^ flips) & wanted).bit_count()
        self._block = lane_words(z, held)
        self._cursor = 0
        return counts
