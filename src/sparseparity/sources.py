"""Labeled-example sources: hidden sparse parities, uniform draws, noise.

A source emits :class:`LabeledExample` values whose labels are the inner
product of the drawn vector with a hidden weight-``k`` vector, optionally
XORed with an independent Bernoulli flip.  All randomness flows through a
seeded :class:`~sparseparity.rng.SplitMix64`, so streams are reproducible
across runs and platforms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import SourceExhaustedError
from .gf2 import BitVector
from .rng import SplitMix64


@dataclass(frozen=True, slots=True)
class LabeledExample:
    a: BitVector
    label: int

    def __post_init__(self):
        if self.label not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {self.label!r}")


# Trusted construction for UniformSource, whose arithmetic already
# guarantees a 0/1 int label: the slot setters bypass the frozen
# __setattr__ and __post_init__'s check, at half the constructor's cost.
_new = object.__new__
_set_a = LabeledExample.a.__set__
_set_label = LabeledExample.label.__set__


def gen_hidden(n: int, k: int, seed: int) -> BitVector:
    """A uniform weight-k vector of length n, deterministic per seed."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    support = SplitMix64(seed).sample_sorted(n, k)
    return BitVector.from_support(n, support)


# Words UniformSource mixes per refill: SplitMix64.words amortises its
# per-call cost over the block, and a block of this size drew fastest.
_BLOCK_WORDS = 256


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
        self.eta = eta
        self._rng = SplitMix64(seed)
        self._hidden_bits = hidden.value
        self._mask = (1 << self.n) - 1
        self._vector_words = (self.n + 63) // 64
        # bernoulli(eta)'s threshold; eta = 0 draws no flip word.
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


class ReplaySource:
    """Replays a fixed example list; raises SourceExhausted at the end."""

    def __init__(self, examples: Sequence[LabeledExample]):
        if examples:
            n = examples[0].a.n
            for ex in examples:
                if ex.a.n != n:
                    raise ValueError(
                        f"mixed example lengths {n} and {ex.a.n} in replay"
                    )
        self._examples = list(examples)
        self._cursor = 0

    @property
    def draws(self) -> int:
        return self._cursor

    def next_example(self) -> LabeledExample:
        if self._cursor >= len(self._examples):
            raise SourceExhaustedError(
                f"replay of {len(self._examples)} examples is exhausted"
            )
        ex = self._examples[self._cursor]
        self._cursor += 1
        return ex
