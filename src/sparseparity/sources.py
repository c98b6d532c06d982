"""Labeled-example sources: hidden sparse parities, uniform draws, noise.

A source emits :class:`LabeledExample` values whose labels are the inner
product of the drawn vector with a hidden weight-``k`` vector, optionally
XORed with an independent Bernoulli flip.  All randomness flows through a
seeded :class:`~sparseparity.rng.SplitMix64`, so streams are reproducible
across runs and platforms.

Stream file format (one example per line, ASCII):
``<n bits as a 0/1 string> <label 0/1>`` where character ``i`` of the bit
string is coordinate ``i``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

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


class UniformSource:
    """Uniform example vectors labeled by a hidden parity, with optional noise.

    Per example the generator draws the vector words first and then, only
    when ``eta > 0``, one word for the label flip, in one
    :meth:`~sparseparity.rng.SplitMix64.bits_and_flip` call.  A flip is not
    stored: it equals ``label ^ <a, hidden>``.
    """

    def __init__(self, hidden: BitVector, seed: int, eta: float = 0.0):
        if not 0.0 <= eta < 0.5:
            raise ValueError(f"noise rate must be in [0, 0.5), got {eta}")
        self.n = hidden.n
        self.hidden = hidden
        self.eta = eta
        self._rng = SplitMix64(seed)
        self._hidden_bits = hidden.value
        # bernoulli(eta)'s threshold; None draws no flip word.
        self._threshold = int(eta * 2.0**64) if eta > 0.0 else None
        self.draws = 0

    @classmethod
    def from_seed(
        cls, n: int, k: int, seed: int, eta: float = 0.0
    ) -> "UniformSource":
        """Draw the hidden vector and the stream from one seed.

        The hidden vector uses the first split of the seed stream and the
        examples use the second, so hidden and stream are independent.
        """
        meta = SplitMix64(seed)
        hidden = gen_hidden(n, k, meta.next_u64())
        return cls(hidden, meta.next_u64(), eta=eta)

    def next_example(self) -> LabeledExample:
        bits, flip = self._rng.bits_and_flip(self.n, self._threshold)
        self.draws += 1
        ex = _new(LabeledExample)
        _set_a(ex, BitVector(self.n, bits))
        # int ^ bool is an int, so a stream file prints 0/1, not True.
        _set_label(ex, ((bits & self._hidden_bits).bit_count() & 1) ^ flip)
        return ex

    def take(self, count: int) -> list[LabeledExample]:
        return [self.next_example() for _ in range(count)]

    def fork(self) -> "UniformSource":
        """A child source over the same hidden vector with a split RNG."""
        child = UniformSource(self.hidden, 0, eta=self.eta)
        child._rng = self._rng.split()
        return child


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
    def n(self) -> int | None:
        return self._examples[0].a.n if self._examples else None

    @property
    def remaining(self) -> int:
        return len(self._examples) - self._cursor

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

    def take(self, count: int) -> list[LabeledExample]:
        return [self.next_example() for _ in range(count)]


def parse_stream_line(line: str, lineno: int = 0) -> LabeledExample:
    parts = line.split()
    if len(parts) != 2:
        raise ValueError(
            f"line {lineno}: expected '<bits> <label>', got {line!r}"
        )
    bits, label = parts
    if not set(bits) <= {"0", "1"}:
        raise ValueError(f"line {lineno}: bit string has non-binary characters")
    if label not in ("0", "1"):
        raise ValueError(f"line {lineno}: label must be 0 or 1, got {label!r}")
    return LabeledExample(BitVector.from01(bits), int(label))


def read_stream(path_or_file) -> list[LabeledExample]:
    """Read a stream file; blank lines are skipped."""
    if isinstance(path_or_file, (str, bytes)) or hasattr(path_or_file, "__fspath__"):
        with open(path_or_file, "r", encoding="ascii") as fh:
            return read_stream(fh)
    examples = []
    n = None
    for lineno, line in enumerate(path_or_file, start=1):
        if not line.strip():
            continue
        ex = parse_stream_line(line, lineno)
        if n is None:
            n = ex.a.n
        elif ex.a.n != n:
            raise ValueError(
                f"line {lineno}: example length {ex.a.n} differs from {n}"
            )
        examples.append(ex)
    return examples


def format_stream(examples: Iterable[LabeledExample]) -> str:
    return "".join(f"{ex.a.to01()} {ex.label}\n" for ex in examples)


def write_stream(path_or_file, examples: Iterable[LabeledExample]) -> None:
    if isinstance(path_or_file, (str, bytes)) or hasattr(path_or_file, "__fspath__"):
        with open(path_or_file, "w", encoding="ascii") as fh:
            fh.write(format_stream(examples))
    else:
        path_or_file.write(format_stream(examples))
