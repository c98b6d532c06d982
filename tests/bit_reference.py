"""Bit helpers the tests use and the library does not keep.

``from01`` and ``dot`` read and label vectors in test oracles.  ``bits``
and ``bernoulli`` are the per-word draws ``UniformSource`` was defined by
before it read its words in blocks, kept here as its oracle's streams:

* ``bits(rng, m)`` -- m bits assembled from successive u64 words,
  little-endian: word ``j`` supplies bit positions ``64*j .. 64*j+63``;
  the top word is masked down to ``m`` bits.
* ``bernoulli(rng, p)`` -- ``next_u64() < floor(p * 2**64)``.
"""

from sparseparity.errors import LengthMismatchError
from sparseparity.gf2 import BitVector


def from01(text: str) -> BitVector:
    """Parse a 0/1 string; character i is coordinate i."""
    return BitVector.from_bits(int(c) for c in text)


def dot(a: BitVector, b: BitVector) -> int:
    """Inner product mod 2; raises LengthMismatchError on length mismatch."""
    if a.n != b.n:
        raise LengthMismatchError(f"dot of lengths {a.n} and {b.n}")
    return (a.value & b.value).bit_count() & 1


def bits(rng, nbits: int) -> int:
    """nbits uniform bits as an int, little-endian across u64 words."""
    out = 0
    for word_index in range((nbits + 63) // 64):
        out |= rng.next_u64() << (64 * word_index)
    return out & ((1 << nbits) - 1)


def bernoulli(rng, p: float) -> bool:
    return rng.next_u64() < int(p * 2.0**64)
