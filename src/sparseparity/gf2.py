"""Word-packed GF(2) vectors.

A :class:`BitVector` is a fixed-length bit sequence; bit ``i`` is
coordinate ``i``, stored little-endian (64 bits per storage word, so word
``j`` holds coordinates ``64*j .. 64*j+63``).
"""

from __future__ import annotations

from typing import Iterable

from .errors import LengthMismatchError


class BitVector:
    """Immutable fixed-length vector over GF(2)."""

    __slots__ = ("n", "_bits")

    def __init__(self, n: int, bits: int = 0):
        if n < 0:
            raise ValueError("length must be nonnegative")
        if bits < 0 or bits >> n:
            raise ValueError("storage has bits set at positions >= len")
        self.n = n
        self._bits = bits

    # -- constructors -------------------------------------------------

    @classmethod
    def zeros(cls, n: int) -> "BitVector":
        return cls(n, 0)

    @classmethod
    def ones(cls, n: int) -> "BitVector":
        return cls(n, (1 << n) - 1)

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> "BitVector":
        value = 0
        n = 0
        for b in bits:
            if b not in (0, 1):
                raise ValueError(f"bit must be 0 or 1, got {b!r}")
            value |= b << n
            n += 1
        return cls(n, value)

    @classmethod
    def from01(cls, text: str) -> "BitVector":
        """Parse a 0/1 string; character i is coordinate i."""
        return cls.from_bits(int(c) for c in text)

    @classmethod
    def from_support(cls, n: int, indices: Iterable[int]) -> "BitVector":
        value = 0
        for i in indices:
            if not 0 <= i < n:
                raise ValueError(f"index {i} out of range for length {n}")
            value |= 1 << i
        return cls(n, value)

    # -- views --------------------------------------------------------

    @property
    def value(self) -> int:
        """The packed storage as a single little-endian integer."""
        return self._bits

    @property
    def words(self) -> tuple[int, ...]:
        """64-bit little-endian storage words."""
        nwords = (self.n + 63) // 64
        m64 = (1 << 64) - 1
        return tuple((self._bits >> (64 * j)) & m64 for j in range(nwords))

    def to01(self) -> str:
        return "".join("1" if (self._bits >> i) & 1 else "0" for i in range(self.n))

    def bit(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise IndexError(f"bit {i} out of range for length {self.n}")
        return (self._bits >> i) & 1

    def support(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.n) if (self._bits >> i) & 1)

    def popcount(self) -> int:
        return self._bits.bit_count()

    # -- arithmetic ---------------------------------------------------

    def __xor__(self, other: "BitVector") -> "BitVector":
        if self.n != other.n:
            raise LengthMismatchError(f"xor of lengths {self.n} and {other.n}")
        return BitVector(self.n, self._bits ^ other._bits)

    def dot(self, other: "BitVector") -> int:
        if self.n != other.n:
            raise LengthMismatchError(f"dot of lengths {self.n} and {other.n}")
        return (self._bits & other._bits).bit_count() & 1

    # -- dunder plumbing ----------------------------------------------

    def __len__(self) -> int:
        return self.n

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BitVector)
            and self.n == other.n
            and self._bits == other._bits
        )

    def __hash__(self) -> int:
        return hash((self.n, self._bits))

    def __repr__(self) -> str:
        return f"BitVector({self.to01()!r})"


def dot(a: BitVector, b: BitVector) -> int:
    """Inner product mod 2; raises LengthMismatchError on length mismatch."""
    return a.dot(b)
