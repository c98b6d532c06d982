"""Word-packed GF(2) vectors and canonical affine subspace arithmetic.

A :class:`BitVector` is a fixed-length bit sequence; bit ``i`` is
coordinate ``i``, stored little-endian (64 bits per storage word, so word
``j`` holds coordinates ``64*j .. 64*j+63``).  An :class:`AffineSpace` is
the solution set of a linear system kept in reduced row echelon form, so
that equal solution sets have identical stored rows regardless of the
order in which constraints arrived.  :func:`mitm_tables` indexes the
low-weight supports of a coordinate split by syndrome, for the
meet-in-the-middle searches.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Sequence

from .errors import LengthMismatchError, NotSingletonError


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


Row = tuple[int, int]


def reduce_rows(rows: Sequence[Row], bits: int, rhs: int) -> Row:
    """Eliminate ``bits`` against RREF (mask, rhs) rows; the rhs follows."""
    for m, r in rows:
        if bits & (m & -m):
            bits ^= m
            rhs ^= r
    return bits, rhs


def insert_row(rows: Sequence[Row], mask: int, rhs: int) -> list[Row]:
    """Canonical RREF of ``rows`` plus their nonzero residual ``mask``."""
    piv = mask & -mask
    new_rows: list[Row] = []
    inserted = False
    for m, r in rows:
        if not inserted and (m & -m) > piv:
            new_rows.append((mask, rhs))
            inserted = True
        if m & piv:
            new_rows.append((m ^ mask, r ^ rhs))
        else:
            new_rows.append((m, r))
    if not inserted:
        new_rows.append((mask, rhs))
    return new_rows


class AffineSpace:
    """Solution set of a consistent GF(2) linear system in canonical RREF.

    Rows are (mask, rhs) pairs sorted by pivot column (the lowest set bit
    of the mask); every pivot column has exactly one 1 across all rows.
    The inconsistent system is the distinguished ``empty`` value with no
    stored rows.
    """

    __slots__ = ("ambient_dim", "empty", "_rows")

    def __init__(self, ambient_dim: int):
        if ambient_dim < 0:
            raise ValueError("ambient dimension must be nonnegative")
        self.ambient_dim = ambient_dim
        self.empty = False
        self._rows: list[tuple[int, int]] = []

    @classmethod
    def full(cls, ambient_dim: int) -> "AffineSpace":
        return cls(ambient_dim)

    @classmethod
    def _make(
        cls, ambient_dim: int, rows: list[tuple[int, int]], empty: bool
    ) -> "AffineSpace":
        space = cls(ambient_dim)
        space._rows = rows
        space.empty = empty
        return space

    @classmethod
    def empty_space(cls, ambient_dim: int) -> "AffineSpace":
        return cls._make(ambient_dim, [], True)

    # -- inspection ---------------------------------------------------

    @property
    def rank(self) -> int:
        return len(self._rows)

    @property
    def log2_size(self) -> int | None:
        """log2 of the number of points, or None for the empty space."""
        if self.empty:
            return None
        return self.ambient_dim - len(self._rows)

    @property
    def rows(self) -> tuple[tuple[BitVector, int], ...]:
        return tuple(
            (BitVector(self.ambient_dim, m), r) for m, r in self._rows
        )

    def contains(self, v: BitVector) -> bool:
        if v.n != self.ambient_dim:
            raise LengthMismatchError(
                f"point of length {v.n} in space of dimension {self.ambient_dim}"
            )
        if self.empty:
            return False
        bits = v.value
        return all((m & bits).bit_count() & 1 == r for m, r in self._rows)

    # -- core operations ----------------------------------------------

    def constrain(self, v: BitVector, y: int) -> "AffineSpace":
        """Canonical RREF of the intersection with {f : <v,f> = y}."""
        if v.n != self.ambient_dim:
            raise LengthMismatchError(
                f"vector of length {v.n} in space of dimension {self.ambient_dim}"
            )
        if y not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {y!r}")
        if self.empty:
            return self
        res, rhs = reduce_rows(self._rows, v.value, y)
        if res == 0:
            if rhs == 0:
                return self
            return AffineSpace.empty_space(self.ambient_dim)
        return AffineSpace._make(
            self.ambient_dim, insert_row(self._rows, res, rhs), False
        )

    def sole_point(self) -> BitVector:
        """The unique solution of a full-rank system, by back-substitution."""
        if self.empty or len(self._rows) < self.ambient_dim:
            raise NotSingletonError(
                f"space has rank {len(self._rows)} in dimension "
                f"{self.ambient_dim}" + (" (empty)" if self.empty else "")
            )
        # Full-rank RREF: every column is a pivot, so each row is a unit
        # vector and the solution reads off the right-hand sides.
        value = 0
        for m, r in self._rows:
            if r:
                value |= m
        return BitVector(self.ambient_dim, value)

    def points(self) -> Iterator[BitVector]:
        """All solutions, in the order of free-coordinate assignments.

        Point number ``c`` sets the free coordinates named by the bits of
        ``c`` (lowest free coordinate first).  The points start from the
        particular solution (all free coordinates 0), and each null-space
        basis vector, taken in free-coordinate order, doubles the list by
        being XORed into every point so far.  Intended for small spaces;
        the iteration is 2**(dim - rank) long.
        """
        if self.empty:
            return
        dim = self.ambient_dim
        particular = 0
        pivot_mask = 0
        for m, r in self._rows:
            p = m & -m
            pivot_mask |= p
            if r:
                particular |= p
        # In RREF a row holds its pivot and free coordinates only, so the
        # basis vector of free coordinate c sets c and the pivot of every
        # row that contains c.
        basis = []
        for c in range(dim):
            if not (pivot_mask >> c) & 1:
                b = 1 << c
                for m, _ in self._rows:
                    if (m >> c) & 1:
                        b |= m & -m
                basis.append(b)
        found = [particular]
        yield BitVector(dim, particular)
        for b in basis:
            half = [x ^ b for x in found]
            found += half
            for x in half:
                yield BitVector(dim, x)

    # -- dunder plumbing ----------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, AffineSpace)
            and self.ambient_dim == other.ambient_dim
            and self.empty == other.empty
            and self._rows == other._rows
        )

    def __hash__(self) -> int:
        return hash((self.ambient_dim, self.empty, tuple(self._rows)))

    def __repr__(self) -> str:
        if self.empty:
            return f"AffineSpace(dim={self.ambient_dim}, empty)"
        return (
            f"AffineSpace(dim={self.ambient_dim}, rank={len(self._rows)})"
        )


def mitm_tables(
    vectors: Sequence[BitVector], n: int, k: int
) -> tuple[dict, list]:
    """The two half tables of the meet-in-the-middle split.

    The syndrome of a support has bit i set when ``vectors[i]`` has an odd
    number of ones on it.  ``left[(syndrome, j)]`` lists the j-subsets of
    the left half ``range((n + 1) // 2)`` with that syndrome; ``right``
    lists ``(support, syndrome, r)`` for the r-subsets of the right half;
    j and r run up to k.  No labels are read, so the tables serve every
    labeling of the same vectors.
    """
    columns = [0] * n
    for i, v in enumerate(vectors):
        if v.n != n:
            raise ValueError(f"example length {v.n} != n={n}")
        bits = v.value
        for c in range(n):
            if (bits >> c) & 1:
                columns[c] |= 1 << i

    def subsets(coords):
        for size in range(k + 1):
            for support in itertools.combinations(coords, size):
                syndrome = 0
                for c in support:
                    syndrome ^= columns[c]
                yield support, syndrome, size

    left: dict[tuple[int, int], list[tuple[int, ...]]] = {}
    for support, syndrome, j in subsets(range(0, (n + 1) // 2)):
        left.setdefault((syndrome, j), []).append(support)
    return left, list(subsets(range((n + 1) // 2, n)))
