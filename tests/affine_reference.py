"""Canonical-RREF affine subspaces over GF(2), a test oracle.

Rows are (mask, rhs) pairs whose pivot is the mask's lowest set bit;
:func:`reduce_rows` eliminates a vector against any rows that are each
free of the earlier rows' pivots.  An :class:`AffineSpace` is the
solution set of a linear system kept in reduced row echelon form, so
that equal solution sets have identical stored rows regardless of the
order in which constraints arrived.  The chart learner keeps generator
form instead (a point plus a null-space basis); the local-coordinate
chart reference, the Gaussian-elimination baseline and acceptance gate 1
are built on this class.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from sparseparity.errors import LengthMismatchError, NotSingletonError
from sparseparity.gf2 import BitVector


Row = tuple[int, int]


def reduce_rows(rows: Sequence[Row], bits: int, rhs: int) -> Row:
    """Eliminate ``bits`` against (mask, rhs) rows; the rhs follows.

    Each row must hold none of the pivots (lowest set bits) of the rows
    before it; canonical RREF is the special case.  One pass in row order
    then clears every pivot, and the residual is the one vector of
    ``bits`` plus the row span that holds no pivot.
    """
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
