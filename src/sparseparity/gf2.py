"""Word-packed GF(2) vectors.

A :class:`BitVector` is a fixed-length bit sequence; bit ``i`` is
coordinate ``i``, stored little-endian (64 bits per storage word, so word
``j`` holds coordinates ``64*j .. 64*j+63``).  :func:`transpose` turns a
list of packed rows into its packed columns with whole-int steps.
:func:`subset_chunks` walks the k-subsets of a list of columns in
lexicographic order, one chunk of pair values per (k-2)-prefix.
"""

from __future__ import annotations

from itertools import chain, combinations, repeat, starmap
from typing import Callable, Iterable, Iterator, Sequence

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

    def popcount(self) -> int:
        return self._bits.bit_count()

    # -- arithmetic ---------------------------------------------------

    def __xor__(self, other: "BitVector") -> "BitVector":
        if self.n != other.n:
            raise LengthMismatchError(f"xor of lengths {self.n} and {other.n}")
        return BitVector(self.n, self._bits ^ other._bits)

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


_swaps: tuple[int, tuple[tuple[int, int], ...]] = (0, ())  # _swap_stages(0)


def _swap_stages(size: int) -> tuple[tuple[int, int], ...]:
    """The ``(shift, mask)`` of each block-swap stage on a ``size`` x
    ``size`` bit matrix whose entry (i, j) is bit ``i * size + j``.

    The stage for block ``b`` swaps every entry whose column has bit
    ``b`` and whose row has not with the entry ``b`` rows down and ``b``
    columns left, ``shift = b * (size - 1)`` bits up; its mask marks the
    first of each pair.  A mask is two periodic patterns, each doubled
    up to the square's area, so it costs time linear in the area.  The
    last size is cached.
    """
    global _swaps
    if _swaps[0] != size:
        area = size * size

        def bit_set(t):
            # every position p < area with p & t, for t a power of two
            x, period = ((1 << t) - 1) << t, 2 * t
            while period < area:
                x |= x << period
                period *= 2
            return x

        stages = []
        b = size >> 1
        while b:
            stages.append((b * (size - 1), bit_set(b) & ~bit_set(b * size)))
            b >>= 1
        _swaps = (size, tuple(stages))
    return _swaps[1]


def transpose(rows: Sequence[int], width: int) -> list[int]:
    """The ``width`` columns of a bit matrix given by its packed rows.

    Bit ``i`` of column ``c`` is bit ``c`` of ``rows[i]``.  The rows are
    packed into one int, padded to a square whose side is a power of two
    (at least 8, so rows are whole bytes), and the square is transposed
    by ``log2(side)`` mask, shift and XOR stages (the block-swap
    transpose, Warren, *Hacker's Delight* 7-3).  A row that is negative
    or at or above ``2**width`` raises ValueError.
    """
    if max(rows, default=0) >> width or min(rows, default=0) < 0:
        raise ValueError(f"a row does not fit in {width} bits")
    size = max(8, 1 << (max(len(rows), width) - 1).bit_length())
    step = size // 8
    x = int.from_bytes(
        b"".join(map(int.to_bytes, rows, repeat(step), repeat("little"))),
        "little",
    )
    for shift, mask in _swap_stages(size):
        t = (x ^ (x >> shift)) & mask
        x ^= t ^ (t << shift)
    data = x.to_bytes(size * step, "little")
    return [
        int.from_bytes(data[i : i + step], "little")
        for i in range(0, width * step, step)
    ]


def subset_chunks(
    columns: Sequence[int], k: int, op: Callable[[int, int], int], unit: int
) -> Iterable[tuple[tuple[int, ...], int, Sequence[int], int]]:
    """The values of the k-subsets of ``columns``, in lexicographic order,
    one chunk per (k-2)-subset of indices.

    A subset's value is ``unit`` and its columns folded with ``op``, which
    must be associative and commutative with ``unit`` its identity on the
    columns: ``xor`` and 0, or ``and_`` and an int holding every column.
    Gives ``(prefix, value, chunk, start)`` for each (k-2)-subset
    ``prefix`` in lexicographic order: ``value`` is the prefix's value, and
    ``chunk`` holds one entry per ``tail`` of
    ``combinations(range(start, len(columns)), min(k, 2))``, in that order,
    with ``op(value, entry)`` the value of the k-subset ``prefix + tail``.

    One pair table, ``starmap(op, combinations(columns, 2))``, serves
    every chunk: in that lexicographic order the pairs whose smaller index
    is at least ``start`` form one suffix, so past a nonempty prefix,
    ``start`` is one more than its last index and the chunk is one slice.
    Below k = 3 the prefix is empty and ``start`` is 0, and the one chunk
    is ``[unit]`` (k = 0), ``columns`` itself (k = 1) or the pair table
    (k = 2).  The prefix values come from the same walk at ``k - 2``, one
    chunk at a time, so besides the pair table the walk holds one chunk
    per level.  A negative ``k`` raises ValueError.
    """
    if k < 0:
        raise ValueError(f"subset size must be nonnegative, got {k}")
    pairs = list(starmap(op, combinations(columns, 2))) if k >= 2 else []
    return _chunks(columns, pairs, k, op, unit)


def _chunks(
    columns: Sequence[int],
    pairs: list[int],
    k: int,
    op: Callable[[int, int], int],
    unit: int,
) -> Iterable[tuple[tuple[int, ...], int, Sequence[int], int]]:
    # Below k = 3 the one chunk comes back in a tuple: no generator is
    # started, so a walk at k <= 2 costs what its one chunk costs.
    if k <= 2:
        return (((), unit, ([unit], columns, pairs)[k], 0),)
    return _prefix_chunks(columns, pairs, k, op, unit)


def _prefix_chunks(
    columns: Sequence[int],
    pairs: list[int],
    k: int,
    op: Callable[[int, int], int],
    unit: int,
) -> Iterator[tuple[tuple[int, ...], int, Sequence[int], int]]:
    # A module-level generator, not one nested in subset_chunks: a nested
    # generator that calls itself is a reference cycle per call, which
    # holds the pair table until the cyclic collector runs.
    n = len(columns)
    values = chain.from_iterable(
        map(op, repeat(value), chunk)
        for _, value, chunk, _ in _chunks(columns, pairs, k - 2, op, unit)
    )
    for prefix, value in zip(combinations(range(n), k - 2), values):
        start = prefix[-1] + 1
        # start * (2n - 1 - start) / 2 pairs have smaller index < start
        yield prefix, value, pairs[start * (2 * n - 1 - start) // 2 :], start
