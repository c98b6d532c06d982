"""Deterministic pseudo-randomness via SplitMix64.

Every random choice in the package flows through :class:`SplitMix64`
(Steele, Lea & Flood, "Fast Splittable Pseudorandom Number Generators",
OOPSLA 2014), so fixtures are byte-stable across platforms and Python
versions.  The draws the library makes are pinned as follows:

* ``next_u64`` -- the reference SplitMix64 output function.
* ``below(n)`` -- rejection sampling on the low ``ceil(log2 n)`` bits of
  fresh u64 words (one word per attempt).
* ``sample_sorted(n, k)`` -- partial Fisher-Yates over ``range(n)`` driven
  by ``below``, result sorted.
* ``words(count)`` -- the next ``count`` u64 words as a list, exactly
  ``[next_u64() for _ in range(count)]``, mixed all at once.
* ``lanes(count)`` -- the same words as ``words(count)``, word ``i`` in
  the low half of 128-bit lane ``i`` of one int (the high halves hold
  junk); ``lane_words`` and ``word_lanes`` convert between the two forms.
* ``skip(count)`` -- the state ``words(count)`` leaves, without mixing:
  the counter moves by ``count * gamma``.
"""

from __future__ import annotations

import sys
from typing import Sequence

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

# words() mixes each counter in its own 128-bit lane of one int: a lane's
# product of two 64-bit words fits in 128 bits, and the right shifts only
# spill a neighbour's low bits into the upper half, which is masked off
# ("SIMD within a register"; Warren, Hacker's Delight, ch. 2 and 5).  The
# low words come back out as native u64s, in lane order.
_LANE_BYTES = 16
if sys.byteorder == "little":
    _BYTEORDER, _LOW_WORDS = "little", slice(None, None, 2)
else:
    _BYTEORDER, _LOW_WORDS = "big", slice(None, None, -2)
_lanes = (0, 0, 0, 0)  # _lane_constants(0)


def _lane_constants(count: int) -> tuple[int, int, int, int]:
    """``(count, ones, steps, mask)`` over ``count`` lanes.

    Lane ``i`` holds 1 in ``ones``, ``(i + 1) * gamma`` mod 2**64 in
    ``steps`` and 2**64 - 1 in ``mask``.  The last count is cached.
    """
    global _lanes
    if _lanes[0] != count:
        steps = b"".join(
            ((i * _GAMMA) & _MASK64).to_bytes(_LANE_BYTES, "little")
            for i in range(1, count + 1)
        )
        _lanes = (
            count,
            int.from_bytes((b"\x01" + bytes(15)) * count, "little"),
            int.from_bytes(steps, "little"),
            int.from_bytes((b"\xff" * 8 + bytes(8)) * count, "little"),
        )
    return _lanes


class SplitMix64:
    """The SplitMix64 generator over a 64-bit counter state."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound) by rejection on low bits."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        if bound == 1:
            return 0
        mask = (1 << (bound - 1).bit_length()) - 1
        while True:
            v = self.next_u64() & mask
            if v < bound:
                return v

    def sample_sorted(self, n: int, k: int) -> tuple[int, ...]:
        """Uniform k-subset of range(n), sorted."""
        if not 0 <= k <= n:
            raise ValueError(f"cannot sample {k} of {n} items")
        pool = list(range(n))
        for i in range(k):
            j = i + self.below(n - i)
            pool[i], pool[j] = pool[j], pool[i]
        return tuple(sorted(pool[:k]))

    def words(self, count: int) -> list[int]:
        """The next ``count`` words: ``[next_u64() for _ in range(count)]``."""
        return lane_words(self.lanes(count), count)

    def lanes(self, count: int) -> int:
        """The next ``count`` words, word ``i`` in the low 64 bits of
        128-bit lane ``i`` of one int; the high 64 bits hold junk.

        Counter ``state + (i + 1) * gamma`` sits in lane ``i``, so each
        step of the output function runs once over every word.
        """
        if count < 0:
            raise ValueError(f"cannot draw {count} words")
        _, ones, steps, mask = _lane_constants(count)
        z = (self._state * ones + steps) & mask
        self._state = (self._state + count * _GAMMA) & _MASK64
        z = ((z ^ (z >> 30)) & mask) * 0xBF58476D1CE4E5B9 & mask
        z = ((z ^ (z >> 27)) & mask) * 0x94D049BB133111EB & mask
        return z ^ (z >> 31)

    def skip(self, count: int) -> None:
        """Move past the next ``count`` words without mixing them."""
        if count < 0:
            raise ValueError(f"cannot skip {count} words")
        self._state = (self._state + count * _GAMMA) & _MASK64


def lane_words(lanes: int, count: int) -> list[int]:
    """The low words of the first ``count`` 128-bit lanes, in lane order.

    ``lanes`` must be below ``2**(128 * count)``.
    """
    raw = lanes.to_bytes(count * _LANE_BYTES, _BYTEORDER)
    return memoryview(raw).cast("Q")[_LOW_WORDS].tolist()


def word_lanes(words: Sequence[int]) -> int:
    """Word ``i`` of ``words`` in the low half of 128-bit lane ``i``, high
    halves zero: the inverse of :func:`lane_words`."""
    return int.from_bytes(
        b"".join(w.to_bytes(_LANE_BYTES, "little") for w in words), "little"
    )
