"""Deterministic pseudo-randomness via SplitMix64.

Every random choice in the package flows through :class:`SplitMix64`
(Steele, Lea & Flood, "Fast Splittable Pseudorandom Number Generators",
OOPSLA 2014), so fixtures are byte-stable across platforms and Python
versions.  The derived draws are pinned as follows:

* ``next_u64`` -- the reference SplitMix64 output function.
* ``bits(m)`` -- m bits assembled from successive u64 words, little-endian:
  word ``j`` supplies bit positions ``64*j .. 64*j+63``; the top word is
  masked down to ``m`` bits.
* ``below(n)`` -- rejection sampling on the low ``ceil(log2 n)`` bits of
  fresh u64 words (one word per attempt).
* ``sample_sorted(n, k)`` -- partial Fisher-Yates over ``range(n)`` driven
  by ``below``, result sorted.
* ``bernoulli(p)`` -- ``next_u64() < floor(p * 2**64)``.
* ``bits_and_flip(m, threshold)`` -- one labeled example's randomness in
  one call: the words of ``bits(m)``, then, only when ``threshold`` is not
  None, one more word ``w`` giving the flip ``w < threshold``.  With
  ``threshold = floor(p * 2**64)`` it consumes and returns exactly what
  ``bits(m)`` followed by ``bernoulli(p)`` would.
* ``split()`` -- child generator seeded with ``next_u64()``.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


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

    def bits(self, nbits: int) -> int:
        """nbits uniform bits as an int, little-endian across u64 words."""
        out = 0
        for word_index in range((nbits + 63) // 64):
            out |= self.next_u64() << (64 * word_index)
        return out & ((1 << nbits) - 1)

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

    def bernoulli(self, p: float) -> bool:
        return self.next_u64() < int(p * 2.0**64)

    def bits_and_flip(
        self, nbits: int, threshold: int | None
    ) -> tuple[int, bool]:
        """``bits(nbits)``, then ``next_u64() < threshold`` unless None.

        The flip is False when no threshold is given.  The mixing is
        inlined, and a vector of 1..64 bits takes one word without a loop.
        """
        if 0 < nbits <= 64:
            s = (self._state + _GAMMA) & _MASK64
            z = ((s ^ (s >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
            bits = (z ^ (z >> 31)) & ((1 << nbits) - 1)
        else:
            bits = self.bits(nbits)
            s = self._state
        flip = False
        if threshold is not None:
            s = (s + _GAMMA) & _MASK64
            z = ((s ^ (s >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
            flip = (z ^ (z >> 31)) < threshold
        self._state = s
        return bits, flip

    def split(self) -> "SplitMix64":
        """Fork a child generator; advances this generator by one word."""
        return SplitMix64(self.next_u64())
