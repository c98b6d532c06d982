"""Random covering families over a balanced partition of coordinates.

The construction splits the ``n`` coordinates round-robin into ``T = alpha*t``
parts and draws ``m`` random ``alpha*k``-element subsets of the part indices.
A family *covers* when every ``k``-subset of part indices is contained in
some drawn subset; ``m`` is sized so a single draw covers with probability
better than 1/2.  :func:`verify_cover` certifies coverage by ANDing
per-part bitsets of the drawn subsets over the ``C(T, k)`` k-subsets of
parts, a chunk of pairs at a time, unless that walk is over
``ENUMERATION_BUDGET``.
:func:`build_verified_family` resamples up to ``SAMPLE_ATTEMPTS`` times
until one family verifies, and otherwise hands back the seed's first
sample, unverified.
The part bitsets and the chart columns of the learner are both sliced out
of the family's ``m x T`` 0/1 incidence table.

:func:`sample_family` draws all ``m`` subsets at once, with the subsets,
words and rejections of ``m`` calls of ``SplitMix64.sample_sorted``.  A
compiled bytes regex splits the stream of low word bytes into each
subset's rejected and accepted draws, the partial Fisher-Yates shuffle runs
with one lane of an int per subset, and each part's incidence column is
the set of lanes whose shuffle took it.
"""

from __future__ import annotations

import logging
import math
import re
import struct
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations, compress, groupby, repeat
from operator import and_, not_

from .errors import BudgetExceededError
from .gf2 import subset_chunks
from .rng import _LANE_BYTES, SplitMix64

logger = logging.getLogger(__name__)

# Both are read at call time, not bound as argument defaults.
ENUMERATION_BUDGET = 10**6
SAMPLE_ATTEMPTS = 10
# Words mixed at once while sampling a family: UniformSource's block size,
# so SplitMix64.lanes keeps one set of cached lane constants for both.
_WORD_BLOCK = 256
# Any one byte, in a bytes regex.
_ANY = rb"[\x00-\xff]"
# Map 0/1 bytes to the ASCII digits int(..., 2) reads, and to 0 and bit b.
_ASCII = bytes.maketrans(b"\0\1", b"01")
_PHASES = [bytes.maketrans(b"\0\1", bytes((0, 1 << b))) for b in range(8)]


@dataclass(frozen=True)
class CoverParams:
    """Dimensions of a covering-family construction.

    ``n`` ambient coordinates are split into ``T = alpha * t`` parts; the
    family must cover every ``k``-subset of parts with ``alpha*k``-element
    subsets.
    """

    n: int
    k: int
    t: int
    alpha: int
    T: int = field(init=False)

    def __post_init__(self):
        if not 0 <= self.k <= self.t <= self.n:
            raise ValueError(
                f"need 0 <= k <= t <= n, got k={self.k}, t={self.t}, n={self.n}"
            )
        if self.alpha < 2:
            raise ValueError(f"alpha must be >= 2, got {self.alpha}")
        object.__setattr__(self, "T", self.alpha * self.t)
        if self.T > self.n:
            raise ValueError(
                f"number of parts T=alpha*t={self.T} exceeds n={self.n}"
            )


@dataclass(frozen=True)
class CoverFamily:
    """A partition into parts plus candidate covering subsets of parts."""

    params: CoverParams
    parts: tuple[tuple[int, ...], ...]
    subsets: tuple[tuple[int, ...], ...]
    verified: bool

    @cached_property
    def incidence(self) -> bytes:
        """Byte ``i * len(parts) + p`` is 1 when subset ``i`` holds part ``p``.

        :func:`sample_family` fills it and :func:`verify_cover` hands it
        on; for a family built by hand it is filled on first use.
        Raises ValueError for a part outside ``range(len(parts))``.
        """
        T = len(self.parts)
        table = bytearray(len(self.subsets) * T)
        for i, subset in enumerate(self.subsets):
            for part in subset:
                if not 0 <= part < T:
                    raise ValueError(
                        f"part {part} is outside range({T}) in subset "
                        f"{subset}"
                    )
                table[i * T + part] = 1
        return bytes(table)

    @property
    def m(self) -> int:
        return len(self.subsets)


def family_size_m(params: CoverParams) -> int:
    """Number of random subsets to draw: ceil(2 * ratio * ln C(T,k)), >= 1.

    The clamp to 1 is for ``k = 0``, where the formula gives 0.

    ``ratio`` is C(T, alpha*k) / C(T-k, alpha*k - k), the reciprocal of the
    probability that one random subset covers a fixed k-subset of parts.
    """
    T, k, ak = params.T, params.k, params.alpha * params.k
    ratio = Fraction(math.comb(T, ak), math.comb(T - k, ak - k))
    m = math.ceil(2 * ratio * math.log(math.comb(T, k)))
    return max(1, m)


def round_robin_parts(n: int, T: int) -> tuple[tuple[int, ...], ...]:
    """Partition range(n) into T parts by index mod T."""
    return tuple(tuple(range(j, n, T)) for j in range(T))


def sample_family(params: CoverParams, rng_seed: int) -> CoverFamily:
    """Draw an unverified family deterministically from the seed.

    The subsets are ``m`` calls of ``rng.sample_sorted(T, alpha*k)`` on
    ``SplitMix64(rng_seed)``: the same partial Fisher-Yates shuffle, the
    same words and the same rejection of each word's low bits, done for
    all ``m`` subsets at once.  :func:`_accepted` reads every subset's
    accepted draws out of the word stream.  The shuffle then runs in every
    subset's lane of an int at once ("SIMD within a register"; Warren,
    Hacker's Delight, ch. 2), keeping only the positions swapped into so
    far as ``(position, part)`` lane pairs, the latest pair for a position
    winning.  Each swap looks up the part at its own position and at the
    one it draws, with one lane compare-and-select per earlier swap for
    each: a lane of ``high - (x ^ y)`` keeps its top bit only where ``x``
    equals ``y``.  Part ``p``'s column of the incidence table is the lanes
    where some swap took ``p``.  The generator is private to the family,
    so the words drawn past the last one used are never seen.  The family
    carries the table.
    """
    T, ak = params.T, params.alpha * params.k
    m = family_size_m(params)
    if ak in (0, T):
        # No draw decides anything: each subset is empty or every part.
        subsets = (tuple(range(ak)),) * m
        table = (b"\1" * ak + bytes(T - ak)) * m
    else:
        # The narrowest lane that holds any part with its top bit clear.
        code = next(c for c in "BHIQ" if T <= 1 << 8 * struct.calcsize(c) - 1)
        lane = struct.calcsize(code)
        ones = int.from_bytes((b"\1" + bytes(lane - 1)) * m, "little")
        top = 8 * lane - 1
        high = ones << top
        # A token is the low bytes of a word that the widest mask reads.
        width = ((T - 1).bit_length() + 7) // 8
        accepted = _accepted(T, ak, width, m, SplitMix64(rng_seed))
        spread = bytearray(m * lane)
        swapped = []
        chosen = []
        for i, mask in enumerate(_step_masks(T, ak)):
            for c in range(width):
                spread[c::lane] = accepted[i * width + c::ak * width]
            here = i * ones
            drawn = (int.from_bytes(spread, "little") & mask * ones) + here
            part, held = drawn, here
            for position, value in swapped:
                same = (high - (position ^ drawn)) & high
                part ^= (part ^ value) & (same - (same >> top))
                same = (high - (position ^ here)) & high
                held ^= (held ^ value) & (same - (same >> top))
            swapped.append((drawn, held))
            chosen.append(part)
        table = bytearray(m * T)
        for p in range(T):
            here = p * ones
            held = 0
            for part in chosen:
                held |= (high - (part ^ here)) & high
            table[p::T] = (held >> top).to_bytes(m * lane, "little")[::lane]
        # A bubble-sort network of lane compare-and-swaps orders each
        # subset's parts: a lane of high + a - b keeps its top bit where
        # a >= b.
        for i in range(1, ak):
            for j in range(i, 0, -1):
                a, b = chosen[j - 1], chosen[j]
                ge = (high + a - b) & high
                swap = (a ^ b) & (ge - (ge >> top))
                chosen[j - 1], chosen[j] = a ^ swap, b ^ swap
        unpack = struct.Struct(f"<{m}{code}").unpack
        drawn = (unpack(part.to_bytes(m * lane, "little")) for part in chosen)
        subsets = tuple(zip(*drawn))
    family = CoverFamily(
        params=params,
        parts=round_robin_parts(params.n, T),
        subsets=subsets,
        verified=False,
    )
    family.__dict__["incidence"] = bytes(table)
    return family


def _step_masks(T: int, draws: int) -> list[int]:
    """Swap ``i`` of a draw from ``range(T)`` keeps the low bits of
    ``T - 1 - i`` and rejects an offset past ``T - 1 - i``."""
    return [(1 << (T - 1 - i).bit_length()) - 1 for i in range(draws)]


def _tokens(width: int, mask: int, bound: int, accept: bool) -> bytes:
    """Regex of the ``width``-byte tokens, low byte first, whose value
    ``w`` has ``(w & mask < bound) == accept``; b"" when there are none.

    Read from the top byte down, the first masked byte that differs from
    the bound's decides, and a token equal to the bound is rejected.
    """
    if bound > mask:
        return _ANY * width if accept else b""
    masks = mask.to_bytes(width, "little")
    bounds = bound.to_bytes(width, "little")

    def byte_class(keep) -> bytes:
        runs = [list(run) for kept, run in groupby(range(256), keep) if kept]
        ranges = b"".join(b"\\x%02x-\\x%02x" % (r[0], r[-1]) for r in runs)
        return ranges and b"[" + ranges + b"]"

    alternatives = []
    for k in range(width):
        decides = byte_class(
            lambda b: (b & masks[k] < bounds[k]) == accept
            and (k == 0 or b & masks[k] != bounds[k])
        )
        equal = [
            byte_class(lambda b, j=j: b & masks[j] == bounds[j])
            for j in range(k + 1, width)
        ]
        alternatives.append([_ANY] * k + [decides] + equal)
    found = b"|".join(b"".join(alt) for alt in alternatives if all(alt))
    return b"(?:" + found + b")"


@lru_cache(maxsize=16)
def _draw_regex(T: int, draws: int, width: int) -> re.Pattern:
    """One subset's draws from a stream of ``width``-byte tokens.

    Each swap matches the tokens it rejects, repeated, then captures the
    one it accepts.  A stream that ends inside a subset matches the last
    group instead, all of it, so ``findall`` never starts a match inside
    a token or out of step with the subsets.
    """
    steps = b""
    for i, mask in enumerate(_step_masks(T, draws)):
        reject = _tokens(width, mask, T - i, False)
        accept = _tokens(width, mask, T - i, True)
        steps += (reject and reject + b"*") + b"(" + accept + b")"
    return re.compile(steps + b"|(" + _ANY + b"+)")


def _accepted(
    T: int, draws: int, width: int, m: int, rng: SplitMix64
) -> bytes:
    """The accepted tokens of the first ``m`` subsets, ``draws`` a subset.

    A token is the low ``width`` bytes of one word, little-endian.  Blocks
    are drawn for the expected words per subset, and more when too few
    subsets come out.
    """
    pattern = _draw_regex(T, draws, width)
    per_subset = sum(
        (mask + 1) / (T - i) for i, mask in enumerate(_step_masks(T, draws))
    )
    found = []
    tail = b""
    step = width * _WORD_BLOCK
    while len(found) < m:
        blocks = math.ceil((m - len(found)) * per_subset / _WORD_BLOCK)
        tokens = bytearray(tail) + bytes(blocks * step)
        for start in range(len(tail), len(tokens), step):
            raw = rng.lanes(_WORD_BLOCK).to_bytes(
                _LANE_BYTES * _WORD_BLOCK, "little"
            )
            for c in range(width):
                tokens[start + c:start + step:width] = raw[c::_LANE_BYTES]
        matches = pattern.findall(bytes(tokens))
        tail = matches.pop()[-1] if matches[-1][-1] else b""
        found += matches
    return b"".join(map(b"".join, found[:m]))


def verify_cover(
    family: CoverFamily,
) -> tuple[CoverFamily, tuple[int, ...] | None]:
    """Check that every k-subset of parts lies inside some drawn subset.

    ``holders[p]`` is the bitset of drawn subsets that contain part ``p``,
    its incidence column, so a k-subset of parts is covered exactly when
    the AND of its parts' holders is nonzero.  The k-subsets are walked in
    lexicographic order, one (k-2)-prefix at a time: the prefix's AND meets
    every pair of parts past it in one C-level pass over a table of the
    ``C(T, 2)`` pair ANDs (:func:`~sparseparity.gf2.subset_chunks`).  Since
    ``k <= T/2``, that table is no longer than the walk.  Returns
    ``(certified_family, None)`` on success, or the unchanged family with
    the lexicographically first uncovered k-subset as witness.  Raises
    BudgetExceededError when ``C(T, k)`` is over ``ENUMERATION_BUDGET``.
    """
    T, k = family.params.T, family.params.k
    total = math.comb(T, k)
    if total > ENUMERATION_BUDGET:
        raise BudgetExceededError(
            f"C(T={T}, k={k}) = {total} exceeds enumeration budget "
            f"{ENUMERATION_BUDGET}"
        )
    holders = spread_columns(family.incidence, len(family.parts), 1)
    witness = _first_uncovered(holders, k, (1 << family.m) - 1)
    if witness is not None:
        return family, witness
    certified = replace(family, verified=True)
    # Same subsets, same table: hand it on rather than fill it again.
    certified.__dict__["incidence"] = family.incidence
    return certified, None


def spread_columns(table: bytes, width: int, stride: int) -> list[int]:
    """Per column of a 0/1 table with rows of ``width`` bytes, the int with
    bit ``i * stride`` set when row ``i`` holds a 1 there.

    Below a stride of 8 the column is laid out one byte per bit and read as
    binary digits.  From 8 on, rows ``j, j + 8, ...`` set bit
    ``j * stride % 8`` of bytes ``stride`` apart: one slice assignment per
    phase ``j``, and each column writes the same bytes of one buffer.
    """
    count = len(table) // width if width else 0
    spreads = []
    if stride < 8:
        buf = bytearray(count * stride)
        for p in range(width):
            buf[::stride] = table[p::width]
            spreads.append(int(buf.translate(_ASCII)[::-1] or b"0", 2))
        return spreads
    buf = bytearray((count * stride + 7) >> 3)
    for p in range(width):
        for j in range(8):
            src = table[j * width + p::8 * width]
            first = j * stride >> 3
            buf[first:first + len(src) * stride:stride] = src.translate(
                _PHASES[j * stride & 7]
            )
        spreads.append(int.from_bytes(buf, "little"))
    return spreads


def _first_uncovered(
    holders: list[int], k: int, drawn: int
) -> tuple[int, ...] | None:
    """The lex-first k-subset of parts whose holders AND to 0, or None.

    ``drawn`` has one bit per drawn subset and is the walk's unit, so the
    empty k-subset is covered exactly when at least one subset was drawn.
    Each chunk of :func:`~sparseparity.gf2.subset_chunks` is checked with
    one ``all`` over its ANDs; the first chunk with a zero holds the
    witness, at the position of its first zero.  The empty prefix's value
    is ``drawn``, which ANDs nothing away, so its chunk is checked as it
    stands.
    """
    for prefix, value, chunk, start in subset_chunks(holders, k, and_, drawn):
        held = map(and_, repeat(value, len(chunk)), chunk) if prefix else chunk
        if not all(held):
            tails = combinations(range(start, len(holders)), min(k, 2))
            missed = map(not_, map(and_, repeat(value), chunk))
            return prefix + next(compress(tails, missed))
    return None


def build_verified_family(params: CoverParams, rng_seed: int) -> CoverFamily:
    """A verified family, else the seed's first sample, unverified.

    Attempt 0 samples from ``rng_seed`` itself; retry i samples from the
    i-th output of a SplitMix64 stream seeded with ``rng_seed``, so the
    whole procedure is reproducible from the one seed.  The first family
    that :func:`verify_cover` certifies is returned.  When the check is
    over ``ENUMERATION_BUDGET``, or none of ``SAMPLE_ATTEMPTS`` samples
    verifies, a warning names the reason and attempt 0's family is
    returned unverified, so building a learner never fails on
    verification trouble.
    """
    meta = SplitMix64(rng_seed)
    seed = rng_seed
    first = None
    for _ in range(SAMPLE_ATTEMPTS):
        family = sample_family(params, seed)
        if first is None:
            first = family
        try:
            certified, witness = verify_cover(family)
        except BudgetExceededError:
            reason = "the coverage check is over the enumeration budget"
            break
        if witness is None:
            return certified
        seed = meta.next_u64()
    else:
        reason = f"no family verified within {SAMPLE_ATTEMPTS} attempts"
    logger.warning(
        "%s for T=%d, k=%d; using the seed's first sample unverified",
        reason,
        params.T,
        params.k,
    )
    return first


@dataclass(frozen=True)
class RatioBoundReport:
    """Exact-binomial comparison of the drawing ratio against its target.

    ``ratio_log2`` is log2 of C(T, alpha*k) / C(T-k, alpha*k - k) and
    ``rhs_log2`` is log2 of e^(-k/4.01) * C(t, k); ``holds`` records
    whether the ratio stays below the target.
    """

    ratio_log2: float
    rhs_log2: float
    holds: bool


def ratio_bound_report(t: int, k: int, alpha: int) -> RatioBoundReport:
    """Compare the subset-drawing ratio with e^(-k/4.01) * C(t,k)."""
    if not 0 <= k <= t:
        raise ValueError(f"need 0 <= k <= t, got k={k}, t={t}")
    if alpha < 2:
        raise ValueError(f"alpha must be >= 2, got {alpha}")
    T = alpha * t
    ak = alpha * k
    num = math.comb(T, ak)
    den = math.comb(T - k, ak - k)
    ratio_log2 = math.log2(num) - math.log2(den)
    rhs_log2 = -k / 4.01 / math.log(2) + math.log2(math.comb(t, k))
    return RatioBoundReport(
        ratio_log2=ratio_log2,
        rhs_log2=rhs_log2,
        holds=ratio_log2 <= rhs_log2,
    )
