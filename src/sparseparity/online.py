"""Online mistake-bound learner for sparse parities over subspace charts.

The learner owns one *chart* per covering subset: the affine space of
parities supported inside that subset's parts that agree with every label
so far.  A chart is ``point + span(basis)``, with one null-space vector per
free coordinate; the point is zero on every free coordinate.  Every
weight-``k`` parity is supported inside at least one chart of a verified
family, so the union of chart solution sets always contains the hidden
vector.  A mistaken prediction at least halves the total mass, which
bounds the number of mistakes by ``floor(log2`` of the initial mass``)``.

The charts are stored bit-sliced (Biham, FSE 1997), transposed the way
M4RI packs GF(2) rows into words (Albrecht, Bard & Pernet,
arXiv:1111.6549).  Chart ``i`` owns positions ``i*S`` on of one index
space, ``S`` the largest chart's ``dim + 2``: its basis vectors in
ascending free coordinate, then its point, then a guard bit, then padding.
Column ``c`` is one int whose bit ``p`` says that vector ``p`` holds
coordinate ``c``.  A round XORs the columns of the
example's set coordinates, which gives every parity of every vector at
once; one guarded subtraction per round finds each chart's first odd basis
vector (Warren, *Hacker's Delight*, ch. 2).  A column whose coordinate
some pivot holds then takes four more whole-int operations.  The bits to
flip lie from each pivot up to its point; adding the column's held pivots
to the runs from pivot to point carries exactly the held runs into their
guards, so masking the sum with the flips alone keeps the flips of the
segments the column must not change, and XORing them out of the flips
leaves those it must.  Positions of
dropped pivots and dead charts stay in place; masks say which are live.
"""

from __future__ import annotations

from functools import reduce
from itertools import compress, cycle
from operator import xor

from .cover import (
    CoverFamily,
    CoverParams,
    build_verified_family,
    round_robin_parts,
    spread_columns,
)
from .errors import AllChartsEmptyError
from .gf2 import BitVector

# Maps the ASCII digits of bin() to the 0/1 bytes compress() selects by.
_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


class LearnerState:
    """Mutable state of one learning session over a covering family.

    ``n`` and ``k`` come from the family's parameters, whose parts must be
    round robin over ``range(n)``.  Each distinct subset gets a full chart,
    whose basis is the unit vectors of its support.  ``live_charts`` counts
    the charts that are still consistent with every label.

    The charts sit in family order at one stride ``S``, room for the
    largest chart, so chart ``i`` starts at position ``i*S`` and any
    padding lies above its guard.  The columns come from the family's
    incidence table: each part's column of it, spread to stride ``S``,
    marks the starts of the charts that hold the part, and with
    round-robin parts coordinate ``c`` lies in part ``c % T``.
    """

    def __init__(self, family: CoverFamily):
        self.n = n = family.params.n
        self.k = family.params.k
        self.family = family
        parts = family.parts
        T = len(parts)
        if parts != round_robin_parts(n, T):
            raise ValueError("charts are laid out over round-robin parts")
        subsets = family.subsets
        table = family.incidence
        # Keep each subset's first row, so the charts come in family order.
        m = len(subsets)
        firsts = dict(zip(reversed(subsets), range(m - 1, -1, -1)))
        if len(firsts) < m:
            table = bytearray(table)
            for i in sorted(set(range(m)).difference(firsts.values()))[::-1]:
                del table[i * T:i * T + T]
        rows, extra = divmod(n, T) if T else (0, 0)
        widest = max(map(len, firsts), default=0)
        stride = rows * widest + min(widest, extra) + 2
        segment = (1 << stride) - 1
        starts = ((1 << len(firsts) * stride) - 1) // segment
        # Per part, the starts of the charts that hold it, then their segments.
        masks = spread_columns(table, T, stride)
        if sum(map(int.bit_count, masks)) != sum(map(len, firsts)):
            # only a part listed twice in one subset sets fewer bytes
            part = next(p for sub in subsets for p in sub if sub.count(p) > 1)
            raise ValueError(f"a subset lists part {part} twice")
        for part, spread in enumerate(masks):
            masks[part] = spread * segment
        # One cursor per chart walks the coordinates in ascending order: a
        # chart holding coordinate c puts c's basis vector at its cursor and
        # moves the cursor up one, so the cursors end on the points.
        cols = []
        cursor = starts
        for _, mask in zip(range(n), cycle(masks or [0])):
            col = cursor & mask
            cursor += col
            cols.append(col)
        guards = cursor << 1
        dims = []
        for d in range(stride - 1):
            mask = guards & (starts << (d + 1))
            if mask:
                dims.append((d, mask))
        self._cols = cols
        self._guards = guards
        self._starts = starts
        self._initial_dims = tuple((d, mask) for d, mask in dims if d)
        self._dims = dims
        # Every position below its segment's point holds a basis vector.
        self._basis = (guards >> 1) - starts
        self._live = guards
        self.live_charts = guards.bit_count()
        self.mistakes = 0
        # Rounds since the last mistake: the PAC driver's survival run.
        self.run_length = 0
        self.rounds = 0
        # Exact number of points across charts, counted with multiplicity.
        self.initial_mass = self.mass = sum(
            mask.bit_count() << d for d, mask in dims
        )

    def step(self, a: BitVector, y: int) -> int:
        """One protocol round: predict, count the mistake, update.

        Returns the prediction made before the update; see learner_update.
        """
        return learner_update(self, a, y)

    def identified(self) -> BitVector | None:
        """The vector every chart pins once all are at full rank, or None."""
        dims = self._dims
        if not dims or dims[-1][0]:
            return None
        points = self._live >> 1
        value = 0
        for c, col in enumerate(self._cols):
            held = col & points
            if held:
                if held != points:
                    return None
                value |= 1 << c
        return BitVector(self.n, value)

    def fork(self) -> "LearnerState":
        """An independent copy that can be stepped on its own.

        Every int is immutable and a round replaces the columns it
        changes, so the copy shares them and copies only the column list.
        """
        twin = object.__new__(type(self))
        twin.__dict__.update(self.__dict__)
        twin._cols = self._cols.copy()
        return twin

    def best_hypothesis(self) -> BitVector | None:
        """The canonical point of the most-constrained chart, or None.

        Ties go to the chart that comes first in the family.
        """
        if not self._dims:
            return None
        guards = self._dims[0][1]
        point = (guards & -guards) >> 1
        value = 0
        for c, col in enumerate(self._cols):
            if col & point:
                value |= 1 << c
        return BitVector(self.n, value)

    @property
    def least_dim(self) -> int:
        """The smallest dimension of a live chart, 0 with none live.

        A round takes at most one dimension from a chart, so
        :meth:`identified` returns None for at least this many rounds.
        """
        dims = self._dims
        return dims[0][0] if dims else 0

    @property
    def mistake_bound(self) -> int:
        initial = self.initial_mass
        return initial.bit_length() - 1 if initial > 0 else 0


def new_learner(
    n: int, k: int, t: int, alpha: int, rng_seed: int
) -> LearnerState:
    """The library's one way to build a learner from parameters.

    The learner's charts come from
    :func:`~sparseparity.cover.build_verified_family` at ``rng_seed``: a
    verified covering family, else that seed's first sample, unverified
    and with a logged warning, so construction never fails on
    verification trouble.
    """
    family = build_verified_family(
        CoverParams(n=n, k=k, t=t, alpha=alpha), rng_seed
    )
    return LearnerState(family)


def learner_update(state: LearnerState, a: BitVector, y: int) -> int:
    """Predict from all chart parities with ``a``; update by ``<a, f> = y``.

    ``<a, f>`` is constant on a chart exactly when ``a`` has even parity
    with every basis vector; then all its mass votes for the point's
    label, and the chart dies if that label is not ``y``.  Otherwise the
    first basis vector ``z`` with odd parity is the pivot: the chart splits
    in half, so it cancels in the vote (ties predict 0), and its label-``y``
    half drops ``z``, adds ``z`` to every later odd basis vector, and adds
    ``z`` to the point when the point's label is not ``y``.  Returns the
    prediction made before the update and counts a mistake when it differs
    from ``y``; ``run_length`` then restarts at 0, and otherwise grows by 1.
    """
    if y not in (0, 1):
        raise ValueError(f"label must be 0 or 1, got {y!r}")
    if a.n != state.n:
        raise ValueError(
            f"example has length {a.n} but the learner is over {state.n} "
            "coordinates"
        )
    live = state._live
    if not live:
        raise AllChartsEmptyError(
            "no live charts: the stream is inconsistent with every "
            "tracked hypothesis"
        )
    cols = state._cols
    basis = state._basis
    # Bit p of parities is <a, vector p>.
    coords = bin(a.value)[:1:-1].encode().translate(_DIGITS)
    parities = reduce(xor, compress(cols, coords), 0)
    # Each segment's lowest set bit of x: its first odd basis vector, else
    # its guard.  The guards stop every borrow inside its own segment.
    x = (parities & basis) | state._guards
    low = x & (x ^ (x - state._starts))
    pivots = low & basis
    const = low & live
    # Guards of the constant charts whose point has odd parity.
    ones = const & (parities << 1)
    dead = const ^ ones if y else ones
    split = live ^ const
    mass = [0, 0]
    dims = []
    for d, guards in state._dims:
        held = guards & const
        kept = 0
        if held:
            odd = held & ones
            even = held ^ odd
            mass[1] += odd.bit_count() << d
            mass[0] += even.bit_count() << d
            kept = odd if y else even
            guards ^= held
        if guards:
            # Split charts lose one dimension; dims ascend, so only the
            # last entry can be at d - 1.
            if dims and dims[-1][0] == d - 1:
                dims[-1] = (d - 1, dims[-1][1] | guards)
            else:
                dims.append((d - 1, guards))
        if kept:
            dims.append((d, kept))
    guess = 0 if mass[0] >= mass[1] else 1
    if guess != y:
        state.mistakes += 1
        state.run_length = 0
    else:
        state.run_length += 1
    if split:
        points = split >> 1
        flips = points & parities
        if y:
            flips ^= points
        # Odd basis vectors (their pivot included, which is dropped anyway)
        # and the points whose label is not y: all from a pivot up.
        flips |= parities & basis
        # From each pivot up to its segment's point.
        fill = split - pivots
        for c, col in enumerate(cols):
            held = col & pivots
            if held:
                # A held pivot carries its fill into the guard, which flips
                # lacks, so the masked sum is the flips of the segments
                # whose pivot misses this coordinate.
                cols[c] = col ^ flips ^ ((fill + held) & flips)
        basis ^= pivots
    if dead:
        for d, guards in state._initial_dims:
            gone = dead & guards
            if gone:
                basis &= ~((gone >> (d + 1)) * ((1 << d) - 1))
        live ^= dead
        state.live_charts -= dead.bit_count()
    state._basis = basis
    state._live = live
    state._dims = dims
    state.rounds += 1
    state.mass = (state.mass - mass[0] - mass[1]) // 2 + mass[y]
    if not live:
        raise AllChartsEmptyError(
            "all charts died: labels are noisy or the target is not a "
            f"weight-{state.k} parity"
        )
    return guess
