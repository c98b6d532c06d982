"""Reference chart learners, for equivalence tests.

:class:`ChartLearner` is the per-chart learner the library shipped before
its charts were bit-sliced: one :class:`SubspaceChart` (support, canonical
point, null-space basis as masks over the ``n`` global coordinates) per
distinct subset, and a Python loop over every live chart and its basis
vectors in each round (:func:`learner_update`).  :func:`decode_charts`
reads the same tuples back out of the library's bit-sliced columns, so the
two learners can be compared chart for chart.

:class:`ReferenceLearner` is the slow learner in local coordinates.  Each
chart is an :class:`AffineSpace` over its own ``dim`` coordinates
plus the sorted tuple of global coordinates they stand for.  Every round
projects the example into every chart (:func:`restrict`) twice, once to
predict through :func:`split_sizes` and once to update through
``constrain``, and recounts the total mass from scratch.  This is the
learner the library shipped before charts moved to global coordinates;
the library's learner must agree with it round by round.

:class:`RowLearner` is the learner the library shipped before charts moved
to generator form: global-coordinate constraint rows appended in insertion
order, reduced once per chart per round, and solved by
:func:`back_substitute` for the canonical point.

:func:`reference_layout` is the bit-sliced layout builder the library
shipped before its charts moved to one stride and one incidence table:
charts packed back to back at ``dim + 2`` positions each, with per-size
bytearrays of part bases and one guard bytearray per dimension.
:func:`reference_state` runs the library's rounds on that layout.

:func:`six_operation_update` is the library's round as it was before its
column update dropped a subtraction and two operations; the library's
round must leave the same columns, masks and counters.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import reduce
from itertools import compress
from operator import or_, xor
from typing import NamedTuple, Sequence

import numpy as np

from sparseparity.cover import CoverFamily, round_robin_parts
from sparseparity.errors import AllChartsEmptyError, LengthMismatchError
from sparseparity.gf2 import BitVector
from sparseparity.online import _DIGITS, LearnerState

from affine_reference import AffineSpace, Row, reduce_rows


def restrict(v: BitVector, coords: Sequence[int]) -> BitVector:
    """The subvector of ``v`` at the given coordinates, in the given order."""
    bits = v.value
    value = 0
    for local, g in enumerate(coords):
        if (bits >> g) & 1:
            value |= 1 << local
    return BitVector(len(coords), value)


def split_sizes(
    space: AffineSpace, v: BitVector
) -> tuple[int | None, int | None]:
    """log2 sizes of the two halves of ``space`` cut by <v,f> = y.

    Returns a pair indexed by the label y.  A forced label keeps the
    current size and the other label maps to None; an informative
    constraint halves the space for both labels.  The empty space
    yields (None, None).
    """
    if v.n != space.ambient_dim:
        raise LengthMismatchError(
            f"vector of length {v.n} in space of dimension {space.ambient_dim}"
        )
    if space.empty:
        return (None, None)
    size = space.log2_size
    res, forced = reduce_rows(space._rows, v.value, 0)
    if res == 0:
        # <v,f> equals `forced` on every point of the space.
        if forced == 0:
            return (size, None)
        return (None, size)
    return (size - 1, size - 1)


@dataclass
class LocalChart:
    support: tuple[int, ...]
    space: AffineSpace

    def project(self, a: BitVector) -> BitVector:
        return restrict(a, self.support)

    def embed_value(self, local_bits: int) -> int:
        value = 0
        for i, g in enumerate(self.support):
            if (local_bits >> i) & 1:
                value |= 1 << g
        return value


class ReferenceLearner:
    def __init__(self, n: int, k: int, family: CoverFamily):
        self.n = n
        self.k = k
        self.charts: list[LocalChart] = []
        for subset in dict.fromkeys(family.subsets):
            coords: list[int] = []
            for part_index in subset:
                coords.extend(family.parts[part_index])
            support = tuple(sorted(coords))
            self.charts.append(LocalChart(support, AffineSpace.full(len(support))))
        self.mistakes = 0
        self.rounds = 0
        self.mass_history = [self.total_mass()]

    def total_mass(self) -> int:
        return sum(1 << chart.space.log2_size for chart in self.charts)

    def predict(self, a: BitVector) -> int:
        if not self.charts:
            raise AllChartsEmptyError("no live charts")
        mass = [0, 0]
        for chart in self.charts:
            for label, size in enumerate(split_sizes(chart.space, chart.project(a))):
                if size is not None:
                    mass[label] += 1 << size
        return 0 if mass[0] >= mass[1] else 1

    def update(self, a: BitVector, y: int) -> None:
        survivors = []
        for chart in self.charts:
            space = chart.space.constrain(chart.project(a), y)
            if not space.empty:
                survivors.append(LocalChart(chart.support, space))
        self.charts = survivors
        self.rounds += 1
        self.mass_history.append(self.total_mass())
        if not survivors:
            raise AllChartsEmptyError("all charts died")

    def step(self, a: BitVector, y: int) -> int:
        guess = self.predict(a)
        if guess != y:
            self.mistakes += 1
        self.update(a, y)
        return guess

    def identified(self) -> BitVector | None:
        point = None
        for chart in self.charts:
            if chart.space.rank != chart.space.ambient_dim:
                return None
            value = chart.embed_value(chart.space.sole_point().value)
            if point is None:
                point = value
            elif value != point:
                return None
        return None if point is None else BitVector(self.n, point)

    def best_hypothesis(self) -> BitVector | None:
        best = None
        for chart in self.charts:
            if best is None or chart.space.log2_size < best.space.log2_size:
                best = chart
        if best is None:
            return None
        first = next(iter(best.space.points()))
        return BitVector(self.n, best.embed_value(first.value))

    def global_charts(self) -> list[tuple[int, list[tuple[int, int]]]]:
        """Each chart as (support mask, rows spread to global coordinates)."""
        out = []
        for chart in self.charts:
            support = chart.embed_value((1 << len(chart.support)) - 1)
            rows = [
                (chart.embed_value(mask.value), rhs)
                for mask, rhs in chart.space.rows
            ]
            out.append((support, rows))
        return out

    def global_points(self, chart_index: int) -> set[int]:
        chart = self.charts[chart_index]
        return {chart.embed_value(p.value) for p in chart.space.points()}


class RowChart(NamedTuple):
    """Constraint rows inside ``support``, in insertion order.

    Each row holds none of the pivots (lowest set bits) of the rows before
    it, which is all one :func:`reduce_rows` pass needs.
    """

    support: int
    dim: int
    rows: list[Row]


def back_substitute(rows: Sequence[Row]) -> int:
    """The solution of chart rows with every free coordinate set to zero.

    Each row holds none of the earlier rows' pivots, so its other bits are
    free coordinates or pivots of later rows.  Solving from the last row
    back sets each pivot from the pivots already set.  The pivot set
    depends only on the span, so this is the point canonical RREF gives,
    and at full rank it is the sole point.
    """
    point = 0
    for mask, rhs in reversed(rows):
        if (mask & point).bit_count() & 1 != rhs:
            point |= mask & -mask
    return point


class RowLearner:
    """The append-row chart learner, with the library learner's protocol."""

    def __init__(self, family: CoverFamily):
        self.n = n = family.params.n
        self.k = family.params.k
        masks = [BitVector.from_support(n, part).value for part in family.parts]
        self.charts: list[RowChart] = []
        for subset in dict.fromkeys(family.subsets):
            support = 0
            for part_index in subset:
                support |= masks[part_index]
            self.charts.append(RowChart(support, support.bit_count(), []))
        self.mistakes = 0
        self.rounds = 0
        self.initial_mass = self.mass = sum(
            1 << (chart.dim - len(chart.rows)) for chart in self.charts
        )

    def step(self, a: BitVector, y: int) -> int:
        """Reduce ``a`` once per chart; predict, then update with
        ``<a, f> = y``."""
        if not self.charts:
            raise AllChartsEmptyError("no live charts")
        bits = a.value
        halves = 0
        forced_mass = [0, 0]
        survivors = []
        for chart in self.charts:
            support, dim, rows = chart
            rank = len(rows)
            residual, forced = reduce_rows(rows, bits & support, 0)
            if not residual:
                forced_mass[forced] += 1 << (dim - rank)
                if forced == y:
                    survivors.append(chart)
            else:
                halves += 1 << (dim - rank - 1)
                rows = [*rows, (residual, forced ^ y)]
                survivors.append(RowChart(support, dim, rows))
        guess = 0 if forced_mass[0] >= forced_mass[1] else 1
        if guess != y:
            self.mistakes += 1
        self.charts = survivors
        self.rounds += 1
        self.mass = halves + forced_mass[y]
        if not survivors:
            raise AllChartsEmptyError("all charts died")
        return guess

    def identified(self) -> BitVector | None:
        for _support, dim, rows in self.charts:
            if len(rows) != dim:
                return None
        points = {back_substitute(rows) for _s, _d, rows in self.charts}
        return BitVector(self.n, points.pop()) if len(points) == 1 else None

    def best_hypothesis(self) -> BitVector | None:
        if not self.charts:
            return None
        best = min(self.charts, key=lambda chart: chart.dim - len(chart.rows))
        return BitVector(self.n, back_substitute(best.rows))


class SubspaceChart(NamedTuple):
    """An affine space ``point + span(basis)`` inside one support mask.

    ``basis`` holds one null-space vector per free coordinate ``c``, in
    ascending ``c``: the vector has ``c`` as its highest bit, and neither
    another basis vector nor the point contains ``c``.  ``point`` is zero on
    every free coordinate, so it is the point canonical RREF gives, and at
    full rank (no basis) the sole point.  The chart has
    ``2 ** len(basis)`` points and stores ``(len(basis) + 1) * dim`` bits.
    Charts are never mutated.
    """

    support: int
    point: int
    basis: list[int]


class ChartLearner:
    """The per-chart learner, with the library learner's protocol."""

    def __init__(self, family: CoverFamily):
        self.n = n = family.params.n
        self.k = family.params.k
        self.family = family
        # Fresh charts share these ints instead of allocating their own.
        units = [1 << c for c in range(n)]
        self.charts: list[SubspaceChart] = []
        for subset in dict.fromkeys(family.subsets):
            coords = sorted({c for p in subset for c in family.parts[p]})
            basis = [units[c] for c in coords]
            self.charts.append(SubspaceChart(sum(basis), 0, basis))
        self.mistakes = 0
        self.rounds = 0
        self.initial_mass = self.mass = sum(
            1 << len(chart.basis) for chart in self.charts
        )

    def step(self, a: BitVector, y: int) -> int:
        return learner_update(self, a, y)

    def identified(self) -> BitVector | None:
        points = set()
        for _support, point, basis in self.charts:
            if basis:
                return None
            points.add(point)
        return BitVector(self.n, points.pop()) if len(points) == 1 else None

    def fork(self) -> "ChartLearner":
        """Charts are immutable and every round rebinds ``charts``, so the
        copy shares the chart list and copies only the counters."""
        twin = object.__new__(type(self))
        twin.__dict__.update(self.__dict__)
        return twin

    def best_hypothesis(self) -> BitVector | None:
        if not self.charts:
            return None
        best = min(self.charts, key=lambda chart: len(chart.basis))
        return BitVector(self.n, best.point)

    @property
    def mistake_bound(self) -> int:
        initial = self.initial_mass
        return initial.bit_length() - 1 if initial > 0 else 0


def learner_update(state: ChartLearner, a: BitVector, y: int) -> int:
    """Predict from each chart's parities with ``a``; update by ``<a, f> = y``.

    ``<a, f>`` is constant on a chart exactly when ``a`` has even parity
    with every basis vector; then all its mass votes for the point's
    label.  Otherwise the first basis vector ``z`` with odd parity is the
    pivot: the chart splits in half, so it cancels in the vote (ties
    predict 0), and its label-``y`` half drops ``z``, adds ``z`` to every
    later odd basis vector, and adds ``z`` to the point when the point's
    label is not ``y``.  Dead charts are dropped.  Returns the prediction
    made before the update and counts a mistake when it differs from
    ``y``.
    """
    if y not in (0, 1):
        raise ValueError(f"label must be 0 or 1, got {y!r}")
    if a.n != state.n:
        raise ValueError(
            f"example has length {a.n} but the learner is over {state.n} "
            "coordinates"
        )
    if not state.charts:
        raise AllChartsEmptyError("no live charts")
    bits = a.value
    halves = 0
    forced_mass = [0, 0]
    survivors: list[SubspaceChart] = []
    for chart in state.charts:
        support, point, basis = chart
        forced = (bits & point).bit_count() & 1
        i = 0
        for pivot in basis:
            if (bits & pivot).bit_count() & 1:
                break
            i += 1
        else:
            # no odd basis vector, and i == len(basis)
            forced_mass[forced] += 1 << i
            if forced == y:
                survivors.append(chart)
            continue
        rest = basis[:i]
        for z in basis[i + 1:]:
            rest.append(z ^ pivot if (bits & z).bit_count() & 1 else z)
        halves += 1 << len(rest)
        if forced != y:
            point ^= pivot
        survivors.append(SubspaceChart(support, point, rest))
    guess = 0 if forced_mass[0] >= forced_mass[1] else 1
    if guess != y:
        state.mistakes += 1
    state.charts = survivors
    state.rounds += 1
    state.mass = halves + forced_mass[y]
    if not survivors:
        raise AllChartsEmptyError("all charts died")
    return guess


def _bit_array(value: int, width: int) -> np.ndarray:
    """Bits 0 .. width - 1 of ``value`` as a bool array."""
    raw = value.to_bytes((width + 7) // 8, "little")
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
    return bits[:width].astype(bool)


def _vectors(columns: np.ndarray, positions: np.ndarray) -> list[int]:
    """The vectors at ``positions`` as masks over the coordinates.

    ``columns[c, p]`` is bit ``p`` of column ``c``.
    """
    n = columns.shape[0]
    words = max(1, (n + 63) // 64)
    rows = np.zeros((len(positions), 64 * words), dtype=np.uint8)
    rows[:, :n] = columns[:, positions].T
    lanes = np.packbits(rows, axis=1, bitorder="little").view("<u8")
    vectors = lanes[:, 0].tolist()
    for j in range(1, words):
        vectors = [
            v | (w << (64 * j)) for v, w in zip(vectors, lanes[:, j].tolist())
        ]
    return vectors


def decode_charts(state: LearnerState) -> list[SubspaceChart]:
    """The live charts of the bit-sliced learner, in family order.

    The point of chart ``i`` sits just under guard ``i``, and its live
    basis vectors are the basis mask's positions between guard ``i - 1``
    and that point.  Padding between a guard and the next chart holds no
    basis bit, so this reads a padded layout and a packed one alike.
    """
    family = state.family
    width = state._guards.bit_length()
    columns = np.array(
        [_bit_array(col, width) for col in state._cols], dtype=np.uint8
    ).reshape(state.n, width)
    guards = np.flatnonzero(_bit_array(state._guards, width))
    live = _bit_array(state._live, width)[guards]
    basis = np.flatnonzero(_bit_array(state._basis, width))
    vectors = _vectors(columns, basis)
    ends = np.searchsorted(basis, guards).tolist()
    points = _vectors(columns, guards[live] - 1)
    part_masks = [sum(1 << c for c in part) for part in family.parts]
    charts = []
    start = 0
    for subset, end, alive in zip(dict.fromkeys(family.subsets), ends, live):
        if alive:
            support = 0
            for part in subset:
                support |= part_masks[part]
            charts.append(
                SubspaceChart(support, points[len(charts)], vectors[start:end])
            )
        start = end
    return charts


class ReferenceLayout(NamedTuple):
    cols: list[int]
    guards: int
    starts: int
    dims: list[tuple[int, int]]


def reference_layout(family: CoverFamily) -> ReferenceLayout:
    """The charts of ``family`` laid out back to back, ``dim + 2`` each.

    Each distinct subset, in family order, owns its basis positions in
    ascending coordinate, then its point, then its guard; the next chart
    starts one past the guard, so charts of unequal dimension pack without
    padding.
    """
    n = family.params.n
    parts = family.parts
    T = len(parts)
    if parts != round_robin_parts(n, T):
        raise ValueError("charts are laid out over round-robin parts")
    subsets = dict.fromkeys(family.subsets)
    rows, extra = divmod(n, T) if T else (0, 0)
    # Room for the longest layout the subsets could need.
    room = (rows + 1) * sum(map(len, subsets)) + 2 * len(subsets)
    nbytes = room // 8 + 1
    bases: dict[int, list[bytearray]] = {}
    guards_by_dim: dict[int, bytearray] = {}
    width = 0
    for subset in subsets:
        chart = sorted(subset)
        size = len(chart)
        per_part = bases.get(size)
        if per_part is None:
            per_part = bases[size] = [bytearray(nbytes) for _ in range(T)]
        for pos, part in enumerate(chart, width):
            per_part[part][pos >> 3] |= 1 << (pos & 7)
        dim = rows * size + bisect_left(chart, extra)
        width += dim + 2
        guard = guards_by_dim.get(dim)
        if guard is None:
            guard = guards_by_dim[dim] = bytearray(nbytes)
        guard[(width - 1) >> 3] |= 1 << ((width - 1) & 7)
    cols = [0] * n
    for size, per_part in bases.items():
        for part, buf in enumerate(per_part):
            base = int.from_bytes(buf, "little")
            if base & (base >> 1):
                # only a part listed twice in one subset sets two
                # neighbouring positions
                raise ValueError(f"a subset lists part {part} twice")
            for row, c in enumerate(range(part, n, T)):
                cols[c] |= base << (size * row)
    dims = sorted(
        (d, int.from_bytes(buf, "little"))
        for d, buf in guards_by_dim.items()
    )
    guards = reduce(or_, (mask for _, mask in dims), 0)
    # Segment i starts one past guard i - 1.
    starts = ((guards << 1) | 1) ^ (1 << width) if width else 0
    return ReferenceLayout(cols, guards, starts, dims)


def reference_state(family: CoverFamily) -> LearnerState:
    """A fresh library learner over :func:`reference_layout`'s positions.

    The round only needs every chart's segment to run from its start to
    its guard, so the library's ``learner_update`` steps it unchanged.
    """
    layout = reference_layout(family)
    state = object.__new__(LearnerState)
    state.n = family.params.n
    state.k = family.params.k
    state.family = family
    state._cols = layout.cols
    state._guards = state._live = layout.guards
    state._starts = layout.starts
    state._dims = layout.dims
    state._initial_dims = tuple((d, mask) for d, mask in layout.dims if d)
    state._basis = (layout.guards >> 1) - layout.starts
    state.live_charts = layout.guards.bit_count()
    state.mistakes = state.run_length = state.rounds = 0
    state.initial_mass = state.mass = sum(
        mask.bit_count() << d for d, mask in layout.dims
    )
    return state


def six_operation_update(state: LearnerState, a: BitVector, y: int) -> int:
    """The library's round as it was before the column update lost its
    subtraction: every column that meets a pivot takes
    ``col ^ ((((fill + held) & split) - held) & flips)``.

    Steps a :class:`LearnerState` in place and returns the prediction.
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
    if split:
        points = split >> 1
        flips = points & parities
        if y:
            flips ^= points
        # Odd basis vectors (their pivot included, which is dropped anyway)
        # and the points whose label is not y.
        flips |= parities & basis
        # From each pivot up to its segment's point.
        fill = split - pivots
        for c, col in enumerate(cols):
            held = col & pivots
            if held:
                cols[c] = col ^ ((((fill + held) & split) - held) & flips)
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
