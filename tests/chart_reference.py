"""Reference chart learners, for equivalence tests.

:class:`ChartLearner` is the per-chart learner the library shipped before
its charts were bit-sliced: one :class:`SubspaceChart` (support, canonical
point, null-space basis as masks over the ``n`` global coordinates) per
distinct subset, and a Python loop over every live chart and its basis
vectors in each round (:func:`learner_update`).  :func:`decode_charts`
reads the same tuples back out of the library's bit-sliced columns, so the
two learners can be compared chart for chart.

:func:`six_operation_update` is the library's round as it was before its
column update dropped a subtraction and two operations; the library's
round must leave the same columns, masks and counters.
"""

from __future__ import annotations

from functools import reduce
from itertools import compress
from operator import xor
from typing import NamedTuple

import numpy as np

from sparseparity.cover import CoverFamily
from sparseparity.errors import AllChartsEmptyError
from sparseparity.gf2 import BitVector
from sparseparity.online import _DIGITS, LearnerState


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
