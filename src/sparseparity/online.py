"""Online mistake-bound learner for sparse parities over subspace charts.

The learner owns one *chart* per covering subset: an affine space over the
coordinates in that subset's parts, stored as rows over the n global
coordinates inside the chart's support mask.  Every weight-``k`` parity is
supported inside at least one chart of a verified family, so the union of
chart solution sets always contains the hidden vector.  Each round reduces
the example once per chart; that one reduction gives both the weighted
majority over exact chart sizes (the prediction) and the intersection of
every chart with ``<a, f> = y`` (the update).  A mistaken prediction at
least halves the total mass, which bounds the number of mistakes by
``floor(log2`` of the initial mass``)``.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .cover import CoverFamily, CoverParams, build_family
from .errors import AllChartsEmptyError
from .gf2 import BitVector, Row, reduce_rows


class SubspaceChart(NamedTuple):
    """An affine constraint system over one covering subset's coordinates.

    ``support`` masks the chart's ``dim`` global coordinates; ``rows`` are
    (mask, rhs) pairs inside it in insertion order, not canonical RREF:
    each row holds none of the pivots (lowest set bits) of the rows before
    it, which is all one :func:`~sparseparity.gf2.reduce_rows` pass needs.
    They store ``rank * dim`` bits, and :func:`back_substitute` solves
    them.  Points are zero off the support.  Charts are never mutated.
    """

    support: int
    dim: int
    rows: list[Row]

    @property
    def log2_size(self) -> int:
        return self.dim - len(self.rows)


class LearnerState:
    """Mutable state of one learning session over a covering family.

    ``n`` and ``k`` come from the family's parameters.  ``charts`` may
    share the starting charts of another learner over the same family; by
    default each distinct subset gets a full chart.
    """

    def __init__(
        self,
        family: CoverFamily,
        charts: Sequence[SubspaceChart] | None = None,
    ):
        self.n = n = family.params.n
        self.k = family.params.k
        self.family = family
        if charts is None:
            masks = [BitVector.from_support(n, part).value for part in family.parts]
            charts = []
            for subset in dict.fromkeys(family.subsets):
                support = 0
                for part_index in subset:
                    support |= masks[part_index]
                charts.append(SubspaceChart(support, support.bit_count(), []))
        self.charts: list[SubspaceChart] = list(charts)
        self.mistakes = 0
        self.rounds = 0
        # Exact number of points across charts, counted with multiplicity.
        self.initial_mass = self.mass = sum(
            1 << chart.log2_size for chart in self.charts
        )

    def step(self, a: BitVector, y: int) -> int:
        """One protocol round: predict, count the mistake, update.

        Returns the prediction made before the update; see learner_update.
        """
        return learner_update(self, a, y)

    def identified(self) -> BitVector | None:
        """The vector every chart pins once all are at full rank, or None."""
        for _support, dim, rows in self.charts:
            if len(rows) != dim:
                return None
        points = {back_substitute(rows) for _s, _d, rows in self.charts}
        return BitVector(self.n, points.pop()) if len(points) == 1 else None

    def fork(self) -> "LearnerState":
        """An independent copy that can be stepped on its own.

        Charts are immutable and every round rebinds ``charts`` to a new
        list, so the copy shares the chart list and copies only the
        counters.
        """
        twin = object.__new__(type(self))
        twin.__dict__.update(self.__dict__)
        return twin

    def best_hypothesis(self) -> BitVector | None:
        """A canonical point from the most-constrained chart, or None.

        Within the chosen chart this is the point with every free
        coordinate zero; see :func:`back_substitute`.
        """
        if not self.charts:
            return None
        best = min(self.charts, key=lambda chart: chart.log2_size)
        return BitVector(self.n, back_substitute(best.rows))

    @property
    def mistake_bound(self) -> int:
        initial = self.initial_mass
        return initial.bit_length() - 1 if initial > 0 else 0


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


def new_learner(
    n: int, k: int, t: int, alpha: int, rng_seed: int
) -> LearnerState:
    """Build a learner over a verified covering family.

    Construction never fails on verification trouble; see
    :func:`~sparseparity.cover.build_family`.
    """
    family = build_family(CoverParams(n=n, k=k, t=t, alpha=alpha), rng_seed)
    return LearnerState(family)


def learner_update(state: LearnerState, a: BitVector, y: int) -> int:
    """Reduce ``a`` once per chart; predict, then update with ``<a, f> = y``.

    Where ``a`` reduces to zero, ``<a, f>`` is forced on the whole chart
    and all its mass votes for that label.  Other charts split in half, so
    they cancel in the vote; ties predict 0.  The label-``y`` side is the
    new state and dead charts are dropped.  Returns the prediction made
    before the update and counts a mistake when it differs from ``y``.
    """
    if y not in (0, 1):
        raise ValueError(f"label must be 0 or 1, got {y!r}")
    if a.n != state.n:
        raise ValueError(
            f"example has length {a.n} but the learner is over {state.n} "
            "coordinates"
        )
    if not state.charts:
        raise AllChartsEmptyError(
            "no live charts: the stream is inconsistent with every "
            "tracked hypothesis"
        )
    bits = a.value
    # tuple.__new__ skips the NamedTuple's slow Python-level __new__.
    new_chart = tuple.__new__
    halves = 0
    forced_mass = [0, 0]
    survivors: list[SubspaceChart] = []
    for chart in state.charts:
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
            survivors.append(new_chart(SubspaceChart, (support, dim, rows)))
    guess = 0 if forced_mass[0] >= forced_mass[1] else 1
    if guess != y:
        state.mistakes += 1
    state.charts = survivors
    state.rounds += 1
    state.mass = halves + forced_mass[y]
    if not survivors:
        raise AllChartsEmptyError(
            "all charts died: labels are noisy or the target is not a "
            f"weight-{state.k} parity"
        )
    return guess
