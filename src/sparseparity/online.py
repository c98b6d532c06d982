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

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .cover import CoverFamily, CoverParams, build_family
from .errors import AllChartsEmptyError
from .gf2 import BitVector, insert_row, reduce_rows


class SubspaceChart(NamedTuple):
    """An affine constraint system over one covering subset's coordinates.

    ``support`` masks the chart's ``dim`` global coordinates; ``rows`` are
    canonical RREF (mask, rhs) pairs inside it, i.e. the rows over the
    local coordinates spread out in order, so they store ``rank * dim``
    bits.  Points are zero off the support.  Charts are never mutated.
    """

    support: int
    dim: int
    rows: list[tuple[int, int]]

    @property
    def log2_size(self) -> int:
        return self.dim - len(self.rows)


@dataclass(frozen=True)
class Identified:
    f: BitVector


@dataclass(frozen=True)
class Active:
    log2_mass_upper: float
    mistakes: int


Status = Identified | Active


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
        self.chart_updates = 0
        self.work_units = 0
        # Exact number of points across charts, counted with multiplicity.
        self.initial_mass = self.mass = sum(
            1 << chart.log2_size for chart in self.charts
        )

    def step(self, a: BitVector, y: int) -> int:
        """One protocol round: predict, count the mistake, update.

        Returns the prediction made before the update; see learner_update.
        """
        return learner_update(self, a, y)

    def status(self) -> Status:
        """Identified once every chart pins the same single global vector."""
        point = None
        for _support, dim, rows in self.charts:
            # At full rank every row is a unit vector; the rhs-1 rows sum to
            # the sole point.
            value = sum(m for m, r in rows if r)
            if len(rows) != dim or point not in (None, value):
                break
            point = value
        else:
            if point is not None:
                return Identified(f=BitVector(self.n, point))
        log2_mass = math.log2(self.mass) if self.mass else float("-inf")
        return Active(log2_mass_upper=log2_mass, mistakes=self.mistakes)

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
        coordinate zero: the pivots of the rows whose rhs is 1.
        """
        if not self.charts:
            return None
        best = min(self.charts, key=lambda chart: chart.log2_size)
        return BitVector(self.n, sum(m & -m for m, r in best.rows if r))

    @property
    def mistake_bound(self) -> int:
        initial = self.initial_mass
        return initial.bit_length() - 1 if initial > 0 else 0


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
    work = 0
    for chart in state.charts:
        support, dim, rows = chart
        rank = len(rows)
        work += (rank + 1) * ((dim + 63) >> 6 or 1)
        residual, forced = reduce_rows(rows, bits & support, 0)
        if not residual:
            forced_mass[forced] += 1 << (dim - rank)
            if forced == y:
                survivors.append(chart)
        else:
            halves += 1 << (dim - rank - 1)
            rows = insert_row(rows, residual, forced ^ y)
            survivors.append(new_chart(SubspaceChart, (support, dim, rows)))
    guess = 0 if forced_mass[0] >= forced_mass[1] else 1
    if guess != y:
        state.mistakes += 1
    state.chart_updates += len(state.charts)
    state.work_units += work
    state.charts = survivors
    state.rounds += 1
    state.mass = halves + forced_mass[y]
    if not survivors:
        raise AllChartsEmptyError(
            "all charts died: labels are noisy or the target is not a "
            f"weight-{state.k} parity"
        )
    return guess
