"""Online mistake-bound learner for sparse parities over subspace charts.

The learner owns one *chart* per covering subset: the affine space of
parities supported inside that subset's parts that agree with every label
so far.  A chart is stored in generator form, as its canonical point plus
one null-space vector per free coordinate, all as masks over the n global
coordinates.  Every weight-``k`` parity is supported inside at least one
chart of a verified family, so the union of chart solution sets always
contains the hidden vector.  Each round takes one parity of the example
against the point and at most one against each basis vector; that gives
both the weighted majority over exact chart sizes (the prediction) and the
intersection of every chart with ``<a, f> = y`` (the update).  A mistaken
prediction at least halves the total mass, which bounds the number of
mistakes by ``floor(log2`` of the initial mass``)``.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .cover import CoverFamily, CoverParams, build_family
from .errors import AllChartsEmptyError
from .gf2 import BitVector


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


class LearnerState:
    """Mutable state of one learning session over a covering family.

    ``n`` and ``k`` come from the family's parameters.  ``charts`` may
    share the starting charts of another learner over the same family; by
    default each distinct subset gets a full chart, whose basis is the
    unit vectors of its support.
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
            # Fresh charts share these ints instead of allocating their own.
            units = [1 << c for c in range(n)]
            charts = []
            for subset in dict.fromkeys(family.subsets):
                coords = sorted({c for p in subset for c in family.parts[p]})
                basis = [units[c] for c in coords]
                charts.append(SubspaceChart(sum(basis), 0, basis))
        self.charts: list[SubspaceChart] = list(charts)
        self.mistakes = 0
        self.rounds = 0
        # Exact number of points across charts, counted with multiplicity.
        self.initial_mass = self.mass = sum(
            1 << len(chart.basis) for chart in self.charts
        )

    def step(self, a: BitVector, y: int) -> int:
        """One protocol round: predict, count the mistake, update.

        Returns the prediction made before the update; see learner_update.
        """
        return learner_update(self, a, y)

    def identified(self) -> BitVector | None:
        """The vector every chart pins once all are at full rank, or None."""
        points = set()
        for _support, point, basis in self.charts:
            if basis:
                return None
            points.add(point)
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
        """The canonical point of the most-constrained chart, or None."""
        if not self.charts:
            return None
        best = min(self.charts, key=lambda chart: len(chart.basis))
        return BitVector(self.n, best.point)

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
        survivors.append(new_chart(SubspaceChart, (support, point, rest)))
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
