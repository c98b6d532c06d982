"""Slow reference chart learner in local coordinates, for equivalence tests.

Each chart is an :class:`AffineSpace` over its own ``dim`` coordinates
plus the sorted tuple of global coordinates they stand for.  Every round
projects the example into every chart (:func:`restrict`) twice, once to
predict through :func:`split_sizes` and once to update through
``constrain``, and recounts the total mass from scratch.  This is the
learner the library shipped before charts moved to global coordinates;
the library's learner must agree with it round by round.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from sparseparity.cover import CoverFamily
from sparseparity.errors import AllChartsEmptyError, LengthMismatchError
from sparseparity.gf2 import AffineSpace, BitVector, reduce_rows
from sparseparity.online import Active, Identified


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

    def status(self):
        if not self.charts:
            return Active(log2_mass_upper=float("-inf"), mistakes=self.mistakes)
        active = Active(
            log2_mass_upper=math.log2(self.total_mass()), mistakes=self.mistakes
        )
        point = None
        for chart in self.charts:
            if chart.space.rank != chart.space.ambient_dim:
                return active
            value = chart.embed_value(chart.space.sole_point().value)
            if point is None:
                point = value
            elif value != point:
                return active
        return Identified(f=BitVector(self.n, point))

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
