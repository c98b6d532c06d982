"""A source that replays a fixed example list, for tests that feed the
library hand-built streams.

:class:`ReplaySource` offers the members of
:class:`~sparseparity.sources.UniformSource` that the PAC driver and the
noisy reduction read: ``n``, ``draws``, ``next_example``, ``skip`` and
``disagreements``.  Past the end of its list it raises
:class:`SourceExhaustedError`.
"""

from __future__ import annotations

from typing import Sequence

from sparseparity.gf2 import BitVector
from sparseparity.sources import LabeledExample


class SourceExhaustedError(Exception):
    """A replay source has no more examples."""


class ReplaySource:
    """Replays a fixed example list; raises SourceExhaustedError at the end.

    ``n`` is the examples' length, or None for an empty list.
    """

    def __init__(self, examples: Sequence[LabeledExample]):
        self._examples = list(examples)
        self.n = self._examples[0].a.n if self._examples else None
        for ex in self._examples:
            if ex.a.n != self.n:
                raise ValueError(
                    f"mixed example lengths {self.n} and {ex.a.n} in replay"
                )
        self._cursor = 0

    @property
    def draws(self) -> int:
        return self._cursor

    def next_example(self) -> LabeledExample:
        if self._cursor >= len(self._examples):
            raise SourceExhaustedError(
                f"replay of {len(self._examples)} examples is exhausted"
            )
        ex = self._examples[self._cursor]
        self._cursor += 1
        return ex

    def skip(self, count: int) -> None:
        """Move past ``count`` examples; past the end, stop there and raise
        SourceExhaustedError, as drawing would."""
        if count < 0:
            raise ValueError(f"cannot skip {count} examples")
        stop = self._cursor + count
        self._cursor = min(stop, len(self._examples))
        if stop > len(self._examples):
            raise SourceExhaustedError(
                f"replay of {len(self._examples)} examples is exhausted"
            )

    def disagreements(
        self, candidates: Sequence[BitVector], count: int
    ) -> list[int]:
        """Per candidate, how many of the next ``count`` labels it misses."""
        start = self._cursor
        self.skip(count)
        values = [x.value for x in candidates]
        counts = [0] * len(values)
        for ex in self._examples[start:self._cursor]:
            bits, y = ex.a.value, ex.label
            for i, x in enumerate(values):
                counts[i] += ((bits & x).bit_count() & 1) ^ y
        return counts
