"""Run-time tracing of the library's module boundaries.

Nothing in ``src/`` knows about this module.  :func:`instrumented`
replaces the public functions and methods at each module boundary with
timing wrappers for the length of one trial and puts the originals back
afterwards, so untraced trials run the library exactly as shipped.

Two kinds of wrapper exist:

* a *span* records ``(id, parent, trial, name, start, end, leaf_ns)`` in
  memory.  Layers with few boundary calls (cover, online, pac, noisy,
  harness) use spans.
* a *leaf* only adds to a count and a busy time per ``(trial, name)``.
  ``gf2`` and ``sources`` use leaves because they are called 10^5 to 10^6
  times per trial.  A leaf must call no other traced boundary; its whole
  duration is charged to the enclosing span as ``leaf_ns``.

A span's self time is its duration minus the time its child spans and
leaves cover, so the self times of one trial add up to the duration of
its root call.  Hooks that read counters off arguments and results run
after the span's end stamp; their cost is charged to the ``trace`` layer
so that it does not inflate the layer that was called.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import sys
import time
from collections import defaultdict

HOOK_LEAF = "trace.hooks"


class Tracer:
    """Spans, leaf totals and counters of the traced trials, in memory."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans: list[tuple] = []
        self.leaves: dict[tuple, list[int]] = defaultdict(lambda: [0, 0])
        self.counters: dict[tuple, float] = defaultdict(float)
        self.peaks: dict[tuple, float] = defaultdict(float)
        self.sets: dict[tuple, set] = defaultdict(set)
        self.last_live: dict[tuple, int] = {}
        self.missing: set[str] = set()
        self.broken_hooks: set[str] = set()
        self.trial = None
        self._stack: list[list[int]] = []
        self._ids = itertools.count(1)

    # -- counters filled by hooks ---------------------------------------

    def count(self, key, amount=1):
        self.counters[(self.trial, key)] += amount

    def peak(self, key, value):
        slot = (self.trial, key)
        if value > self.peaks[slot]:
            self.peaks[slot] = value

    # -- wrappers -------------------------------------------------------

    def span(self, name, fn, before=None, after=None):
        clock, stack, spans, ids = self.clock, self._stack, self.spans, self._ids

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            pre = self._run_hook(name, before, args) if before else None
            frame = [next(ids), 0]
            stack.append(frame)
            result = exc = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                end = clock()
                stack.pop()
                spans.append((
                    frame[0], parent[0] if parent else None, self.trial,
                    name, start, end, frame[1],
                ))
                if after is not None:
                    self._run_hook(name, after, args, pre, result, exc)
                    hook_ns = clock() - end
                    if parent is not None:
                        parent[1] += hook_ns
                    acc = self.leaves[(self.trial, HOOK_LEAF)]
                    acc[0] += 1
                    acc[1] += hook_ns

        return wrapper

    def leaf(self, name, fn):
        clock, stack, leaves = self.clock, self._stack, self.leaves

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ns = clock() - start
                if stack:
                    stack[-1][1] += ns
                acc = leaves[(self.trial, name)]
                acc[0] += 1
                acc[1] += ns

        return wrapper

    def _run_hook(self, name, hook, *args):
        # A later refactor may rename what a hook reads; the metric then
        # reads 0 and the run says so, instead of the trial failing.
        try:
            return hook(*args)
        except (AttributeError, TypeError, IndexError):
            self.broken_hooks.add(name)
            return None


def self_times(spans):
    """Self time of every span: duration minus child-span and leaf coverage."""
    own = {}
    for sid, _parent, _trial, _name, start, end, leaf_ns in spans:
        own[sid] = end - start - leaf_ns
    for _sid, parent, _trial, _name, start, end, _leaf in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def layer_of(name):
    return name.split(".", 1)[0]


# -- what to wrap ------------------------------------------------------

# (module, attribute path): spans.  Module functions are rebound in every
# library module that imported them by name, so calls between modules and
# calls within one module are both seen.
SPAN_TARGETS = (
    ("harness", "run_learn_noiseless"),
    ("cover", "build_verified_family"),
    ("cover", "sample_family"),
    ("cover", "verify_cover"),
    ("online", "new_learner"),
    ("online", "learner_from_family"),
    ("online", "LearnerState.__init__"),
    ("online", "LearnerState.best_hypothesis"),
    ("online", "step"),
    ("online", "predict"),
    ("online", "learner_update"),
    ("online", "status"),
    ("pac", "pac_learn"),
    ("noisy", "noisy_learn_report"),
    ("noisy", "agreement_select"),
)

LEAF_TARGETS = (
    ("gf2", "AffineSpace.constrain"),
    ("gf2", "AffineSpace.split_sizes"),
    ("gf2", "BitVector.restrict"),
    ("sources", "UniformSource.next_example"),
    ("sources", "gen_hidden"),
)

INNER_RUN = "noisy.inner.run"


def _hooks(lib, tracer):
    """before/after hooks per span name, reading counters off the calls."""
    no_candidates = lib.errors.NoCandidatesError
    flip_set_count = lib.noisy.flip_set_count

    def verified(args, pre, result, exc):
        if exc is None:
            tracer.count("cover.verified", int(result.verified))

    def sampled(args, pre, result, exc):
        if exc is None:
            tracer.count("cover.m_sum", result.m)

    def live_before(args):
        return len(args[0].charts)

    def updated(args, live, result, exc):
        state = args[0]
        tracer.count("online.chart_rounds", live)
        bits = sum(c.space.rank * c.space.ambient_dim for c in state.charts)
        tracer.peak("online.chart_bits_peak", bits)
        tracer.last_live[(tracer.trial, id(state))] = len(state.charts)

    def pac_done(args, pre, result, exc):
        learner, source = args[0], args[1]
        tracer.count("pac.samples", source.draws)
        if exc is None and result.popcount() == learner.k:
            tracer.count("pac.decided")

    def noisy_done(args, pre, result, exc):
        if exc is None:
            tracer.count("noisy.flip_sets", result.inner_invocations)
            tracer.count("noisy.candidates", result.candidate_count)
        elif isinstance(exc, no_candidates):
            params = args[2]
            tracer.count("noisy.no_candidates")
            tracer.count(
                "noisy.flip_sets",
                flip_set_count(params.s_prime, params.flip_budget),
            )

    def selected(args, pre, result, exc):
        tracer.count("noisy.select_dots", len(args[0]) * len(args[1]))

    return {
        "cover.build_verified_family": (None, verified),
        "cover.sample_family": (None, sampled),
        "online.learner_update": (live_before, updated),
        "pac.pac_learn": (None, pac_done),
        "noisy.noisy_learn_report": (None, noisy_done),
        "noisy.agreement_select": (None, selected),
    }


def _inner_hooks(tracer, inner):
    def cache_before(args):
        return getattr(inner, "_cache", None)

    def ran(args, cache, result, exc):
        if exc is None:
            tracer.count("noisy.yield", int(result is not None))
            tracer.sets[(tracer.trial, "noisy.outcomes")].add(
                None if result is None else result.value
            )
        if cache is not None and getattr(inner, "_cache", None) is cache:
            tracer.count("noisy.cache_hits")

    return cache_before, ran


def _library_modules(package):
    prefix = package.__name__ + "."
    return [
        mod for name, mod in list(sys.modules.items())
        if mod is not None and (name == package.__name__ or name.startswith(prefix))
    ]


@contextlib.contextmanager
def instrumented(tracer, lib, inner=None):
    """Wrap the library's boundaries (and ``inner.run``) for one block."""
    restore = []
    modules = _library_modules(lib.package)
    hooks = _hooks(lib, tracer)

    targets = [(t, False) for t in SPAN_TARGETS] + [(t, True) for t in LEAF_TARGETS]
    try:
        for (modname, path), leaf in targets:
            name = f"{modname}.{path}"
            home = getattr(lib.package, modname, None)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(home, owner_name, None) if owner_name else home
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                tracer.missing.add(name)
                continue
            if leaf:
                wrapper = tracer.leaf(name, original)
            else:
                before, after = hooks.get(name, (None, None))
                wrapper = tracer.span(name, original, before, after)
            if owner_name:
                setattr(owner, attr, wrapper)
                restore.append((owner, attr, original))
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        restore.append((mod, key, original))
        if inner is not None:
            before, after = _inner_hooks(tracer, inner)
            inner.run = tracer.span(INNER_RUN, inner.run, before, after)
        yield
    finally:
        if inner is not None and "run" in vars(inner):
            del inner.run
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)
