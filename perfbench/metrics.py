"""Metric names, units and directions, and the per-layer summary.

``BENCHMARK.json`` at the repository root lists the same names; a test
keeps the two in step.  ``exact`` marks counts that the program makes
deterministically: the comparison tool treats them as equal only when
every pair of runs repeats them exactly.
"""

from __future__ import annotations

from collections import defaultdict

from tracing import HOOK_LEAF, INNER_RUN, layer_of, self_times

# name, unit, better, bound, exact.  ``ref`` is the time of one call of
# the reference kernel in calibrate.py, timed next to each trial.
END_TO_END = (
    ("solve_ref.p50", "ref", "lower", 0.2, False),
    ("solve_ref.tail", "ref", "lower", 0.2, False),
    ("setup_s", "s", "lower", 0.25, False),
    ("samples_mean", "examples", "lower", 0.2, True),
    ("identified_frac", "ratio", "higher", 0.2, True),
    ("peak_rss_mib", "MiB", "lower", 0.1, False),
)

# Printed with the end-to-end metrics but left out of the result line.
# Raw wall times follow the machine's speed drift (ref_ms shows it);
# mistakes apply to one workload only; errors are the result line's own
# ``failed`` count, which is 0 on every workload.
REPORT_ONLY = (
    ("solve_s.p50", "s"),
    ("solve_s.tail", "s"),
    ("trials_per_s", "1/s"),
    ("ref_ms", "ms"),
    ("mistakes_mean", "mistakes"),
    ("error_frac", "ratio"),
)

LAYERS = ("cover", "online", "gf2", "pac", "noisy", "sources", "harness")

# name, unit, better, exact
PER_LAYER = (
    ("cover.builds", "count", "lower", True),
    ("cover.attempts", "count", "lower", True),
    ("cover.verified_frac", "ratio", "higher", True),
    ("cover.m", "count", "lower", True),
    ("cover.busy_s", "s", "lower", False),
    ("online.learners", "count", "lower", True),
    ("online.build_s", "s", "lower", False),
    ("online.rounds", "count", "lower", True),
    ("online.chart_rounds", "count", "lower", True),
    ("online.predict_s", "s", "lower", False),
    ("online.update_s", "s", "lower", False),
    ("online.status_s", "s", "lower", False),
    ("online.round_us", "us", "lower", False),
    ("online.chart_bits_peak", "bits", "lower", True),
    ("online.live_charts_final", "count", "lower", True),
    ("gf2.constrain_calls", "count", "lower", True),
    ("gf2.constrain_s", "s", "lower", False),
    ("gf2.split_calls", "count", "lower", True),
    ("gf2.split_s", "s", "lower", False),
    ("gf2.restrict_calls", "count", "lower", True),
    ("gf2.restrict_s", "s", "lower", False),
    ("pac.runs", "count", "lower", True),
    ("pac.samples", "examples", "lower", True),
    ("pac.decided_frac", "ratio", "higher", True),
    ("noisy.flip_sets", "count", "lower", True),
    ("noisy.inner_runs", "count", "lower", True),
    ("noisy.inner_s", "s", "lower", False),
    ("noisy.inner_yield", "ratio", "higher", True),
    ("noisy.distinct_outcomes", "count", "lower", True),
    ("noisy.candidates", "count", "lower", True),
    ("noisy.select_s", "s", "lower", False),
    ("noisy.select_dots", "count", "lower", True),
    ("noisy.no_candidates", "count", "lower", True),
    ("noisy.mitm_cache_hit_frac", "ratio", "higher", True),
    ("sources.examples", "examples", "lower", True),
    ("sources.busy_s", "s", "lower", False),
    ("sources.ns_per_example", "ns", "lower", False),
) + tuple((f"{layer}.self_s", "s", "lower", False) for layer in LAYERS) + (
    ("trace.self_s", "s", "lower", False),
    ("trace.accounted_frac", "ratio", "higher", False),
    ("trace.overhead_frac", "ratio", "lower", False),
    ("trace.trials", "count", "higher", False),
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + REPORT_ONLY + PER_LAYER}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, walls_ns, overhead_frac):
    """Per-trial means of the per-layer metrics over the traced trials.

    ``walls_ns`` maps each traced trial id to the wall time the benchmark
    measured around that trial's call.  Counts and times are summed over
    the trials and divided by their number; ratios divide two sums.
    """
    trials = set(walls_ns)
    n = len(trials)
    own = self_times(tracer.spans)
    layer_self = defaultdict(int)
    incl = defaultdict(int)
    calls = defaultdict(int)
    for sid, _parent, trial, name, start, end, _leaf in tracer.spans:
        if trial in trials:
            layer_self[layer_of(name)] += own[sid]
            incl[name] += end - start
            calls[name] += 1
    for (trial, name), (count, busy) in tracer.leaves.items():
        if trial in trials:
            layer_self[layer_of(name)] += busy
            incl[name] += busy
            calls[name] += count

    def total(key):
        return sum(v for (t, k), v in tracer.counters.items() if t in trials and k == key)

    def per_trial(value):
        return value / n

    def seconds(ns):
        return ns / n / 1e9

    build_self = sum(
        own[sid] for sid, _p, trial, name, *_ in tracer.spans
        if trial in trials and name in (
            "online.new_learner", "online.learner_from_family",
            "online.LearnerState.__init__",
        )
    )
    live = [v for (t, _id), v in tracer.last_live.items() if t in trials]
    inner_runs = calls[INNER_RUN]
    rounds = calls["online.learner_update"]
    examples = calls["sources.UniformSource.next_example"]
    builds = calls["cover.build_verified_family"]
    attempts = calls["cover.sample_family"]
    outcomes = sum(
        len(v) for (t, k), v in tracer.sets.items()
        if t in trials and k == "noisy.outcomes"
    )
    peaks = sum(
        v for (t, k), v in tracer.peaks.items()
        if t in trials and k == "online.chart_bits_peak"
    )
    accounted = sum(layer_self.values())
    values = {
        "cover.builds": per_trial(builds),
        "cover.attempts": per_trial(attempts),
        "cover.verified_frac": _ratio(total("cover.verified"), builds),
        "cover.m": _ratio(total("cover.m_sum"), attempts),
        "cover.busy_s": seconds(layer_self["cover"]),
        "online.learners": per_trial(calls["online.LearnerState.__init__"]),
        "online.build_s": seconds(build_self),
        "online.rounds": per_trial(rounds),
        "online.chart_rounds": per_trial(total("online.chart_rounds")),
        "online.predict_s": seconds(incl["online.predict"]),
        "online.update_s": seconds(incl["online.learner_update"]),
        "online.status_s": seconds(incl["online.status"]),
        "online.round_us": _ratio(
            incl["online.predict"] + incl["online.learner_update"], rounds
        ) / 1e3,
        "online.chart_bits_peak": per_trial(peaks),
        "online.live_charts_final": _ratio(sum(live), len(live)),
        "gf2.constrain_calls": per_trial(calls["gf2.AffineSpace.constrain"]),
        "gf2.constrain_s": seconds(incl["gf2.AffineSpace.constrain"]),
        "gf2.split_calls": per_trial(calls["gf2.AffineSpace.split_sizes"]),
        "gf2.split_s": seconds(incl["gf2.AffineSpace.split_sizes"]),
        "gf2.restrict_calls": per_trial(calls["gf2.BitVector.restrict"]),
        "gf2.restrict_s": seconds(incl["gf2.BitVector.restrict"]),
        "pac.runs": per_trial(calls["pac.pac_learn"]),
        "pac.samples": per_trial(total("pac.samples")),
        "pac.decided_frac": _ratio(total("pac.decided"), calls["pac.pac_learn"]),
        "noisy.flip_sets": per_trial(total("noisy.flip_sets")),
        "noisy.inner_runs": per_trial(inner_runs),
        "noisy.inner_s": seconds(incl[INNER_RUN]),
        "noisy.inner_yield": _ratio(total("noisy.yield"), inner_runs),
        "noisy.distinct_outcomes": per_trial(outcomes),
        "noisy.candidates": per_trial(total("noisy.candidates")),
        "noisy.select_s": seconds(incl["noisy.agreement_select"]),
        "noisy.select_dots": per_trial(total("noisy.select_dots")),
        "noisy.no_candidates": per_trial(total("noisy.no_candidates")),
        "noisy.mitm_cache_hit_frac": _ratio(total("noisy.cache_hits"), inner_runs),
        "sources.examples": per_trial(examples),
        "sources.busy_s": seconds(layer_self["sources"]),
        "sources.ns_per_example": _ratio(
            incl["sources.UniformSource.next_example"], examples
        ),
        "trace.self_s": seconds(incl[HOOK_LEAF]),
        "trace.accounted_frac": _ratio(accounted, sum(walls_ns.values())),
        "trace.overhead_frac": overhead_frac,
        "trace.trials": n,
    }
    for layer in LAYERS:
        values[f"{layer}.self_s"] = seconds(layer_self[layer])
    return values
