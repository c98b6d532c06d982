"""The three workloads: their set-up, trial inputs, calls and output checks.

Each workload is one closed loop with a single caller.  ``inputs`` draws
trial ``i``'s seeds from the workload's master stream (so the library
only receives generated inputs), ``args`` turns them into fresh call
arguments, ``call`` is the timed library call, and ``check`` returns the
trial's deterministic fields and the list of checks that failed.
"""

from __future__ import annotations

import importlib
import types

PACKAGE = "sparseparity"

# Gate 2 of the acceptance suite: (n, k, t, alpha), taken in turn.
NOISELESS_CONFIGS = ((64, 3, 12, 2), (96, 2, 16, 2), (32, 4, 8, 3))


def load_library():
    """Import the modules the workloads call, as one namespace."""
    names = ("harness", "noisy", "sources", "rng", "errors")
    mods = {name: importlib.import_module(f"{PACKAGE}.{name}") for name in names}
    return types.SimpleNamespace(package=importlib.import_module(PACKAGE), **mods)


class NoiselessCharts:
    """Gate 2: one ``run_learn_noiseless`` trial per call, configs in turn."""

    name = "noiseless-charts"
    has_mistakes = True

    def setup(self, lib, seed):
        closed_form = lib.harness.closed_form_mistake_bound
        return types.SimpleNamespace(
            lib=lib,
            master=lib.rng.SplitMix64(seed),
            budgets={
                cfg: int(4 * closed_form(*cfg[:3])) for cfg in NOISELESS_CONFIGS
            },
            inner=None,
        )

    def inputs(self, ctx, i):
        return NOISELESS_CONFIGS[i % len(NOISELESS_CONFIGS)], ctx.master.next_u64()

    def args(self, ctx, inputs):
        return inputs

    def call(self, ctx, args):
        (n, k, t, alpha), trial_seed = args
        return ctx.lib.harness.run_learn_noiseless(
            n, k, t, alpha, trials=1, seed=trial_seed,
            sample_budget=ctx.budgets[(n, k, t, alpha)],
        )

    def check(self, ctx, inputs, args, report):
        problems = []
        if len(report.rows) != 1:
            return {}, [f"expected 1 row, got {len(report.rows)}"]
        row = report.rows[0]
        fields = {
            name: getattr(row, name)
            for name in ctx.lib.harness.CSV_HEADER if name != "wall_ns"
        }
        if not row.identified:
            problems.append("hidden vector not identified")
        if row.mistakes > row.exact_bound:
            problems.append(
                f"mistakes {row.mistakes} exceed the exact bound {row.exact_bound}"
            )
        return fields, problems


class NoisyWorkload:
    """One ``noisy_learn_report`` call per trial on a fresh noisy source."""

    has_mistakes = False

    def __init__(self, name, n, k, eta, delta, s_prime, make_inner):
        self.name = name
        self.n, self.k, self.eta = n, k, eta
        self.delta, self.s_prime = delta, s_prime
        self.make_inner = make_inner

    def setup(self, lib, seed):
        params = lib.noisy.NoisyParams.from_counts(
            eta=self.eta, delta=self.delta, s_prime=self.s_prime
        )
        return types.SimpleNamespace(
            lib=lib,
            master=lib.rng.SplitMix64(seed),
            params=params,
            inner=self.make_inner(lib),
            flip_sets=lib.noisy.flip_set_count(params.s_prime, params.flip_budget),
        )

    def inputs(self, ctx, i):
        hidden = ctx.lib.sources.gen_hidden(self.n, self.k, ctx.master.next_u64())
        return hidden, ctx.master.next_u64()

    def args(self, ctx, inputs):
        hidden, source_seed = inputs
        return ctx.lib.sources.UniformSource(hidden, seed=source_seed, eta=self.eta)

    def call(self, ctx, source):
        try:
            return ctx.lib.noisy.noisy_learn_report(ctx.inner, source, ctx.params)
        except ctx.lib.errors.NoCandidatesError:
            return None

    def check(self, ctx, inputs, source, report):
        hidden, _ = inputs
        params = ctx.params
        problems = []
        if report is None:
            fields = {
                "hidden": hidden.value, "no_candidates": True,
                "samples": source.draws, "identified": False,
            }
            if source.draws != params.s_prime:
                problems.append(
                    f"drew {source.draws} examples before failing, not {params.s_prime}"
                )
            return fields, problems
        fields = {
            "hidden": hidden.value,
            "output": report.output.value,
            "identified": report.output == hidden,
            "s_prime": report.s_prime,
            "s_doubleprime": report.s_doubleprime,
            "flip_budget": report.flip_budget,
            "inner_invocations": report.inner_invocations,
            "candidate_count": report.candidate_count,
            "samples_drawn": report.samples_drawn,
            "samples": source.draws,
        }
        if report.inner_invocations != ctx.flip_sets:
            problems.append(
                f"inner_invocations {report.inner_invocations} != "
                f"flip_set_count {ctx.flip_sets}"
            )
        expected = params.s_prime + params.s_doubleprime
        if report.samples_drawn != expected or source.draws != expected:
            problems.append(
                f"samples_drawn {report.samples_drawn}, source draws "
                f"{source.draws}, expected s' + s'' = {expected}"
            )
        return fields, problems


def _mitm_inner(lib):
    return lib.noisy.MitmInner(24, 2)


def _chart_inner(lib):
    return lib.noisy.PacOnlineInner(
        48, 2, t=12, alpha=2, delta=0.01, rng_seed=7700
    )


WORKLOADS = {
    wl.name: wl
    for wl in (
        NoiselessCharts(),
        # Gate 6: meet-in-the-middle inner, 10 701 flip sets per trial.
        NoisyWorkload("noisy-mitm", 24, 2, 0.05, 0.2, 40, _mitm_inner),
        # Gate 7: chart-learner inner through the PAC driver, 68 flip sets.
        NoisyWorkload("noisy-charts", 48, 2, 0.01, 0.25, 67, _chart_inner),
    )
}
