"""Acceptance gate: nine end-to-end checks with pinned tolerances.

Each test prints a single ``acceptance i/9 ...: PASS|FAIL`` line on the
terminal (bypassing capture) so a full run yields a nine-line scoreboard.
All randomness is pinned; every check also enforces its wall-clock cap.
"""

import json
import math
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from sparseparity.baselines import mitm_learn
from sparseparity.cover import (
    CoverParams,
    binom,
    build_verified_family,
    ratio_bound_report,
)
from sparseparity.errors import NoCandidatesError
from sparseparity.gf2 import AffineSpace, BitVector
from sparseparity.harness import (
    cli,
    closed_form_mistake_bound,
    run_learn_noiseless,
)
from sparseparity.noisy import (
    MitmInner,
    NoisyParams,
    PacOnlineInner,
    entropy,
    flip_set_count,
    noisy_learn_report,
)
from sparseparity.rng import SplitMix64
from sparseparity.sources import UniformSource, gen_hidden

from chart_reference import split_sizes

DATA_DIR = Path(__file__).resolve().parent / "data"


def _report(capsys, index, name, ok, detail):
    line = (
        f"acceptance {index}/9 {name}: "
        f"{'PASS' if ok else 'FAIL'} ({detail})"
    )
    with capsys.disabled():
        print(line)
    assert ok, line


def _parity_table(dim: int, mask: int) -> np.ndarray:
    """Boolean table of <x, mask> over all 2^dim assignments."""
    x = np.arange(1 << dim, dtype=np.uint32) & np.uint32(mask)
    x ^= x >> np.uint32(16)
    x ^= x >> np.uint32(8)
    x ^= x >> np.uint32(4)
    x ^= x >> np.uint32(2)
    x ^= x >> np.uint32(1)
    return (x & np.uint32(1)).astype(bool)


def _space_equals_table(space: AffineSpace, alive: np.ndarray, dim: int):
    """Exact set equality between an affine space and a truth table."""
    count = int(alive.sum())
    if space.empty:
        assert count == 0
        return
    size = 1 << space.log2_size
    assert count == size
    # alive is a subset of the solution set of every stored row, and the
    # cardinalities agree, so the sets are equal
    for mask, rhs in space.rows:
        table = _parity_table(dim, mask.value)
        assert bool(table[alive].all() if rhs else (~table[alive]).all())
    if space.log2_size <= 10:
        points = {p.value for p in space.points()}
        assert points == set(np.nonzero(alive)[0].tolist())


def test_affine_splits_match_exhaustive_enumeration(capsys):
    start = time.time()
    rng = SplitMix64(41)
    sequences = 10_000
    for _ in range(sequences):
        dim = 1 + rng.below(16)
        space = AffineSpace.full(dim)
        alive = np.ones(1 << dim, dtype=bool)
        _space_equals_table(space, alive, dim)
        for _ in range(6):
            v_bits = rng.bits(dim)
            v = BitVector(dim, v_bits)
            table = _parity_table(dim, v_bits)
            c0 = int((alive & ~table).sum())
            c1 = int((alive & table).sum())
            s0, s1 = split_sizes(space, v)
            for log_size, count in ((s0, c0), (s1, c1)):
                if log_size is None:
                    assert count == 0
                else:
                    assert count == 1 << log_size
            total = 0 if space.empty else 1 << space.log2_size
            assert c0 + c1 == total
            y = rng.below(2)
            space = space.constrain(v, y)
            alive = alive & (table == bool(y))
            _space_equals_table(space, alive, dim)
            if space.empty:
                break
    elapsed = time.time() - start
    _report(
        capsys, 1, "affine splits vs exhaustive enumeration",
        elapsed < 60.0,
        f"{sequences} sequences, dims <= 16, {elapsed:.1f}s < 60s",
    )


def test_halving_mistake_bound_and_identification(capsys):
    start = time.time()
    configs = [(64, 3, 12, 2), (96, 2, 16, 2), (32, 4, 8, 3)]
    total_runs = 200
    worst_margin = None
    runs_done = 0
    all_ok = True
    for idx, (n, k, t, alpha) in enumerate(configs):
        trials = total_runs // len(configs) + (
            1 if idx < total_runs % len(configs) else 0
        )
        budget = int(4 * closed_form_mistake_bound(n, k, t))
        report = run_learn_noiseless(
            n, k, t, alpha, trials=trials, seed=20 + idx,
            sample_budget=budget,
        )
        runs_done += len(report.rows)
        for row in report.rows:
            all_ok &= row.identified
            all_ok &= row.mistakes <= row.exact_bound
            margin = row.exact_bound - row.mistakes
            if worst_margin is None or margin < worst_margin:
                worst_margin = margin
    elapsed = time.time() - start
    _report(
        capsys, 2, "halving mistake bound on honest streams",
        all_ok and runs_done == total_runs and elapsed < 300.0,
        f"{runs_done} runs, min bound slack {worst_margin}, "
        f"{elapsed:.1f}s < 300s",
    )


def test_covering_families_verify_within_ten_reseeds(capsys):
    start = time.time()
    combos = 0
    all_verified = True
    for alpha in (2, 3):
        for T in range(alpha, 25, alpha):
            t = T // alpha
            for k in range(0, min(3, t) + 1):
                if alpha * k > T:
                    continue
                params = CoverParams(n=T, k=k, t=t, alpha=alpha)
                family = build_verified_family(params, rng_seed=300 + combos,
                                               attempts=10)
                all_verified &= family.verified
                combos += 1
    elapsed = time.time() - start
    _report(
        capsys, 3, "covering-family certification",
        all_verified and elapsed < 120.0,
        f"{combos} (T,k,alpha) combinations, {elapsed:.1f}s < 120s",
    )


def test_ratio_bound_matches_high_precision_fixture(capsys):
    start = time.time()
    rows = json.loads((DATA_DIR / "ratio_bound.json").read_text())
    assert len(rows) == 9
    all_ok = True
    for row in rows:
        rep = ratio_bound_report(row["t"], row["k"], row["alpha"])
        all_ok &= rep.holds == row["holds"]
        all_ok &= math.isclose(
            rep.ratio_log2, float(row["ratio_log2"]), rel_tol=1e-9
        )
        all_ok &= math.isclose(
            rep.rhs_log2, float(row["rhs_log2"]), rel_tol=1e-9
        )
        # the ratio must always beat the trivial count of k-subsets
        all_ok &= rep.ratio_log2 < float(row["trivial_log2"])
        if row["holds"]:
            all_ok &= rep.ratio_log2 <= rep.rhs_log2
    elapsed = time.time() - start
    holds_count = sum(r["holds"] for r in rows)
    _report(
        capsys, 4, "subset-ratio bound vs 50-digit oracle",
        all_ok and elapsed < 60.0,
        f"9 grid points, bound holds on {holds_count}, {elapsed:.1f}s < 60s",
    )


def test_mitm_equals_brute_force(capsys):
    start = time.time()
    pairs = [(n, k) for n in range(1, 13) for k in range(0, min(3, n) + 1)]
    rng = SplitMix64(5)
    sets_checked = 0
    all_ok = True
    while sets_checked < 100:
        n, k = pairs[sets_checked % len(pairs)]
        hidden = gen_hidden(n, k, rng.next_u64())
        source = UniformSource(hidden, seed=rng.next_u64(), eta=0.0)
        examples = source.take(1 + rng.below(14))
        if rng.below(2):  # corrupt half the streams to hit non-unique cases
            examples = [
                type(ex)(ex.a, rng.below(2)) for ex in examples
            ]
        brute = [
            BitVector.from_support(n, support)
            for support in __import__("itertools").combinations(range(n), k)
        ]
        brute = sorted(
            (x for x in brute
             if all(ex.a.dot(x) == ex.label for ex in examples)),
            key=lambda x: x.support(),
        )
        all_ok &= mitm_learn(examples, n, k) == brute
        sets_checked += 1
    elapsed = time.time() - start
    _report(
        capsys, 5, "meet-in-the-middle vs brute force",
        all_ok and elapsed < 120.0,
        f"{sets_checked} example sets, n <= 12, k <= 3, {elapsed:.1f}s < 120s",
    )


def test_noisy_reduction_with_mitm_inner(capsys):
    start = time.time()
    params = NoisyParams.from_counts(eta=0.05, delta=0.2, s_prime=40)
    expected_sets = flip_set_count(params.s_prime, params.flip_budget)
    cap = 2.0 ** (entropy(1.5 * 0.05) * params.s_prime)
    inner = MitmInner(24, 2)
    master = SplitMix64(6)
    hits = 0
    counters_ok = expected_sets <= cap
    for _ in range(100):
        hidden = gen_hidden(24, 2, master.next_u64())
        source = UniformSource(hidden, seed=master.next_u64(), eta=0.05)
        try:
            report = noisy_learn_report(inner, source, params)
        except NoCandidatesError:
            continue
        counters_ok &= report.inner_invocations == expected_sets
        hits += report.output == hidden
    elapsed = time.time() - start
    _report(
        capsys, 6, "noisy reduction, exhaustive-search inner",
        hits >= 80 and counters_ok and elapsed < 600.0,
        f"{hits}/100 recoveries (need >= 80), {expected_sets} inner calls "
        f"per trial <= {cap:.0f}, {elapsed:.1f}s < 600s",
    )


def test_noisy_reduction_with_chart_learner_inner(capsys):
    start = time.time()
    params = NoisyParams.from_counts(eta=0.01, delta=0.25, s_prime=67)
    inner = PacOnlineInner(48, 2, t=12, alpha=2, delta=0.01, rng_seed=7700)
    master = SplitMix64(7)
    hits = 0
    samples_ok = True
    for _ in range(100):
        hidden = gen_hidden(48, 2, master.next_u64())
        source = UniformSource(hidden, seed=master.next_u64(), eta=0.01)
        try:
            report = noisy_learn_report(inner, source, params)
        except NoCandidatesError:
            continue
        samples_ok &= (
            report.samples_drawn == params.s_prime + params.s_doubleprime
        )
        hits += report.output == hidden
    elapsed = time.time() - start
    _report(
        capsys, 7, "noisy reduction, chart-learner inner",
        hits >= 75 and samples_ok and elapsed < 900.0,
        f"{hits}/100 recoveries (need >= 75), samples = "
        f"{params.s_prime}+{params.s_doubleprime} per trial, "
        f"{elapsed:.1f}s < 900s",
    )


def _strip(csv_text: str, column: str) -> str:
    lines = csv_text.strip("\n").split("\n")
    drop = lines[0].split(",").index(column)
    return "\n".join(
        ",".join(cells for i, cells in enumerate(line.split(",")) if i != drop)
        for line in lines
    )


def test_cli_reports_are_deterministic(capsys, tmp_path):
    start = time.time()
    commands = [
        (["learn-noiseless", "--n", "16", "--k", "2", "--t", "4",
          "--alpha", "2", "--trials", "3", "--seed", "11"], "wall_ns"),
        (["learn-noisy", "--n", "12", "--k", "2", "--eta", "0.05",
          "--delta", "0.2", "--s-prime", "14", "--trials", "3",
          "--seed", "13"], "wall_ns"),
        (["bench", "--n", "16", "--k", "2", "--t-grid", "4,2",
          "--alpha", "2", "--trials", "2", "--seed", "17"],
         "mean_round_wall_ns"),
        (["cover-check", "--n", "24", "--k", "2", "--t", "6",
          "--alpha", "2", "--seed", "7"], None),
    ]
    all_ok = True
    for idx, (argv, wall_column) in enumerate(commands):
        texts = []
        for rep in range(2):
            out = tmp_path / f"{idx}-{rep}.txt"
            code = cli(argv + ["--out", str(out)])
            all_ok &= code == 0
            texts.append(out.read_text())
        if wall_column is None:
            all_ok &= texts[0] == texts[1]
        else:
            all_ok &= _strip(texts[0], wall_column) == _strip(
                texts[1], wall_column
            )
    elapsed = time.time() - start
    _report(
        capsys, 8, "CLI byte determinism modulo wall clock",
        all_ok,
        f"{len(commands)} commands run twice, {elapsed:.1f}s",
    )


def test_entropy_fixture_and_subset_counting_bound(capsys):
    start = time.time()
    rows = json.loads((DATA_DIR / "entropy.json").read_text())
    assert len(rows) == 20
    all_ok = True
    for row in rows:
        p = float(row["p"])
        all_ok &= abs(entropy(p) - float(row["entropy"])) < 1e-12
    for x in range(1, 31):
        for num, den in ((1, 10), (1, 5), (3, 10), (2, 5), (1, 2)):
            alpha = Fraction(num, den)
            cut = (x * num) // den  # exact floor of alpha * x
            lhs = sum(binom(x, i) for i in range(cut + 1))
            all_ok &= lhs <= 2.0 ** (entropy(num / den) * x)
    elapsed = time.time() - start
    _report(
        capsys, 9, "entropy values and subset-count bound",
        all_ok and elapsed < 60.0,
        f"20 fixture points at 1e-12, counting bound for x <= 30, "
        f"{elapsed:.1f}s",
    )
