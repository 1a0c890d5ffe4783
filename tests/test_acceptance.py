"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Tolerances are fixed here, not tuned at runtime.  Every
test here carries the `acceptance` marker, so `pytest -m "not acceptance"`
runs only the unit tests.
"""

import json
import math
import time
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from contexcert.belltests import (
    ChshInput,
    Outcome,
    TripleInput,
    chsh_max,
    chsh_test,
    chsh_ksigma,
    original_bell_singlet_maximum,
    sz_bounds,
)
from contexcert.cli import main as cli_main
from contexcert.jpdoracle import (
    jpd_feasible,
    pair_table_from_correlation,
    zero_mean_system,
    MarginalConstraintSystem,
)
from contexcert.quantumgen import (
    born_table,
    planar_observable,
    random_density_state,
    sample_quantum_dataset,
    singlet_correlation,
    singlet_state,
    sphere_lhv_model,
    sample_lhv_dataset,
)
from contexcert.randomtests import (
    LabelSequence,
    PlaceSelection,
    randomness_test,
)
from contexcert.scenario import CorrelationSet, correlation_set
from contexcert.signaling import no_signaling_test, signaling_deviation
from contexcert.suite import quadrupole_system_from_chsh
from contexcert.tolerances import StatisticalTolerance

pytestmark = pytest.mark.acceptance

TSIRELSON = 2 * math.sqrt(2)
CHSH_PAIRS = (("A1", "B1"), ("A1", "B2"), ("A2", "B1"), ("A2", "B2"))


def report(name: str, ok: bool, detail: str = "") -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" - {detail}" if detail else ""))
    assert ok, f"{name}: {detail}"


def chsh_from_values(c11, c12, c21, c22, ns=None):
    entries = dict(zip((frozenset(p) for p in CHSH_PAIRS), (c11, c12, c21, c22)))
    sizes = {k: ns for k in entries} if ns else {}
    return ChshInput(
        CorrelationSet(entries=entries, sample_sizes=sizes), ("A1", "A2"), ("B1", "B2")
    )


def test_criterion_1_tsirelson_reproduction():
    t0 = time.perf_counter()
    angles = {"A1": 0.0, "A2": math.pi / 2, "B1": math.pi / 4, "B2": 3 * math.pi / 4}

    # analytic mode
    analytic = chsh_from_values(
        *(singlet_correlation(angles[a], angles[b]) for a, b in CHSH_PAIRS)
    )
    analytic_max = chsh_max(analytic)
    ok_analytic = abs(analytic_max - TSIRELSON) < 1e-12

    # empirical mode: N = 1e5 per pair, fixed seed
    obs = {
        k: planar_observable(k, v, qubit=0 if k.startswith("A") else 1)
        for k, v in angles.items()
    }
    settings = [((obs[a], obs[b]), 100_000) for a, b in CHSH_PAIRS]
    ds = sample_quantum_dataset(singlet_state(), settings, seed=5)
    corr = correlation_set(ds, CHSH_PAIRS)
    empirical_max = chsh_max(ChshInput(corr, ("A1", "A2"), ("B1", "B2")))
    ok_empirical = abs(empirical_max - TSIRELSON) < 0.03

    elapsed = time.perf_counter() - t0
    report(
        "criterion 1: Tsirelson reproduction",
        ok_analytic and ok_empirical and elapsed < 10.0,
        f"analytic {analytic_max:.12f}, empirical {empirical_max:.4f}, {elapsed:.1f}s",
    )


def test_criterion_2_original_bell_quantum_bound():
    t0 = time.perf_counter()
    best, angles = original_bell_singlet_maximum(step=0.001)
    elapsed = time.perf_counter() - t0
    report(
        "criterion 2: original-Bell quantum bound 3/2",
        abs(best - 1.5) < 1e-3 and elapsed < 60.0,
        f"max statistic {best:.6f} at angles {tuple(round(a, 4) for a in angles)}, {elapsed:.1f}s",
    )


def test_criterion_3_fine_equivalence_grid():
    t0 = time.perf_counter()
    grid = [k / 10.0 for k in range(-10, 11)]
    disagreements = 0
    checked = 0

    def agrees(c11, c12, c21, c22) -> bool:
        inp = chsh_from_values(c11, c12, c21, c22)
        feasible = jpd_feasible(quadrupole_system_from_chsh(inp)).feasible
        violated = chsh_max(inp) > 2 + 1e-9
        return feasible != violated

    for c11, c12, c21, c22 in product(grid, repeat=4):
        checked += 1
        if not agrees(c11, c12, c21, c22):
            disagreements += 1

    rng = np.random.default_rng(2024)
    for _ in range(10_000):
        checked += 1
        if not agrees(*rng.uniform(-1.0, 1.0, size=4)):
            disagreements += 1

    # exact-rational spot check on 100 grid points
    rng_idx = np.random.default_rng(7)
    exact_fail = 0
    for _ in range(100):
        cs = [Fraction(int(k), 10) for k in rng_idx.integers(-10, 11, size=4)]
        pairs = (("A1", "B1"), ("A1", "B2"), ("A2", "B1"), ("A2", "B2"))
        system = MarginalConstraintSystem(
            ("A1", "A2", "B1", "B2"),
            tuple(
                (p, pair_table_from_correlation(p, c, exact=True))
                for p, c in zip(pairs, cs)
            ),
        )
        exact_feasible = jpd_feasible(system, exact=True).feasible
        exact_violated = (
            max(
                abs(sum(c * (-1 if i == k else 1) for i, c in enumerate(cs)))
                for k in range(4)
            )
            > 2
        )
        if exact_feasible == exact_violated:
            exact_fail += 1

    elapsed = time.perf_counter() - t0
    report(
        "criterion 3: Fine equivalence (0.1 grid + 10^4 random + 100 exact)",
        disagreements == 0 and exact_fail == 0 and elapsed < 120.0,
        f"{checked} points, {disagreements} disagreements, "
        f"{exact_fail} exact-mode failures, {elapsed:.1f}s",
    )


def test_criterion_4_suppes_zanotti_equivalence_grid():
    t0 = time.perf_counter()
    grid = [k / 20.0 for k in range(-20, 21)]  # 0.05 step
    triple = ("X1", "X2", "X3")
    pairs = (("X1", "X2"), ("X2", "X3"), ("X1", "X3"))
    disagreements = 0
    checked = 0
    for c12, c23, c13 in product(grid, repeat=3):
        checked += 1
        feasible = jpd_feasible(
            zero_mean_system(triple, pairs, (c12, c23, c13))
        ).feasible
        lower, upper = sz_bounds(c12, c23, c13)
        s = c12 + c23 + c13
        within = lower - 1e-9 <= s <= upper + 1e-9
        if feasible != within:
            disagreements += 1
    elapsed = time.perf_counter() - t0
    report(
        "criterion 4: Suppes-Zanotti equivalence (0.05 grid)",
        disagreements == 0 and elapsed < 60.0,
        f"{checked} triples, {disagreements} disagreements, {elapsed:.1f}s",
    )


def test_criterion_5_classical_soundness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    n_models = 100
    n_per_pair = 100_000
    rejected = 0
    oracle_feasible = 0
    for trial in range(n_models):
        axes = {k: rng.normal(size=3) for k in ("A1", "A2", "B1", "B2")}
        model = sphere_lhv_model(axes)
        ds = sample_lhv_dataset(
            model, [(p, n_per_pair) for p in CHSH_PAIRS], seed=10_000 + trial
        )
        corr = correlation_set(ds, CHSH_PAIRS)
        inp = ChshInput(corr, ("A1", "A2"), ("B1", "B2"))
        verdict = chsh_test(inp, tolerance=chsh_ksigma(inp, 3.0))
        rejected += verdict.outcome is Outcome.REJECTED_NONCONTEXTUAL
        # oracle on the system induced from the estimated correlations, with
        # the feasibility threshold at the same statistical scale
        feas = jpd_feasible(
            quadrupole_system_from_chsh(inp),
            feasibility_tol=max(1e-9, chsh_ksigma(inp, 3.0)),
        )
        oracle_feasible += feas.feasible
    elapsed = time.perf_counter() - t0
    report(
        "criterion 5: classical soundness (100 LHV sphere models)",
        rejected >= 99 and oracle_feasible == n_models,
        f"rejected {rejected}/100, oracle feasible {oracle_feasible}/100, {elapsed:.1f}s",
    )


def test_criterion_6_quantum_no_signaling():
    t0 = time.perf_counter()

    # analytic half: 100 random states / observable sets, deviation <= 1e-12
    rng = np.random.default_rng(314)
    analytic_ok = 0
    for _ in range(100):
        state = random_density_state(4, rng)
        a = planar_observable("A", rng.uniform(0, 2 * math.pi), qubit=0)
        b = planar_observable("B", rng.uniform(0, 2 * math.pi), qubit=1)
        c = planar_observable("C", rng.uniform(0, 2 * math.pi), qubit=1)
        tables = [born_table(state, (a, b)), born_table(state, (a, c))]
        if signaling_deviation(tables, "A") <= 1e-12:
            analytic_ok += 1

    # sampled half: 1000 seeded runs through no_signaling_test at 3 sigma.
    # Sample sizes differ per context so the N_min-based tolerance sits at
    # its calibrated (conservative) regime.
    n1, n2 = 20_000, 2_000
    passes = 0
    state = singlet_state()
    obs_a = planar_observable("A", 0.3, qubit=0)
    obs_b = planar_observable("B", 1.1, qubit=1)
    obs_c = planar_observable("C", 2.2, qubit=1)
    for seed in range(1000):
        ds = sample_quantum_dataset(
            state, [((obs_a, obs_b), n1), ((obs_a, obs_c), n2)], seed=seed
        )
        rep = no_signaling_test(ds, StatisticalTolerance(3.0))
        passes += rep.verdict == "no_signaling"

    elapsed = time.perf_counter() - t0
    report(
        "criterion 6: quantum no-signaling",
        analytic_ok == 100 and passes >= 990,
        f"analytic {analytic_ok}/100 at 1e-12, sampled {passes}/1000 at 3-sigma, {elapsed:.1f}s",
    )


def test_criterion_7_randomness_battery_discrimination():
    t0 = time.perf_counter()

    # strict alternation fails via the even-position filter with deviation 0.5
    alternation = LabelSequence((0, 1), tuple(i % 2 for i in range(10_000)))
    rep = randomness_test(
        alternation,
        [PlaceSelection.index_arithmetic(2, 0)],
        StatisticalTolerance(4.0),
    )
    alternation_ok = (
        rep.verdict == "failed"
        and math.isclose(rep.per_selection[0].max_deviation, 0.5, abs_tol=1e-12)
    )

    # seeded fair coins pass the full battery in >= 99.9% of 1000 seeds
    passes = 0
    master = np.random.SeedSequence(777)
    for idx, child in enumerate(master.spawn(1000)):
        gen = np.random.Generator(np.random.PCG64(child))
        values = tuple(int(v) for v in (gen.random(100_000) < 0.5).astype(int))
        seq = LabelSequence((0, 1), values)
        battery = [
            PlaceSelection.prime_index(),
            PlaceSelection.after_pattern((0, 1)),
            PlaceSelection.index_arithmetic(2, 0),
            PlaceSelection.external_coin(seed=idx),
        ]
        rep = randomness_test(seq, battery, StatisticalTolerance(4.0))
        passes += rep.verdict == "passed"

    elapsed = time.perf_counter() - t0
    report(
        "criterion 7: randomness battery discrimination",
        alternation_ok and passes >= 999,
        f"alternation deviation 0.5 detected: {alternation_ok}, "
        f"fair-coin passes {passes}/1000, {elapsed:.1f}s",
    )


def test_criterion_8_reproducibility(tmp_path, capsys):
    angles = f"0,{math.pi/2},{math.pi/4},{3*math.pi/4}"
    csv = tmp_path / "d.csv"
    scen = tmp_path / "d.scenario.json"
    assert (
        cli_main(
            [
                "generate", "singlet", "--angles", angles,
                "--n", "5000", "--seed", "5", "--out", str(csv),
            ]
        )
        == 0
    )
    reports = []
    for run in (1, 2):
        out = tmp_path / f"report{run}.json"
        code = cli_main(
            [
                "full-suite", "--data", str(csv), "--scenario", str(scen),
                "--seed", "5", "--out", str(out),
            ]
        )
        assert code == 0
        reports.append(out.read_bytes())
    capsys.readouterr()  # swallow generate/full-suite stdout
    identical = reports[0] == reports[1]
    parsed = json.loads(reports[0])
    report(
        "criterion 8: byte-identical full-suite reports",
        identical and parsed["summary"]["chsh"] == "passed_contextuality_test",
        f"identical={identical}, {len(reports[0])} bytes",
    )
