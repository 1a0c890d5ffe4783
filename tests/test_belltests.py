import math

import numpy as np
import pytest

from contexcert.belltests import (
    ChshInput,
    CorrelationConstraintUnmet,
    MissingPair,
    MissingSampleSizes,
    Outcome,
    TripleInput,
    ZeroMeanViolated,
    chsh_ksigma,
    chsh_max,
    chsh_test,
    chsh_value,
    original_bell_singlet_maximum,
    original_bell_test,
    sz_bounds,
    sz_test,
)
from contexcert.errors import ContexcertError
from contexcert.quantumgen import singlet_correlation
from contexcert.jpdoracle import triple_jpd_feasible
from contexcert.scenario import (
    CorrelationSet,
    Dataset,
    Observable,
    OutcomeRecord,
    Scenario,
    correlation_set,
)

R = math.sqrt(2) / 2


def chsh_input(c11, c12, c21, c22, ns=None):
    entries = {
        frozenset(("A1", "B1")): c11,
        frozenset(("A1", "B2")): c12,
        frozenset(("A2", "B1")): c21,
        frozenset(("A2", "B2")): c22,
    }
    sizes = {k: ns for k in entries} if ns else {}
    return ChshInput(
        CorrelationSet(entries=entries, sample_sizes=sizes), ("A1", "A2"), ("B1", "B2")
    )


def triple_input(c12, c23, c13, means=(0.0, 0.0, 0.0), tol=0.01):
    return TripleInput(
        CorrelationSet(
            entries={
                frozenset(("X1", "X2")): c12,
                frozenset(("X2", "X3")): c23,
                frozenset(("X1", "X3")): c13,
            },
            means=dict(zip(("X1", "X2", "X3"), means)),
        ),
        ("X1", "X2", "X3"),
        zero_mean_tolerance=tol,
    )


def bell_correlations(c11, c12, c21, c22):
    return CorrelationSet(
        entries={
            frozenset(("A1", "B1")): c11,
            frozenset(("A1", "B2")): c12,
            frozenset(("A2", "B1")): c21,
            frozenset(("A2", "B2")): c22,
        }
    )


class TestChshValue:
    def test_all_zero(self):
        assert chsh_value(chsh_input(0, 0, 0, 0), 4) == 0.0

    def test_classical_point(self):
        assert chsh_value(chsh_input(1, 1, 1, 1), 4) == 2.0

    def test_tsirelson_attained_with_minus_on_fourth_term(self):
        # E = -cos(difference); angles chosen so the canonical placement
        # reaches -2*sqrt(2): a1=0, a2=pi/2, b1=pi/4, b2=-pi/4
        a1, a2, b1, b2 = 0.0, math.pi / 2, math.pi / 4, -math.pi / 4
        inp = chsh_input(
            singlet_correlation(a1, b1),
            singlet_correlation(a1, b2),
            singlet_correlation(a2, b1),
            singlet_correlation(a2, b2),
        )
        assert math.isclose(chsh_value(inp, 4), -2 * math.sqrt(2), abs_tol=1e-12)

    def test_bad_position(self):
        with pytest.raises(ContexcertError):
            chsh_value(chsh_input(0, 0, 0, 0), 5)

    def test_missing_pair(self):
        with pytest.raises(MissingPair):
            ChshInput(
                CorrelationSet(entries={frozenset(("A1", "B1")): 0.0}),
                ("A1", "A2"),
                ("B1", "B2"),
            )


class TestChshMax:
    def test_zero(self):
        assert chsh_max(chsh_input(0, 0, 0, 0)) == 0.0

    def test_pr_box_point(self):
        # enumerate by hand: minus on the fourth term gives 1+1+1+1 = 4
        assert chsh_max(chsh_input(1, 1, 1, -1)) == 4.0

    def test_tsirelson_angles(self):
        a1, a2, b1, b2 = 0.0, math.pi / 2, math.pi / 4, 3 * math.pi / 4
        inp = chsh_input(
            singlet_correlation(a1, b1),
            singlet_correlation(a1, b2),
            singlet_correlation(a2, b1),
            singlet_correlation(a2, b2),
        )
        assert math.isclose(chsh_max(inp), 2 * math.sqrt(2), abs_tol=1e-12)

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            c11, c12, c21, c22 = rng.uniform(-1, 1, 4)
            base = chsh_max(chsh_input(c11, c12, c21, c22))
            # swap A1 <-> A2
            assert chsh_max(chsh_input(c21, c22, c11, c12)) == base
            # swap B1 <-> B2
            assert chsh_max(chsh_input(c12, c11, c22, c21)) == base
            # swap blocks (transpose roles)
            assert chsh_max(chsh_input(c11, c21, c12, c22)) == base
            # flip the sign of A1
            assert chsh_max(chsh_input(-c11, -c12, c21, c22)) == base
            # flip the sign of B2
            assert chsh_max(chsh_input(c11, -c12, c21, -c22)) == base

    def test_quantum_ceiling_grid(self):
        # chsh_max over singlet correlations never exceeds 2*sqrt(2);
        # a global rotation fixes b1 = 0, the remaining three angles are
        # scanned on a grid, vectorized over (a1, b2) planes per a2 value
        step = 0.02
        grid = np.arange(0.0, 2 * math.pi, step)
        a1 = grid[:, None]
        b2 = grid[None, :]
        c11 = -np.cos(a1) + 0 * b2  # b1 = 0
        c12 = -np.cos(a1 - b2)
        best = 0.0
        for a2 in grid:
            c21 = -math.cos(a2)
            c22 = -np.cos(a2 - b2) + 0 * a1
            total = c11 + c12 + c21 + c22
            worst = np.abs(total - 2 * c11)
            np.maximum(worst, np.abs(total - 2 * c12), out=worst)
            np.maximum(worst, np.abs(total - 2 * c21), out=worst)
            np.maximum(worst, np.abs(total - 2 * c22), out=worst)
            best = max(best, float(worst.max()))
        assert best <= 2 * math.sqrt(2) + 1e-9
        assert best > 2 * math.sqrt(2) - 1e-3  # the grid does reach the ceiling


class TestChshTest:
    def test_boundary_rejected(self):
        v = chsh_test(chsh_input(1, 1, 1, 1), 0.0)
        assert v.statistic == 2.0
        assert v.outcome is Outcome.REJECTED_NONCONTEXTUAL
        assert v.margin == 0.0

    def test_tsirelson_passes(self):
        a1, a2, b1, b2 = 0.0, math.pi / 2, math.pi / 4, 3 * math.pi / 4
        inp = chsh_input(
            singlet_correlation(a1, b1),
            singlet_correlation(a1, b2),
            singlet_correlation(a2, b1),
            singlet_correlation(a2, b2),
        )
        v = chsh_test(inp, 0.01)
        assert v.outcome is Outcome.PASSED_CONTEXTUALITY_TEST
        assert math.isclose(v.margin, 2 * math.sqrt(2) - 2, abs_tol=1e-9)

    def test_all_zero_rejected(self):
        assert chsh_test(chsh_input(0, 0, 0, 0)).outcome is Outcome.REJECTED_NONCONTEXTUAL

    def test_ksigma_helper(self):
        inp = chsh_input(0.5, 0.5, 0.5, 0.5, ns=10_000)
        tol = chsh_ksigma(inp, 3.0)
        expected = 3.0 * math.sqrt(4 * (1 - 0.25) / 10_000)
        assert math.isclose(tol, expected, rel_tol=1e-12)
        with pytest.raises(MissingSampleSizes):
            chsh_ksigma(chsh_input(0.5, 0.5, 0.5, 0.5), 3.0)


class TestSzTest:
    def test_all_anticorrelated_passes(self):
        v = sz_test(triple_input(-1, -1, -1), 0.0)
        assert v.statistic == -3.0
        assert v.outcome is Outcome.PASSED_CONTEXTUALITY_TEST
        assert v.details["violated_side"] == "lower"

    def test_all_correlated_rejected(self):
        v = sz_test(triple_input(1, 1, 1), 0.0)
        assert v.statistic == 3.0
        assert v.details["upper_bound"] == 3.0
        assert v.outcome is Outcome.REJECTED_NONCONTEXTUAL

    def test_independent_rejected(self):
        v = sz_test(triple_input(0, 0, 0), 0.0)
        assert v.outcome is Outcome.REJECTED_NONCONTEXTUAL

    def test_upper_side_violation(self):
        # S = 0.9, min = -0.9 -> upper bound = -0.8 < S
        v = sz_test(triple_input(0.9, 0.9, -0.9), 0.0)
        assert v.outcome is Outcome.PASSED_CONTEXTUALITY_TEST
        assert v.details["violated_side"] == "upper"

    def test_zero_mean_gate(self):
        with pytest.raises(ZeroMeanViolated):
            sz_test(triple_input(0, 0, 0, means=(0.2, 0.0, 0.0)), 0.0)

    def test_zero_mean_gate_reads_every_context(self):
        # X1 has mean 0 in {X1, X2} but 0.5 in {X1, X3}; the first context
        # alone would pass the gate and report a violation
        ids = ("X1", "X2", "X3")
        scenario = Scenario(
            tuple(Observable(i) for i in ids),
            tuple(frozenset(p) for p in ((ids[0], ids[1]), (ids[1], ids[2]), (ids[0], ids[2]))),
        )
        rows = {
            ("X1", "X2"): [(1, -1), (-1, 1)],
            ("X2", "X3"): [(1, -1), (-1, 1)],
            ("X1", "X3"): [(1, -1), (1, -1), (1, -1), (-1, 1)],
        }
        ds = Dataset(scenario, [OutcomeRecord(s, r) for s, rs in rows.items() for r in rs])
        corr = correlation_set(ds, list(rows))
        assert corr.means["X1"] == 0.0
        triple = TripleInput(corr, ids, zero_mean_tolerance=0.05)
        with pytest.raises(ZeroMeanViolated):
            sz_test(triple, 0.0)
        with pytest.raises(ZeroMeanViolated):
            triple_jpd_feasible(triple)

    def test_bounds_helper(self):
        assert sz_bounds(0.5, -0.25, 0.0) == (-1.0, 0.5)


class TestOriginalBell:
    def test_aligned_deterministic_rejected(self):
        v = original_bell_test(bell_correlations(1, 1, 1, 1), delta=0.0)
        assert v.statistic == 1.0
        assert v.outcome is Outcome.REJECTED_NONCONTEXTUAL

    def test_constraint_unmet(self):
        with pytest.raises(CorrelationConstraintUnmet):
            original_bell_test(bell_correlations(1, 1, 0.5, 1), delta=0.01)

    def test_anti_branch_sign_bookkeeping(self):
        # singlet with a2 = b1: constraint pair at -1, statistic uses +c22
        a1, theta, b2 = 2 * math.pi / 3, 0.0, -2 * math.pi / 3
        corr = bell_correlations(
            singlet_correlation(a1, theta),
            singlet_correlation(a1, b2),
            singlet_correlation(theta, theta),
            singlet_correlation(theta, b2),
        )
        v = original_bell_test(corr, delta=1e-9)
        assert v.details["branch"] == "anti-correlation"
        assert math.isclose(v.statistic, 1.5, abs_tol=1e-12)
        assert v.outcome is Outcome.PASSED_CONTEXTUALITY_TEST

    def test_quantum_maximum_grid(self):
        best, angles = original_bell_singlet_maximum(step=0.02)
        assert abs(best - 1.5) < 1e-3
        a1, a2, b1, b2 = angles
        # the returned angles reproduce the claimed statistic
        corr = bell_correlations(
            singlet_correlation(a1, b1),
            singlet_correlation(a1, b2),
            singlet_correlation(a2, b1),
            singlet_correlation(a2, b2),
        )
        v = original_bell_test(corr, delta=1e-9)
        assert math.isclose(v.statistic, best, abs_tol=1e-12)

    def test_agrees_with_triple_condition_lower_side(self):
        # with the constraint pair exactly at +1, outcome must match the
        # lower side of the sign-flipped triple condition
        rng = np.random.default_rng(53)
        for _ in range(200):
            c11, c12, c22 = rng.uniform(-1, 1, 3)
            corr = bell_correlations(c11, c12, 1.0, c22)
            v = original_bell_test(corr, delta=0.0)
            flipped = v.details["sign_flipped_triple"]
            assert (v.outcome is Outcome.PASSED_CONTEXTUALITY_TEST) == flipped[
                "lower_side_violated"
            ]
            # one-directional implications against the full triple test
            tri = sz_test(triple_input(-c11, -c12, c22, tol=1.0), 0.0)
            if v.outcome is Outcome.PASSED_CONTEXTUALITY_TEST:
                assert tri.outcome is Outcome.PASSED_CONTEXTUALITY_TEST
            if tri.outcome is Outcome.REJECTED_NONCONTEXTUAL:
                assert v.outcome is Outcome.REJECTED_NONCONTEXTUAL

    def test_verdict_json(self):
        v = original_bell_test(bell_correlations(0.2, 0.1, 1.0, 0.3), delta=0.0)
        data = v.to_json()
        assert data["test"] == "bell-original"
        assert data["outcome"] == "rejected_noncontextual"
        assert data["details"]["constraint_pair"] == ["A2", "B1"]
