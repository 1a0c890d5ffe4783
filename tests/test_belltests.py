import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contexcert.belltests import (
    ChshInput,
    CorrelationConstraintUnmet,
    MissingPair,
    MissingSampleSizes,
    Outcome,
    TestVerdict as _TestVerdict,
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
from contexcert.scenario import (
    CorrelationSet,
    Dataset,
    Observable,
    OutcomeRecord,
    Scenario,
    correlation_set,
)
from contexcert.suite import triple_jpd_feasible

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


# ------------------------------------------------------------ references
# The three tests as they were before they shared _verdict, _require_pairs
# and require_nonnegative: each wrote its own polarity, pair loop and
# tolerance check.  The new tests must give the same verdict JSON.


def _reference_chsh_value(chsh, sign_position=4):
    values = chsh.term_values()
    return math.fsum(-v if i + 1 == sign_position else v for i, v in enumerate(values))


def _reference_chsh_test(chsh, tolerance=0.0):
    if tolerance < 0:
        raise ContexcertError("tolerance must be >= 0")
    statistic = max(abs(_reference_chsh_value(chsh, k)) for k in (1, 2, 3, 4))
    violated = statistic > 2.0 + tolerance
    details = {
        "term_pairs": [list(p) for p in chsh.term_pairs],
        "term_values": list(chsh.term_values()),
        "values_by_sign_position": {
            str(k): _reference_chsh_value(chsh, k) for k in (1, 2, 3, 4)
        },
        "tolerance": tolerance,
    }
    return _TestVerdict(
        test_name="chsh",
        statistic=statistic,
        bound=2.0,
        outcome=Outcome.PASSED_CONTEXTUALITY_TEST if violated else Outcome.REJECTED_NONCONTEXTUAL,
        margin=statistic - 2.0,
        details=details,
    )


def _reference_sz_test(triple, tolerance=0.0):
    if tolerance < 0:
        raise ContexcertError("tolerance must be >= 0")
    worst_mean = triple.require_zero_mean()
    values = triple.pair_values()
    statistic = math.fsum(values)
    lower, upper = sz_bounds(*values)
    over = statistic - upper
    under = lower - statistic
    margin = max(over, under)
    violated = margin > tolerance
    bound = upper if over >= under else lower
    details = {
        "pairs": [list(p) for p in triple.pairs],
        "correlations": list(values),
        "lower_bound": lower,
        "upper_bound": upper,
        "violated_side": ("upper" if over >= under else "lower") if violated else None,
        "max_abs_mean": worst_mean,
        "tolerance": tolerance,
    }
    return _TestVerdict(
        test_name="suppes-zanotti",
        statistic=statistic,
        bound=bound,
        outcome=Outcome.PASSED_CONTEXTUALITY_TEST if violated else Outcome.REJECTED_NONCONTEXTUAL,
        margin=margin,
        details=details,
    )


def _reference_original_bell_test(
    correlations, a1="A1", a2="A2", b1="B1", b2="B2", delta=0.01, tolerance=0.0
):
    if tolerance < 0:
        raise ContexcertError("tolerance must be >= 0")
    if delta < 0:
        raise ContexcertError("delta must be >= 0")
    for pair in ((a1, b1), (a1, b2), (a2, b2), (a2, b1)):
        if not correlations.has_pair(*pair):
            raise MissingPair(f"missing correlation for pair {pair}")

    constraint_value = correlations.value(a2, b1)
    if constraint_value >= 1.0 - delta:
        branch = "correlation"
        sign = 1.0
    elif constraint_value <= -1.0 + delta:
        branch = "anti-correlation"
        sign = -1.0
    else:
        raise CorrelationConstraintUnmet(
            f"<{a2} {b1}> = {constraint_value:g} is not within {delta:g} of +-1; "
            "the derivation's crucial condition fails"
        )

    c11 = correlations.value(a1, b1)
    c12 = correlations.value(a1, b2)
    c22 = correlations.value(a2, b2)
    statistic = c11 + c12 - sign * c22
    violated = statistic > 1.0 + tolerance

    flipped = (-c11, -c12, sign * c22)
    f_sum = math.fsum(flipped)
    f_lower, f_upper = sz_bounds(*flipped)
    details = {
        "constraint_pair": [a2, b1],
        "constraint_value": constraint_value,
        "constraint_note": (
            "the inequality itself does not use this pair, but checking the "
            "precise-correlation condition requires its joint table"
        ),
        "delta": delta,
        "branch": branch,
        "terms": {
            f"{a1},{b1}": c11,
            f"{a1},{b2}": c12,
            f"{a2},{b2}": c22,
        },
        "sign_flipped_triple": {
            "correlations": list(flipped),
            "sum": f_sum,
            "lower_bound": f_lower,
            "upper_bound": f_upper,
            "lower_side_violated": f_sum < f_lower - tolerance,
            "upper_side_violated": f_sum > f_upper + tolerance,
        },
        "tolerance": tolerance,
    }
    return _TestVerdict(
        test_name="bell-original",
        statistic=statistic,
        bound=1.0,
        outcome=Outcome.PASSED_CONTEXTUALITY_TEST if violated else Outcome.REJECTED_NONCONTEXTUAL,
        margin=statistic - 1.0,
        details=details,
    )


# the 1/20 grid, the boundary values and uniform floats, all within
# CorrelationSet's [-1 - 1e-12, 1 + 1e-12]
correlations_ = st.one_of(
    st.integers(-20, 20).map(lambda k: k / 20),
    st.sampled_from([-1.0, 1.0, 0.0, -0.0, 1 + 1e-12, -1 - 1e-12, 1 - 2**-53, 0.5]),
    st.floats(-1.0, 1.0),
)
tolerances_ = st.sampled_from([0.0, 1e-9, 0.05])


def _outcome(run):
    try:
        return run().to_json()
    except ContexcertError as exc:
        return type(exc), str(exc)


class TestOneVerdictPath:
    """The three tests against their references: the same verdict JSON, and
    PASSED exactly when the test's own inequality expression holds."""

    @settings(max_examples=300, deadline=None)
    @given(c=st.tuples(*[correlations_] * 4), tolerance=tolerances_)
    def test_chsh(self, c, tolerance):
        inp = chsh_input(*c)
        verdict = chsh_test(inp, tolerance)
        assert verdict.to_json() == _reference_chsh_test(inp, tolerance).to_json()
        passed = verdict.outcome is Outcome.PASSED_CONTEXTUALITY_TEST
        assert passed == (chsh_max(inp) > 2.0 + tolerance)

    @settings(max_examples=300, deadline=None)
    @given(c=st.tuples(*[correlations_] * 3), tolerance=tolerances_)
    def test_sz(self, c, tolerance):
        inp = triple_input(*c)
        verdict = sz_test(inp, tolerance)
        assert verdict.to_json() == _reference_sz_test(inp, tolerance).to_json()
        statistic = math.fsum(c)
        lower, upper = sz_bounds(*c)
        passed = verdict.outcome is Outcome.PASSED_CONTEXTUALITY_TEST
        assert passed == (max(statistic - upper, lower - statistic) > tolerance)

    @settings(max_examples=300, deadline=None)
    @given(
        c=st.tuples(correlations_, correlations_, correlations_),
        constraint=st.one_of(correlations_, st.sampled_from([1.0, -1.0, 0.995, -0.995])),
        delta=st.sampled_from([0.0, 0.01, 0.05]),
        tolerance=tolerances_,
    )
    def test_original_bell(self, c, constraint, delta, tolerance):
        c11, c12, c22 = c
        corr = bell_correlations(c11, c12, constraint, c22)
        run = lambda test: lambda: test(corr, delta=delta, tolerance=tolerance)  # noqa: E731
        result = _outcome(run(original_bell_test))
        assert result == _outcome(run(_reference_original_bell_test))
        if isinstance(result, dict):
            sign = 1.0 if constraint >= 1.0 - delta else -1.0
            passed = result["outcome"] == Outcome.PASSED_CONTEXTUALITY_TEST.value
            assert passed == (c11 + c12 - sign * c22 > 1.0 + tolerance)


NON_FINITE = [math.nan, math.inf, -math.inf]


class TestNumbersRefused:
    @pytest.mark.parametrize("tolerance", NON_FINITE + [-0.1])
    def test_tolerance_on_every_test(self, tolerance):
        with pytest.raises(ContexcertError, match="tolerance must be finite and >= 0"):
            chsh_test(chsh_input(1, 1, 1, -1), tolerance)
        with pytest.raises(ContexcertError, match="tolerance must be finite and >= 0"):
            sz_test(triple_input(-1, -1, -1), tolerance)
        with pytest.raises(ContexcertError, match="tolerance must be finite and >= 0"):
            original_bell_test(bell_correlations(1, 1, 1, -1), delta=0.0, tolerance=tolerance)

    @pytest.mark.parametrize("delta", [math.nan, math.inf, -0.1])
    def test_delta(self, delta):
        with pytest.raises(ContexcertError, match="delta must be finite and >= 0"):
            original_bell_test(bell_correlations(1, 1, 1, -1), delta=delta)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -0.1])
    def test_zero_mean_tolerance(self, tol):
        # a NaN tolerance once let a triple with |mean| 0.9 through the gate
        with pytest.raises(ContexcertError, match="zero_mean_tolerance must be finite and >= 0"):
            triple_input(-1, -1, -1, means=(0.9, 0.0, 0.0), tol=tol)

    def test_missing_pair_names_the_pair(self):
        corr = CorrelationSet(entries={frozenset(("A1", "B1")): 0.0})
        with pytest.raises(MissingPair, match=r"^missing correlation for pair \(A1, B2\)$"):
            original_bell_test(corr)
