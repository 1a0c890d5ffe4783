import math
import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from contexcert.belltests import ChshInput, TripleInput, ZeroMeanViolated, chsh_max, sz_test
from contexcert.errors import ContexcertError
from contexcert.jpdoracle import (
    InconsistentConstraints,
    MarginalConstraintSystem,
    TooManyVariables,
    fine_equivalence_check,
    jpd_feasible,
    pair_table_from_correlation,
    quadrupole_system_from_chsh,
    triple_jpd_feasible,
    triple_system_from_correlations,
)
from contexcert.scenario import CorrelationSet, ProbTable, marginalize


def chsh_input(c11, c12, c21, c22):
    return ChshInput(
        CorrelationSet(
            entries={
                frozenset(("A1", "B1")): c11,
                frozenset(("A1", "B2")): c12,
                frozenset(("A2", "B1")): c21,
                frozenset(("A2", "B2")): c22,
            }
        ),
        ("A1", "A2"),
        ("B1", "B2"),
    )


def triple_input(c12, c23, c13, tol=1e-9):
    return TripleInput(
        CorrelationSet(
            entries={
                frozenset(("X1", "X2")): c12,
                frozenset(("X2", "X3")): c23,
                frozenset(("X1", "X3")): c13,
            },
            means={"X1": 0.0, "X2": 0.0, "X3": 0.0},
        ),
        ("X1", "X2", "X3"),
        zero_mean_tolerance=tol,
    )


def brute_force_triple_feasible(c12, c23, c13, grid=21):
    """Independent oracle: scan product-of-weights parameterization.

    A triple JPD over 8 atoms with uniform single marginals and the given
    pair correlations exists iff the 8 atom equations admit a nonnegative
    solution; atoms are determined by one free parameter t = E[X1 X2 X3]:
    p(x) = (1 + c12 x1 x2 + c23 x2 x3 + c13 x1 x3 + t x1 x2 x3) / 8.
    """
    for t in np.linspace(-1, 1, grid):
        ok = True
        for x1, x2, x3 in product((1, -1), repeat=3):
            p = (1 + c12 * x1 * x2 + c23 * x2 * x3 + c13 * x1 * x3 + t * x1 * x2 * x3) / 8
            if p < -1e-12:
                ok = False
                break
        if ok:
            return True
    return False


class TestPairTable:
    def test_zero_mean_and_correlation(self):
        t = pair_table_from_correlation(("X", "Y"), 0.6)
        assert math.isclose(t.prob((1, 1)), 0.4)
        assert math.isclose(t.prob((1, -1)), 0.1)
        assert math.isclose(marginalize(t, ("X",)).prob((1,)), 0.5)

    def test_exact(self):
        t = pair_table_from_correlation(("X", "Y"), Fraction(3, 5), exact=True)
        assert t.is_exact
        assert t.prob((1, 1)) == Fraction(2, 5)

    def test_out_of_range(self):
        with pytest.raises(ContexcertError):
            pair_table_from_correlation(("X", "Y"), 1.5)


class TestJpdFeasible:
    def test_identity_pair_witness(self):
        table = pair_table_from_correlation(("A", "B"), 0.3)
        system = MarginalConstraintSystem(("A", "B"), ((("A", "B"), table),))
        res = jpd_feasible(system)
        assert res.feasible
        for cell in table.cells():
            assert math.isclose(res.witness.prob(cell), table.prob(cell), abs_tol=1e-9)

    def test_all_anticorrelated_triple_infeasible(self):
        res = jpd_feasible(triple_system_from_correlations(-1.0, -1.0, -1.0))
        assert res.status == "infeasible"
        # brute force over all 8 atoms confirms no solution exists
        assert not brute_force_triple_feasible(-1, -1, -1, grid=201)

    def test_tsirelson_quadrupole_infeasible(self):
        r = math.sqrt(2) / 2
        inp = chsh_input(-r, r, -r, -r)
        assert chsh_max(inp) > 2
        res = jpd_feasible(quadrupole_system_from_chsh(inp))
        assert res.status == "infeasible"
        assert res.certificate is not None

    def test_witness_soundness(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            c = rng.uniform(-0.4, 0.4, 4)  # comfortably feasible region
            inp = chsh_input(*c)
            system = quadrupole_system_from_chsh(inp)
            res = jpd_feasible(system)
            assert res.feasible
            for sup, table in system.constraints:
                marg = marginalize(res.witness, sup)
                for cell in table.cells():
                    assert abs(float(marg.prob(cell)) - float(table.prob(cell))) < 1e-9

    def test_certificate_soundness(self):
        rng = np.random.default_rng(13)
        found = 0
        while found < 20:
            c = rng.uniform(-1, 1, 4)
            inp = chsh_input(*c)
            if chsh_max(inp) <= 2.05:
                continue
            found += 1
            system = quadrupole_system_from_chsh(inp)
            res = jpd_feasible(system)
            assert res.status == "infeasible"
            cert = res.certificate
            # recompute value and bound independently from the system data
            value = float(cert.normalization_coeff)
            for ci, cell, coeff in cert.cell_coeffs:
                value += coeff * float(system.constraints[ci][1].prob(cell))
            bound = -math.inf
            for atom in product((1, -1), repeat=4):
                s = float(cert.normalization_coeff)
                for ci, cell, coeff in cert.cell_coeffs:
                    sup = system.constraints[ci][0]
                    idx = tuple(system.variables.index(o) for o in sup)
                    if tuple(atom[i] for i in idx) == cell:
                        s += coeff
                bound = max(bound, s)
            assert value - bound >= 1e-9
            assert math.isclose(value, cert.value, abs_tol=1e-9)
            assert math.isclose(bound, cert.bound, abs_tol=1e-9)

    def test_signaling_precheck(self):
        t1 = ProbTable(("A", "B"), {(1, 1): 0.5, (-1, -1): 0.5}, ((1, -1), (1, -1)))
        t2 = ProbTable(("A", "C"), {(1, 1): 0.8, (-1, -1): 0.2}, ((1, -1), (1, -1)))
        system = MarginalConstraintSystem(
            ("A", "B", "C"), ((("A", "B"), t1), (("A", "C"), t2))
        )
        with pytest.raises(InconsistentConstraints):
            jpd_feasible(system)

    def test_exact_signaling_precheck_compares_exactly(self):
        # the A marginals differ by 1/10**10, below the float precheck's 1e-9
        eps = Fraction(1, 10**10)
        half = Fraction(1, 2)
        t1 = ProbTable(("A", "B"), {(1, 1): half, (-1, -1): half}, ((1, -1), (1, -1)))
        t2 = ProbTable(("A", "C"), {(1, 1): half + eps, (-1, -1): half - eps}, ((1, -1), (1, -1)))
        system = MarginalConstraintSystem(
            ("A", "B", "C"), ((("A", "B"), t1), (("A", "C"), t2))
        )
        with pytest.raises(InconsistentConstraints, match="marginal of A"):
            jpd_feasible(system, exact=True)
        # float mode keeps its tolerances: the residual 1e-10 counts as feasible
        assert jpd_feasible(system).feasible

    @staticmethod
    def _triple_tables(corr_abc, corr_abd):
        """Tables on (A,B,C) and (A,B,D): uniform single marginals, the given
        A-B correlations, C and D independent of A and B."""
        def table(support, corr):
            probs = {cell: (1 + corr * cell[0] * cell[1]) / 8 for cell in product((1, -1), repeat=3)}
            return support, ProbTable(support, probs, ((1, -1),) * 3)

        return MarginalConstraintSystem(
            ("A", "B", "C", "D"), (table(("A", "B", "C"), corr_abc), table(("A", "B", "D"), corr_abd))
        )

    @pytest.mark.parametrize("exact", [False, True])
    def test_precheck_compares_a_shared_pair_marginal(self, exact):
        half = Fraction(1, 2) if exact else 0.5
        with pytest.raises(InconsistentConstraints, match="marginal of A,B beyond"):
            jpd_feasible(self._triple_tables(half, -half), exact=exact)

    def test_shared_pair_marginal_within_float_tolerance(self):
        # the A-B marginals differ by 2.5e-11 per cell, below the float precheck's 1e-9
        assert jpd_feasible(self._triple_tables(0.5, 0.5 + 1e-10)).feasible
        eps = Fraction(1, 10**10)
        with pytest.raises(InconsistentConstraints, match="marginal of A,B"):
            jpd_feasible(self._triple_tables(Fraction(1, 2), Fraction(1, 2) + eps), exact=True)

    def test_too_many_variables(self):
        ids = tuple(f"V{i}" for i in range(13))
        table = pair_table_from_correlation((ids[0], ids[1]), 0.0)
        system = MarginalConstraintSystem(ids, (((ids[0], ids[1]), table),))
        with pytest.raises(TooManyVariables):
            jpd_feasible(system)


class TestTripleJpd:
    def test_uncorrelated_feasible(self):
        # the uniform table is one witness; the solver may return any vertex,
        # so assert witness validity rather than a particular table
        res = triple_jpd_feasible(triple_input(0.0, 0.0, 0.0))
        assert res.feasible
        for pair in (("X1", "X2"), ("X2", "X3"), ("X1", "X3")):
            marg = marginalize(res.witness, pair)
            for cell in marg.cells():
                assert abs(float(marg.prob(cell)) - 0.25) < 1e-9

    def test_all_minus_one(self):
        assert triple_jpd_feasible(triple_input(-1.0, -1.0, -1.0)).status == "infeasible"

    def test_all_plus_one(self):
        res = triple_jpd_feasible(triple_input(1.0, 1.0, 1.0))
        assert res.feasible
        assert math.isclose(float(res.witness.prob((1, 1, 1))), 0.5, abs_tol=1e-9)
        assert math.isclose(float(res.witness.prob((-1, -1, -1))), 0.5, abs_tol=1e-9)

    def test_zero_mean_precondition(self):
        bad = TripleInput(
            CorrelationSet(
                entries={
                    frozenset(("X1", "X2")): 0.0,
                    frozenset(("X2", "X3")): 0.0,
                    frozenset(("X1", "X3")): 0.0,
                },
                means={"X1": 0.4, "X2": 0.0, "X3": 0.0},
            ),
            ("X1", "X2", "X3"),
            zero_mean_tolerance=0.01,
        )
        with pytest.raises(ZeroMeanViolated):
            triple_jpd_feasible(bad)

    def test_zero_mean_gate_shared_with_sz_test(self):
        biased = TripleInput(
            CorrelationSet(
                entries={frozenset(p): 0.1 for p in (("X1", "X2"), ("X2", "X3"), ("X1", "X3"))},
                means={"X1": 0.0, "X2": -0.3, "X3": 0.0},
            ),
            ("X1", "X2", "X3"),
            zero_mean_tolerance=0.05,
        )
        with pytest.raises(ZeroMeanViolated) as from_sz:
            sz_test(biased)
        with pytest.raises(ZeroMeanViolated) as from_oracle:
            triple_jpd_feasible(biased)
        assert str(from_oracle.value) == str(from_sz.value)
        assert "the triple condition does not apply" in str(from_oracle.value)

    def test_matches_bruteforce_on_random_triples(self):
        rng = np.random.default_rng(19)
        for _ in range(60):
            c = rng.uniform(-1, 1, 3)
            lp = triple_jpd_feasible(triple_input(*c)).feasible
            brute = brute_force_triple_feasible(*c, grid=4001)
            assert lp == brute, f"mismatch at {c}"


class TestFineEquivalence:
    def test_pr_box_point(self):
        inp = chsh_input(1.0, 1.0, 1.0, -1.0)
        assert chsh_max(inp) == 4.0
        assert fine_equivalence_check(inp)

    def test_origin(self):
        assert fine_equivalence_check(chsh_input(0.0, 0.0, 0.0, 0.0))

    def test_random_points(self):
        rng = np.random.default_rng(29)
        for _ in range(300):
            assert fine_equivalence_check(chsh_input(*rng.uniform(-1, 1, 4)))

    def test_monotone_scaling_preserves_feasibility(self):
        rng = np.random.default_rng(37)
        for _ in range(40):
            c = rng.uniform(-1, 1, 4)
            inp = chsh_input(*c)
            if not jpd_feasible(quadrupole_system_from_chsh(inp)).feasible:
                continue
            t = rng.random()
            shrunk = chsh_input(*(t * c))
            assert jpd_feasible(quadrupole_system_from_chsh(shrunk)).feasible


class TestExactMode:
    def test_exact_grid_spots(self):
        grid = [Fraction(k, 10) for k in range(-10, 11, 5)]
        for c11 in grid:
            for c12 in grid:
                inp_vals = (c11, c12, Fraction(1, 2), Fraction(-3, 10))
                system = MarginalConstraintSystem(
                    ("A1", "A2", "B1", "B2"),
                    tuple(
                        (pair, pair_table_from_correlation(pair, v, exact=True))
                        for pair, v in zip(
                            (("A1", "B1"), ("A1", "B2"), ("A2", "B1"), ("A2", "B2")),
                            inp_vals,
                        )
                    ),
                )
                res = jpd_feasible(system, exact=True)
                float_inp = chsh_input(*(float(v) for v in inp_vals))
                violated = chsh_max(float_inp) > 2
                assert res.feasible == (not violated)
                if res.feasible:
                    # exact witness marginals reproduce cells exactly
                    for sup, table in system.constraints:
                        marg = marginalize(res.witness, sup)
                        for cell in table.cells():
                            assert marg.prob(cell) == table.prob(cell)

    def test_rejects_table_not_summing_to_one(self):
        # within NORMALIZATION_TOL, so ProbTable accepts it; the dropped last
        # cell would otherwise let the witness miss the (-1,-1) cell
        table = pair_table_from_correlation(("X1", "X2"), Fraction(1, 2), exact=True)
        probs = dict(table.probs)
        probs[(-1, -1)] += Fraction(1, 2 * 10**12)
        bad = ProbTable(("X1", "X2"), probs, table.alphabets)
        system = MarginalConstraintSystem(("X1", "X2"), ((("X1", "X2"), bad),))
        with pytest.raises(ContexcertError, match="constraint 0 over X1,X2"):
            jpd_feasible(system, exact=True)


def cycle_system(correlations, exact):
    """Zero-mean pair tables on the cycle X1-X2-...-Xn-X1."""
    n = len(correlations)
    ids = tuple(f"X{i + 1}" for i in range(n))
    pairs = [(ids[i], ids[(i + 1) % n]) for i in range(n)]
    return MarginalConstraintSystem(
        ids,
        tuple(
            (pair, pair_table_from_correlation(pair, c, exact))
            for pair, c in zip(pairs, correlations)
        ),
    )


def s_odd(values):
    """max of sum(s_i * v_i) over sign vectors with an odd number of -1's."""
    return max(
        sum(s * v for s, v in zip(signs, values))
        for signs in product((1, -1), repeat=len(values))
        if signs.count(-1) % 2
    )


def boundary_cycle(rng, n):
    """A 1/10-grid cycle with s_odd exactly n - 2."""
    while True:
        signs = [rng.choice((1, -1)) for _ in range(n - 1)]
        signs.append(-1 if signs.count(-1) % 2 == 0 else 1)
        head = [Fraction(rng.randint(-10, 10), 10) for _ in range(n - 1)]
        last = signs[-1] * ((n - 2) - sum(s * c for s, c in zip(signs, head)))
        corr = (*head, last)
        if abs(last) <= 1 and s_odd(corr) == n - 2:
            return corr


def witness_marginal(witness, variables, sup, cell):
    idx = [variables.index(v) for v in sup]
    return sum(p for atom, p in witness.probs.items() if tuple(atom[i] for i in idx) == cell)


def certificate_over_atoms(system, cert):
    """(value on the data, max over all 2^n atoms), recomputed in Fractions
    from the certificate's coefficients; Fraction(float) is exact."""
    value = Fraction(cert.normalization_coeff) + sum(
        Fraction(c) * Fraction(system.constraints[ci][1].prob(cell))
        for ci, cell, c in cert.cell_coeffs
    )
    bound = max(
        Fraction(cert.normalization_coeff)
        + sum(
            Fraction(c)
            for ci, cell, c in cert.cell_coeffs
            if tuple(atom[system.variables.index(v)] for v in system.constraints[ci][0]) == cell
        )
        for atom in product((1, -1), repeat=len(system.variables))
    )
    return value, bound


class TestCycleResultsIndependently:
    """Every result checked without the solver: the decision against
    s_odd(c) <= n - 2 (Araujo et al., PRA 88, 022118), witnesses by summing
    atoms, certificates by evaluating them over every atom."""

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_exact_cycles(self, n):
        rng = random.Random(40 + n)
        cycles = [tuple(Fraction(rng.randint(-10, 10), 10) for _ in range(n)) for _ in range(40)]
        cycles += [boundary_cycle(rng, n) for _ in range(20)]
        for corr in cycles:
            system = cycle_system(corr, exact=True)
            res = jpd_feasible(system, exact=True)
            assert res.feasible == (s_odd(corr) <= n - 2), corr
            if res.feasible:
                for sup, table in system.constraints:
                    for cell in table.cells():
                        got = witness_marginal(res.witness, system.variables, sup, cell)
                        assert got == table.prob(cell)
            else:
                cert = res.certificate
                value, bound = certificate_over_atoms(system, cert)
                assert (value, bound) == (cert.value, cert.bound)
                assert value > bound

    def test_float_certificates_separate_exactly(self):
        rng = np.random.default_rng(2024)
        for k in range(300):
            n = 3 + k % 3
            corr = rng.uniform(-1, 1, n)
            system = cycle_system(corr, exact=False)
            res = jpd_feasible(system)
            assert res.feasible == (s_odd(corr) <= n - 2), corr
            if res.feasible:
                for sup, table in system.constraints:
                    for cell in table.cells():
                        got = witness_marginal(res.witness, system.variables, sup, cell)
                        assert abs(got - table.prob(cell)) <= 1e-9
            else:
                value, bound = certificate_over_atoms(system, res.certificate)
                assert value > bound, corr


class TestNumberTypes:
    """Witness and certificate entries are Fractions in exact mode and
    Python floats (never numpy scalars) in float mode."""

    @pytest.mark.parametrize("exact, number", [(True, Fraction), (False, float)])
    @pytest.mark.parametrize(
        "corr, feasible",
        [
            ((0, 0, 0), True),
            ((-1, -1, -1), False),
            ((Fraction(1, 2), 0, Fraction(-1, 2), Fraction(1, 10)), True),
            ((1, 1, 1, -1), False),
        ],
    )
    def test_entries_follow_mode(self, exact, number, corr, feasible):
        res = jpd_feasible(cycle_system(corr, exact), exact=exact)
        assert res.feasible == feasible
        if feasible:
            entries = list(res.witness.probs.values())
        else:
            cert = res.certificate
            entries = [cert.normalization_coeff, cert.value, cert.bound]
            entries += [c for _, _, c in cert.cell_coeffs]
        assert entries
        assert all(type(v) is number for v in entries), [type(v) for v in entries]
