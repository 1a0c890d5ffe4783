import ast
import math
import random
import re
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import contexcert.jpdoracle
from contexcert.belltests import ChshInput, TripleInput, ZeroMeanViolated, chsh_max, sz_test
from contexcert.errors import ContexcertError
from contexcert.jpdoracle import (
    SIGNALING_PRECHECK_TOL,
    InconsistentConstraints,
    MarginalConstraintSystem,
    TooManyVariables,
    jpd_feasible,
    pair_table_from_correlation,
    zero_mean_system,
    _lp_pattern,
)
from contexcert.scenario import CorrelationSet, ProbTable, marginalize
from contexcert.suite import fine_equivalence_check, quadrupole_system_from_chsh, triple_jpd_feasible


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

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("corr", [math.nan, math.inf, -math.inf, np.float64("nan")])
    def test_non_finite(self, corr, exact):
        # exact mode used to raise a bare OverflowError or ValueError, float
        # mode to refuse NaN only through the table's cell check
        with pytest.raises(ContexcertError, match=rf"^non-finite correlation {re.escape(repr(corr))}$"):
            pair_table_from_correlation(("X", "Y"), corr, exact)

    @pytest.mark.parametrize("corr", [-1, Fraction(-7, 10), 0, Fraction(1, 3), Fraction(9, 10), 1])
    def test_cells(self, corr):
        # exact cells are (1 + a*b*corr) / 4 as Fractions; float cells are
        # bit for bit 0.25 * (1 + a*b*corr)
        exact = pair_table_from_correlation(("X", "Y"), corr, exact=True)
        table = pair_table_from_correlation(("X", "Y"), float(corr))
        for a, b in product((1, -1), repeat=2):
            assert exact.probs[a, b] == Fraction(1, 4) * (1 + a * b * Fraction(corr))
            assert type(exact.probs[a, b]) is Fraction
            assert table.probs[a, b].hex() == (0.25 * (1 + a * b * float(corr))).hex()


class TestJpdFeasible:
    def test_identity_pair_witness(self):
        table = pair_table_from_correlation(("A", "B"), 0.3)
        system = MarginalConstraintSystem(("A", "B"), ((("A", "B"), table),))
        res = jpd_feasible(system)
        assert res.feasible
        for cell in table.cells():
            assert math.isclose(res.witness.prob(cell), table.prob(cell), abs_tol=1e-9)

    def test_all_anticorrelated_triple_infeasible(self):
        triple = ("X1", "X2", "X3")
        pairs = (("X1", "X2"), ("X2", "X3"), ("X1", "X3"))
        res = jpd_feasible(zero_mean_system(triple, pairs, (-1.0, -1.0, -1.0)))
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

    def test_exact_certificate_when_last_cells_carry_their_own_denominator(self):
        # P(X_i = 1) = 1/2, 1/3, 1/2 and no two are +1 together, which needs
        # 4/3 of probability; each table's last cell, (-1, -1), is the only
        # cell with denominator 6, and the LP drops it as implied
        half, third, sixth = Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)
        cells = {
            ("X1", "X2"): (0, half, third, sixth),
            ("X2", "X3"): (0, third, half, sixth),
            ("X1", "X3"): (0, half, half, 0),
        }
        tables = {
            pair: ProbTable(pair, dict(zip(product((1, -1), repeat=2), map(Fraction, ps))), ((1, -1),) * 2)
            for pair, ps in cells.items()
        }
        system = MarginalConstraintSystem(("X1", "X2", "X3"), tuple(tables.items()))
        res = jpd_feasible(system, exact=True)
        assert res.status == "infeasible"
        cert = res.certificate
        value, bound = certificate_over_atoms(system, cert)
        assert (value, bound) == (cert.value, cert.bound)
        assert type(cert.value) is Fraction and cert.value > cert.bound
        assert res.slack == cert.slack == float(value - bound)

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


def bit_lp_pattern(n, supports):
    """The oracle's pattern before it numbered cells with ``cell_index``, kept as
    the reference: atom j gives variable i the value +1 when bit (n-1-i) of j
    is 0, and a table's cell numbers read its support's bits the same way."""
    n_atoms = 1 << n
    atoms = np.arange(n_atoms)
    bits = (atoms[None, :] >> (n - 1 - np.arange(n)[:, None])) & 1  # (n, n_atoms)
    rows = [np.ones(n_atoms)]
    row_cells = [None]
    for ci, sup in enumerate(supports):
        k = len(sup)
        cell_idx = np.zeros(n_atoms, dtype=np.int64)
        for i in sup:
            cell_idx = (cell_idx << 1) | bits[i]
        for c in range((1 << k) - 1):
            rows.append((cell_idx == c).astype(np.float64))
            cell = tuple(1 if ((c >> (k - 1 - t)) & 1) == 0 else -1 for t in range(k))
            row_cells.append((ci, cell))
    return np.asarray(rows), tuple(row_cells)


def bit_atom_outcomes(n, j):
    return tuple(1 if ((j >> (n - 1 - i)) & 1) == 0 else -1 for i in range(n))


class TestPatternNumbering:
    """``_lp_pattern`` numbers atoms and cells with ``cell_index``; the numbers
    are those of the bit rule it replaced, so the LP is the same LP."""

    CASES = [(n, tuple((i, (i + 1) % n) for i in range(n))) for n in (3, 4, 5, 6)]
    CASES += [(4, ((0, 1, 2), (0, 1, 3))), (12, ((3, 7),)), (12, ((7, 3),))]

    @pytest.mark.parametrize("n, supports", CASES)
    def test_matches_the_bit_numbering(self, n, supports):
        A, A_int, row_cells, atoms, *_ = _lp_pattern(n, supports)
        ref_A, ref_row_cells = bit_lp_pattern(n, supports)
        assert A.dtype == ref_A.dtype and np.array_equal(A, ref_A)
        assert [list(row) for row in A_int] == ref_A.astype(np.int64).tolist()
        assert row_cells == ref_row_cells
        assert atoms == tuple(bit_atom_outcomes(n, j) for j in range(1 << n))

    def test_shared_sets(self):
        # singles in first-appearance order, then the shared pairs and larger sets;
        # each set cell has one sum per table with the set, side by side
        *_, n_sums, plan, shared = _lp_pattern(4, ((0, 1, 2), (1, 0, 3), (3, 2)))
        assert shared == (((0,), 0, 4, 2), ((1,), 4, 8, 2), ((2,), 8, 12, 2), ((3,), 12, 16, 2), ((0, 1), 16, 24, 2))
        assert n_sums == 24
        # the A,B cells of (A,B,C)'s cells 0..7, then of (B,A,D)'s, numbered from 8
        abc, bad = (0, 0, 1, 1, 2, 2, 3, 3), (0, 0, 2, 2, 1, 1, 3, 3)
        expected = [(16 + 2 * m, c) for c, m in enumerate(abc)] + [(17 + 2 * m, 8 + c) for c, m in enumerate(bad)]
        assert [pair for pair in plan if pair[0] >= 16] == expected


@st.composite
def shared_marginal_systems(draw):
    """2-4 tables over 3-5 variables, each the marginal of one global table,
    some then moved by +-d on the cells of one parity pattern: d times the
    product of the values at 1-3 positions, the other values held fixed, so
    that exactly the marginals of sets holding those positions change."""
    n = draw(st.integers(3, 5))
    variables = tuple("ABCDE"[:n])
    weights = draw(st.lists(st.integers(0, 5), min_size=2**n, max_size=2**n).filter(any))
    atoms = product((1, -1), repeat=n)
    probs = {atom: Fraction(w, sum(weights)) for atom, w in zip(atoms, weights) if w}
    whole = ProbTable(variables, probs, ((1, -1),) * n)
    tables = []
    for _ in range(draw(st.integers(2, 4))):
        sup = draw(st.permutations(variables))[: draw(st.integers(1, min(n, 4)))]
        table = marginalize(whole, sup)
        probs = {cell: table.prob(cell) for cell in product((1, -1), repeat=len(sup))}
        if draw(st.booleans()):
            moved = draw(st.permutations(range(len(sup))))[: draw(st.integers(1, min(len(sup), 3)))]
            fixed = draw(st.sampled_from(sorted(probs)))
            cells = {c: math.prod(c[i] for i in moved) for c in probs
                     if all(c[i] == fixed[i] for i in range(len(sup)) if i not in moved)}
            d = min([Fraction(draw(st.integers(1, 3)), 1000)] + [probs[c] for c, s in cells.items() if s < 0])
            for c, sign in cells.items():
                probs[c] += sign * d
        tables.append((sup, probs))
    return variables, tables


class TestSharedMarginalCheck:
    """The oracle refuses a system exactly when ``marginalize`` finds a shared
    variable set, a variable in two tables or two supports' common part, on
    which two tables' marginals differ; the message names such a set.  Float
    differences are 0 (up to rounding) or at least 1e-3, far from 1e-9."""

    @pytest.mark.parametrize("exact", [False, True])
    @settings(max_examples=200, deadline=None)
    @given(drawn=shared_marginal_systems())
    def test_refuses_exactly_the_disagreeing_systems(self, exact, drawn):
        variables, drawn_tables = drawn
        number = Fraction if exact else float
        system = MarginalConstraintSystem(variables, tuple(
            (sup, ProbTable(sup, {c: number(p) for c, p in probs.items() if p}, ((1, -1),) * len(sup)))
            for sup, probs in drawn_tables
        ))
        supports = [set(sup) for sup, _ in system.constraints]
        shared = {(v,) for v in variables if sum(v in s for s in supports) > 1}
        shared |= {tuple(v for v in variables if v in s & t)
                   for i, s in enumerate(supports) for t in supports[i + 1 :] if len(s & t) > 1}
        tol = 0 if exact else SIGNALING_PRECHECK_TOL
        differing = set()
        for keep in shared:
            marginals = [marginalize(table, keep) for sup, table in system.constraints if set(keep) <= set(sup)]
            for cell in product((1, -1), repeat=len(keep)):
                values = [m.prob(cell) for m in marginals]
                if max(values) - min(values) > tol:
                    differing.add(keep)
        if differing:
            with pytest.raises(InconsistentConstraints) as exc:
                jpd_feasible(system, exact=exact)
            named = str(exc.value).split("marginal of ")[1].split(" beyond")[0]
            assert tuple(named.split(",")) in differing
        else:
            assert jpd_feasible(system, exact=exact).status in ("feasible", "infeasible")


def test_the_oracle_imports_no_test_it_referees():
    """The oracle is the ground truth the inequality tests are checked against,
    so it must not be built from them: ``jpdoracle`` imports neither the Bell
    tests nor the suite that compares the two."""
    source = Path(contexcert.jpdoracle.__file__).read_text()
    imported = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            imported |= {node.module or "", *(alias.name for alias in node.names)}
        elif isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
    parts = {part for name in imported for part in name.split(".")}
    assert not parts & {"belltests", "suite"}, sorted(imported)
