from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from contexcert._simplex import SimplexFailure, phase1_dense, phase1_exact
from contexcert.errors import ContexcertError


def _fraction_phase1_reference(
    A: list[list[Fraction]], b: list[Fraction]
) -> tuple[Fraction, list[Fraction], list[Fraction]]:
    """The Fraction tableau phase1_exact replaced: Bland's rule, one gcd per
    entry.  Kept as the differential reference for the integer tableau."""
    m = len(A)
    n = len(A[0]) if m else 0
    if len(b) != m:
        raise ContexcertError("b length does not match A rows")

    zero, one = Fraction(0), Fraction(1)
    flip = [bi < 0 for bi in b]
    rows = [
        [(-v if f else v) for v in row] + [one if i == j else zero for j in range(m)]
        for i, (row, f) in enumerate(zip(A, flip))
    ]
    rhs = [(-bi if fi else bi) for bi, fi in zip(b, flip)]
    cost = [-sum(rows[i][j] for i in range(m)) for j in range(n)] + [zero] * m
    cost_rhs = -sum(rhs)
    basis = list(range(n, n + m))

    max_iter = 500 * (m + n + 10)
    for _ in range(max_iter):
        enter = next((j for j in range(n) if cost[j] < 0), None)
        if enter is None:
            break
        candidates = [(rhs[i] / rows[i][enter], basis[i], i) for i in range(m) if rows[i][enter] > 0]
        if not candidates:
            raise SimplexFailure("unbounded phase-1 column in exact mode")
        _, _, leave = min(candidates)

        piv = rows[leave][enter]
        rows[leave] = [v / piv for v in rows[leave]]
        rhs[leave] /= piv
        for i in range(m):
            if i != leave and rows[i][enter] != 0:
                factor = rows[i][enter]
                rows[i] = [v - factor * w for v, w in zip(rows[i], rows[leave])]
                rhs[i] -= factor * rhs[leave]
        if cost[enter] != 0:
            factor = cost[enter]
            cost = [v - factor * w for v, w in zip(cost, rows[leave])]
            cost_rhs -= factor * rhs[leave]
        basis[leave] = enter
    else:
        raise SimplexFailure("exact phase-1 iteration limit exceeded")

    objective = -cost_rhs
    x = [zero] * (n + m)
    for i, bi in enumerate(basis):
        x[bi] = rhs[i]
    y = [one - cost[n + i] for i in range(m)]
    y = [(-v if f else v) for v, f in zip(y, flip)]
    return objective, x[:n], y


def check_farkas(A, b, y, objective):
    """Farkas certificate: y.A <= 0 componentwise while y.b = objective > 0."""
    assert objective > 0
    assert np.all(y @ A <= 1e-9)
    assert np.isclose(y @ b, objective, atol=1e-9)


class TestPhase1Dense:
    def test_feasible_square(self):
        A = np.array([[1.0, 1.0], [1.0, -1.0]])
        b = np.array([1.0, 0.2])
        obj, x, _ = phase1_dense(A, b)
        assert obj < 1e-12
        assert np.allclose(A @ x, b, atol=1e-9)
        assert np.all(x >= 0)

    def test_infeasible_sign(self):
        # x1 + x2 = 1 and x1 + x2 = 2 cannot both hold
        A = np.array([[1.0, 1.0], [1.0, 1.0]])
        b = np.array([1.0, 2.0])
        obj, _, y = phase1_dense(A, b)
        assert obj > 0.5
        check_farkas(A, b, y, obj)

    def test_infeasible_negativity(self):
        # x >= 0 with x = -1
        A = np.array([[1.0]])
        b = np.array([-1.0])
        obj, _, y = phase1_dense(A, b)
        assert obj > 0.5
        check_farkas(A, b, y, obj)

    def test_redundant_rows_ok(self):
        A = np.array([[1.0, 1.0], [2.0, 2.0], [1.0, 0.0]])
        b = np.array([1.0, 2.0, 0.25])
        obj, x, _ = phase1_dense(A, b)
        assert obj < 1e-12
        assert np.allclose(A @ x, b, atol=1e-9)

    def test_random_feasible_systems(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            m, n = rng.integers(2, 8), rng.integers(3, 12)
            A = rng.normal(size=(m, n))
            x_true = rng.random(n)
            b = A @ x_true
            obj, x, _ = phase1_dense(A, b)
            assert obj < 1e-9
            assert np.allclose(A @ x, b, atol=1e-7)

    def test_random_verdicts_match_scipy_style_bruteforce(self):
        # tiny systems where feasibility is decidable by vertex enumeration:
        # {x >= 0, sum x = 1, c.x = t} is feasible iff min(c) <= t <= max(c)
        rng = np.random.default_rng(23)
        for _ in range(200):
            n = int(rng.integers(2, 6))
            c = rng.normal(size=n)
            t = float(rng.normal())
            A = np.vstack([np.ones(n), c])
            b = np.array([1.0, t])
            obj, x, y = phase1_dense(A, b)
            expected_feasible = c.min() - 1e-12 <= t <= c.max() + 1e-12
            if expected_feasible:
                assert obj < 1e-9
            else:
                assert obj > 1e-9
                check_farkas(A, b, y, obj)


class TestPhase1Exact:
    def test_feasible(self):
        A = [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(-1)]]
        b = [Fraction(1), Fraction(1, 5)]
        obj, x, _ = phase1_exact(A, b)
        assert obj == 0
        assert x[0] + x[1] == 1
        assert x[0] - x[1] == Fraction(1, 5)

    def test_infeasible_exact_certificate(self):
        A = [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)]]
        b = [Fraction(1), Fraction(2)]
        obj, _, y = phase1_exact(A, b)
        assert obj == 1
        # exact Farkas: y.A <= 0, y.b > 0
        for j in range(2):
            assert sum(y[i] * A[i][j] for i in range(2)) <= 0
        assert sum(yi * bi for yi, bi in zip(y, b)) == obj

    def test_agrees_with_dense_on_random_rationals(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            n = int(rng.integers(2, 5))
            c = [Fraction(int(v), 10) for v in rng.integers(-10, 11, size=n)]
            t = Fraction(int(rng.integers(-12, 13)), 10)
            A = [[Fraction(1)] * n, c]
            b = [Fraction(1), t]
            obj_e, _, _ = phase1_exact(A, b)
            obj_d, _, _ = phase1_dense(
                np.array(A, dtype=float), np.array(b, dtype=float)
            )
            assert (obj_e == 0) == (obj_d < 1e-9)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_fraction_reference(self, data):
        # entries are ints or Fractions; rows may repeat or be sums of others,
        # and a fresh row's b is free or consistent with a point x0 >= 0
        entry = st.one_of(
            st.integers(-4, 4),
            st.builds(Fraction, st.integers(-9, 9), st.integers(1, 7)),
        )
        m = data.draw(st.integers(1, 6), label="rows")
        n = data.draw(st.integers(1, 8), label="columns")
        x0 = [abs(v) for v in data.draw(st.lists(entry, min_size=n, max_size=n))]
        A, b = [], []
        for _ in range(m):
            kinds = ("free", "consistent", "copy", "sum") if A else ("free", "consistent")
            kind = data.draw(st.sampled_from(kinds))
            if kind in ("free", "consistent"):
                A.append(data.draw(st.lists(entry, min_size=n, max_size=n)))
                b.append(data.draw(entry) if kind == "free" else sum(u * v for u, v in zip(A[-1], x0)))
            else:
                i = data.draw(st.integers(0, len(A) - 1))
                j = i if kind == "copy" else data.draw(st.integers(0, len(A) - 1))
                A.append([u + v for u, v in zip(A[i], A[j])] if kind == "sum" else list(A[i]))
                b.append(b[i] + b[j] if kind == "sum" else b[i])
        # the reference divides with /, so it needs Fractions where ints would give floats
        A_ref = [[Fraction(v) for v in row] for row in A]
        b_ref = [Fraction(v) for v in b]
        objective, x, y = phase1_exact(A, b)
        assert (objective, x, y) == _fraction_phase1_reference(A_ref, b_ref)
        assert all(type(v) is Fraction for v in [objective, *x, *y])
