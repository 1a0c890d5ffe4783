import re
from fractions import Fraction
from itertools import islice, product
from math import lcm

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contexcert import _simplex
from contexcert._simplex import PIVOT_TOL, SimplexFailure, phase1_dense, phase1_exact
from contexcert.errors import ContexcertError
from contexcert.jpdoracle import _lp_pattern, jpd_feasible, pair_table_from_correlation, zero_mean_system


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


def _eager_phase1_exact_reference(A, b, events: list | None = None):
    """The pivot loop phase1_exact replaced: every row at the last pivot p,
    so a row whose entering entry is 0 is still rescaled by q/p.  Kept as
    the differential reference for its pivots and results; ``events`` gets,
    for each pivot, the rows it only rescaled."""
    events = [] if events is None else events
    m = len(A)
    n = len(A[0]) if m else 0
    if len(b) != m:
        raise ContexcertError("b length does not match A rows")

    scale = lcm(*(v.denominator for row in A for v in row), *(v.denominator for v in b))
    flip = [bi < 0 for bi in b]
    rows = []
    for i, (row, bi, f) in enumerate(zip(A, b, flip)):
        s = -scale if f else scale
        tableau_row = [v.numerator * (s // v.denominator) for v in row] + [0] * m
        tableau_row[n + i] = 1
        tableau_row.append(bi.numerator * (s // bi.denominator))
        rows.append(tableau_row)
    cost = [-sum(col) for col in zip(*rows)] if rows else [0]
    cost[n : n + m] = [0] * m
    basis = list(range(n, n + m))
    p = 1

    def update(row, pivot_row, enter, q, p):
        f = row[enter]
        if f:
            return [(v * q - f * w) // p for v, w in zip(row, pivot_row)]
        if q == p:
            return row
        return [v * q // p for v in row]

    max_iter = 500 * (m + n + 10)
    for _ in range(max_iter):
        enter = next((j for j in range(n) if cost[j] < 0), None)
        if enter is None:
            break
        leave = None
        for i, row in enumerate(rows):
            a = row[enter]
            if a <= 0:
                continue
            if leave is not None:
                lhs, rhs = row[-1] * rows[leave][enter], rows[leave][-1] * a
                if lhs > rhs or (lhs == rhs and basis[i] > basis[leave]):
                    continue
            leave = i
        if leave is None:
            raise SimplexFailure("unbounded phase-1 column in exact mode")

        pivot_row = rows[leave]
        q = pivot_row[enter]
        events.append([i for i, row in enumerate(rows) if i != leave and not row[enter] and q != p])
        for i, row in enumerate(rows):
            if i != leave:
                rows[i] = update(row, pivot_row, enter, q, p)
        cost = update(cost, pivot_row, enter, q, p)
        p = q
        basis[leave] = enter
    else:
        raise SimplexFailure("exact phase-1 iteration limit exceeded")

    objective = Fraction(-cost[-1], p * scale)
    x = [Fraction(0)] * n
    for row, j in zip(rows, basis):
        if j < n:
            x[j] = Fraction(row[-1], p)
    y = [
        Fraction(cost[n + i] - p if f else p - cost[n + i], p)
        for i, f in enumerate(flip)
    ]
    return objective, x, y


def _dense_phase1_reference(
    A: np.ndarray, b: np.ndarray, events: list | None = None
) -> tuple[float, np.ndarray, np.ndarray]:
    """The pivot loop phase1_dense replaced: about 17 numpy calls a pivot.
    Kept as the differential reference for its pivots and results; ``events``
    collects "bland" at the switch to Bland's rule and "reset" at each noise
    reset of a reduced cost."""
    events = [] if events is None else events
    A = np.ascontiguousarray(A, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64).copy()
    m, n = A.shape
    if b.shape != (m,):
        raise ContexcertError("b length does not match A rows")

    flip = b < 0
    if flip.any():
        A = A.copy()
        A[flip] *= -1.0
        b[flip] *= -1.0

    # Tableau layout: [A | I | b] with the reduced-cost row appended.
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = A
    T[:m, n : n + m] = np.eye(m)
    T[:m, -1] = b
    T[m, :n] = -A.sum(axis=0)
    T[m, -1] = -b.sum()
    basis = np.arange(n, n + m)

    bland = False
    degenerate_streak = 0
    max_iter = 200 * (m + n + 10)
    for _ in range(max_iter):
        reduced = T[m, :n]
        if bland:
            candidates = np.flatnonzero(reduced < -PIVOT_TOL)
            if candidates.size == 0:
                break
            enter = int(candidates[0])
        else:
            enter = int(np.argmin(reduced))
            if reduced[enter] >= -PIVOT_TOL:
                break

        col = T[:m, enter]
        rows = np.flatnonzero(col > PIVOT_TOL)
        if rows.size == 0:
            # Phase-1 objective is bounded below by 0, so an unbounded ray
            # can only be numerical noise in the reduced costs.
            T[m, enter] = 0.0
            events.append("reset")
            continue
        ratios = T[rows, -1] / col[rows]
        if bland:
            best = ratios.min()
            ties = rows[np.flatnonzero(ratios <= best + PIVOT_TOL)]
            leave = int(ties[np.argmin(basis[ties])])
        else:
            leave = int(rows[np.argmin(ratios)])

        if T[leave, -1] <= PIVOT_TOL:
            degenerate_streak += 1
            if degenerate_streak > 3 * (m + 5) and not bland:
                bland = True
                events.append("bland")
        else:
            degenerate_streak = 0

        piv = T[leave, enter]
        T[leave] /= piv
        column = T[:, enter].copy()
        column[leave] = 0.0
        T -= np.outer(column, T[leave])
        T[:, enter] = 0.0
        T[leave, enter] = 1.0
        basis[leave] = enter
    else:
        raise SimplexFailure("phase-1 simplex iteration limit exceeded")

    objective = -T[m, -1]
    x = np.zeros(n + m)
    x[basis] = T[:m, -1]
    x = x[:n]
    np.clip(x, 0.0, None, out=x)

    y = 1.0 - T[m, n : n + m]
    if flip.any():
        y = y.copy()
        y[flip] *= -1.0
    return float(objective), x, y


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


# 10^k plus the least offset that makes a prime, for k = 5, 10, ..., 30
LARGE_PRIMES = (10**5 + 3, 10**10 + 19, 10**15 + 37, 10**20 + 39, 10**25 + 13, 10**30 + 57)


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
        assert (objective, x, y) == _eager_phase1_exact_reference(A, b)
        assert all(type(v) is Fraction for v in [objective, *x, *y])

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_large_b_denominators(self, data):
        # b's denominators are products of primes up to about 10^30, coprime
        # to A's (at most 7); rows are free, consistent with a point x0 >= 0
        # over those primes, or negated copies (so b < 0).  A given as lists
        # and as a tuple of tuples gives the same results.
        prime = st.sampled_from(LARGE_PRIMES)
        big = st.builds(
            lambda k, p, q: Fraction(k, p * q),
            st.integers(-(10**31), 10**31),
            prime,
            st.sampled_from((1, *LARGE_PRIMES)),
        )
        entry = st.one_of(st.integers(-4, 4), st.builds(Fraction, st.integers(-9, 9), st.integers(1, 7)))
        m = data.draw(st.integers(1, 6), label="rows")
        n = data.draw(st.integers(1, 8), label="columns")
        x0 = data.draw(st.lists(st.one_of(st.just(0), big.map(abs)), min_size=n, max_size=n))
        A, b = [], []
        for _ in range(m):
            kind = data.draw(st.sampled_from(["free", "consistent"] + (["negated"] if A else [])))
            if kind == "negated":
                i = data.draw(st.integers(0, len(A) - 1))
                A.append([-v for v in A[i]])
                b.append(-b[i])
            else:
                A.append(data.draw(st.lists(entry, min_size=n, max_size=n)))
                b.append(data.draw(big) if kind == "free" else sum(u * v for u, v in zip(A[-1], x0)))
        expected = _fraction_phase1_reference(as_fractions(A), [Fraction(v) for v in b])
        assert phase1_exact(A, b) == expected
        assert phase1_exact(tuple(map(tuple, A)), b) == expected

    def test_redundant_row_keeps_its_artificial_basic(self):
        # row 1 is twice row 0: x0 enters through row 0 (a ratio tie, broken
        # by the lower basis index), row 1 becomes all zero and its
        # artificial stays basic, so its y entry is 1 - 0; row 2 makes the
        # system infeasible (x0 = 2 against x0 + x1 = 1)
        A = as_fractions([[1, 1], [2, 2], [1, 0]])
        b = [Fraction(1), Fraction(2), Fraction(2)]
        objective, x, y = phase1_exact(A, b)
        assert (objective, x, y) == _fraction_phase1_reference(A, b)
        assert (objective, y[1]) == (1, 1)
        assert all(sum(yi * row[j] for yi, row in zip(y, A)) <= 0 for j in range(2))
        assert sum(yi * bi for yi, bi in zip(y, b)) == objective

    def test_negated_row_whose_artificial_leaves(self):
        # row 0 is negated (x0 + x1 = 1) and x0 enters through it, so its
        # artificial leaves with reduced cost 2: y0 = -(1 - 2) = 1, where a
        # basic artificial of a negated row would give -1
        A = as_fractions([[-1, -1], [1, 0]])
        b = [Fraction(-1), Fraction(2)]
        objective, x, y = phase1_exact(A, b)
        assert (objective, x, y) == _fraction_phase1_reference(A, b)
        assert (objective, x, y) == (1, [1, 0], [1, 1])
        assert all(sum(yi * row[j] for yi, row in zip(y, A)) <= 0 for j in range(2))
        assert sum(yi * bi for yi, bi in zip(y, b)) == objective


def assert_same_bits(expected, got):
    (obj_e, x_e, y_e), (obj_g, x_g, y_g) = expected, got
    assert np.float64(obj_e).tobytes() == np.float64(obj_g).tobytes()
    assert (x_e.shape, x_e.tobytes()) == (x_g.shape, x_g.tobytes())
    assert (y_e.shape, y_e.tobytes()) == (y_g.shape, y_g.tobytes())


def solve_both(A, b, events=None):
    """The reference's outcome and phase1_dense's, which must be bit-equal."""
    try:
        expected = _dense_phase1_reference(A, b, events)
    except SimplexFailure as exc:
        with pytest.raises(SimplexFailure, match=f"^{re.escape(str(exc))}$"):
            phase1_dense(A, b)
        return None
    got = phase1_dense(A, b)
    assert_same_bits(expected, got)
    return got


@pytest.fixture
def oracle_solves(monkeypatch):
    """Route every float solve of the oracle through both loops; counts them."""
    solves = []

    def both(A, b):
        solves.append(None)
        return solve_both(A, b)

    monkeypatch.setattr(_simplex, "phase1_dense", both)
    return solves


# Beale's cycling example (Beale 1955) with its slacks x1..x3 as structural
# columns, and a fourth row that makes the phase-1 reduced costs Beale's
# objective (0, 0, 0, -3/4, 20, -1/2, 6).  Dantzig pricing with the lowest
# row on ratio ties cycles on it, so only the switch to Bland's rule ends it.
BEALE_A = np.array(
    [
        [1, 0, 0, 1 / 4, -8, -1, 9],
        [0, 1, 0, 1 / 2, -12, -1 / 2, 3],
        [0, 0, 1, 0, 0, 1, 0],
        [-1, -1, -1, 0, 0, 1, -18],
    ]
)
BEALE_B = np.array([0.0, 0.0, 1.0, 10.0])


class TestDensePivotsMatchReference:
    def test_grid_4_cycles(self, oracle_solves):
        grid = [k / 10 for k in range(-10, 11)]
        variables = ("A1", "A2", "B1", "B2")
        pairs = (("A1", "B1"), ("A1", "B2"), ("A2", "B1"), ("A2", "B2"))
        for cs in islice(product(grid, repeat=4), 0, None, 7):
            jpd_feasible(zero_mean_system(variables, pairs, cs))
        assert len(oracle_solves) == 27_783

    @pytest.mark.parametrize("n", [3, 5])
    def test_float_cycles(self, oracle_solves, n):
        rng = np.random.default_rng(40 + n)
        variables = tuple(f"X{i}" for i in range(n))
        pairs = tuple(zip(variables, variables[1:] + variables[:1]))
        for _ in range(400):
            jpd_feasible(zero_mean_system(variables, pairs, rng.uniform(-1, 1, size=n)))
        assert len(oracle_solves) == 400

    def test_beale_cycle_switches_to_bland(self):
        events = []
        objective, _, y = solve_both(BEALE_A, BEALE_B, events)
        assert events == ["bland"]
        check_farkas(BEALE_A, BEALE_B, y, objective)

    def test_noise_reset(self):
        # each entry is below PIVOT_TOL, but the column's reduced cost is not
        A = np.full((2, 1), 0.8 * PIVOT_TOL)
        events = []
        solve_both(A, np.array([1.0, 1.0]), events)
        assert events == ["reset"]

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_hypothesis_systems(self, data):
        # rows may be zero, negated copies (so b < 0), sums of others, or
        # consistent with a point x0 >= 0 that has zeros (degenerate pivots)
        entry = st.one_of(
            st.integers(-4, 4).map(float),
            st.floats(-4, 4, allow_nan=False, allow_subnormal=False),
        )
        m = data.draw(st.integers(1, 7), label="rows")
        n = data.draw(st.integers(1, 9), label="columns")
        x0 = [abs(v) for v in data.draw(st.lists(entry, min_size=n, max_size=n))]
        A, b = [], []
        for _ in range(m):
            kinds = ["free", "consistent", "zero"] + (["negated", "sum"] if A else [])
            kind = data.draw(st.sampled_from(kinds))
            if kind in ("free", "consistent"):
                A.append(data.draw(st.lists(entry, min_size=n, max_size=n)))
                b.append(data.draw(entry) if kind == "free" else float(np.dot(A[-1], x0)))
            elif kind == "zero":
                A.append([0.0] * n)
                b.append(data.draw(st.sampled_from([0.0, -1.0, 0.5])))
            else:
                i = data.draw(st.integers(0, len(A) - 1))
                j = data.draw(st.integers(0, len(A) - 1))
                A.append([-v for v in A[i]] if kind == "negated" else [u + v for u, v in zip(A[i], A[j])])
                b.append(-b[i] if kind == "negated" else b[i] + b[j])
        solve_both(np.array(A), np.array(b))


def solve_exact_both(A, b, events=None):
    """phase1_exact's outcome, which must equal the eager reference's."""
    got = phase1_exact(A, b)
    assert got == _eager_phase1_exact_reference(A, b, events)
    return got


@pytest.fixture
def oracle_exact_solves(monkeypatch):
    """Route every exact solve of the oracle through both loops; keeps each (A, b)."""
    solves = []

    def both(A, b):
        solves.append((A, b))
        return solve_exact_both(A, b)

    monkeypatch.setattr(_simplex, "phase1_exact", both)
    return solves


def as_fractions(A):
    return [[Fraction(v) for v in row] for row in A]


def exact_grid_systems(pairs, points):
    """(A, b) of the zero-mean cycle LP at each grid point, as jpd_feasible
    builds it: A from _lp_pattern, b from the pair tables' cells."""
    variables = sorted({v for pair in pairs for v in pair})
    supports = tuple(tuple(map(variables.index, pair)) for pair in pairs)
    _, A, row_cells, *_ = _lp_pattern(len(variables), supports)
    cells = {}
    for cs in points:
        for c in cs:
            if c not in cells:
                cells[c] = pair_table_from_correlation(("X", "Y"), c, exact=True).probs
        yield A, [Fraction(1)] + [cells[cs[ci]][cell] for ci, cell in row_cells[1:]]


class TestExactPivotsMatchReference:
    def test_grid_4_cycles(self):
        grid = [Fraction(k, 10) for k in range(-10, 11)]
        pairs = (("A1", "B1"), ("A1", "B2"), ("A2", "B1"), ("A2", "B2"))
        systems = list(exact_grid_systems(pairs, islice(product(grid, repeat=4), 0, None, 7)))
        for A, b in systems:
            solve_exact_both(A, b)
        assert len(systems) == 27_783

    def test_grid_3_cycles(self):
        grid = [Fraction(k, 10) for k in range(-10, 11)]
        pairs = (("X1", "X2"), ("X2", "X3"), ("X1", "X3"))
        systems = list(exact_grid_systems(pairs, product(grid, repeat=3)))
        for A, b in systems:
            solve_exact_both(A, b)
        assert len(systems) == 21**3

    def test_grid_systems_are_the_oracles(self, oracle_exact_solves):
        pairs = (("A1", "B1"), ("A1", "B2"), ("A2", "B1"), ("A2", "B2"))
        cs = (Fraction(1, 2), Fraction(-3, 10), Fraction(1), Fraction(0))
        jpd_feasible(zero_mean_system(("A1", "A2", "B1", "B2"), pairs, cs, exact=True), exact=True)
        assert oracle_exact_solves == list(exact_grid_systems(pairs, [cs]))

    @pytest.mark.parametrize(
        "n_same, totals, feasible",
        [
            # about the singlet's +-1/sqrt(2): CHSH about 2.83
            ((85357, 85350, 85366, 14644), (100_003, 99_991, 100_019, 99_989), False),
            # CHSH = 2 exactly, the boundary, and 2 + 2/100003 just past it
            ((75002, 75002, 75002, 25000), (100_003,) * 4, True),
            ((75002, 75002, 75003, 25000), (100_003,) * 4, False),
            # CHSH about 1.9998, and every other sign pattern below 2 too
            ((75002, 74990, 75010, 25001), (100_003, 99_991, 100_019, 99_989), True),
        ],
    )
    def test_count_ratio_quadrupole(self, oracle_exact_solves, n_same, totals, feasible):
        # zero-mean CHSH data whose correlations are the count ratios
        # (n_same - n_diff) / n of about 10^5 records per setting
        pairs = (("A1", "B1"), ("A1", "B2"), ("A2", "B1"), ("A2", "B2"))
        cs = [Fraction(2 * k - n, n) for k, n in zip(n_same, totals)]
        system = zero_mean_system(("A1", "A2", "B1", "B2"), pairs, cs, exact=True)
        assert jpd_feasible(system, exact=True).feasible is feasible
        [(A, b)] = oracle_exact_solves
        assert phase1_exact(A, b) == _fraction_phase1_reference(as_fractions(A), [Fraction(v) for v in b])

    def test_beale(self):
        A, b = as_fractions(BEALE_A), [Fraction(v) for v in BEALE_B]
        objective, _, y = solve_exact_both(A, b)
        check_farkas(BEALE_A, BEALE_B, np.array(y, dtype=float), float(objective))

    def test_negative_b_rows_are_flipped(self):
        # x1 - x2 = -1/2, x1 + x2 = 3/2 (x = (1/2, 1)); x1 = -1 has no x >= 0
        A = as_fractions([[1, -1], [1, 1]])
        objective, x, _ = solve_exact_both(A, [Fraction(-1, 2), Fraction(3, 2)])
        assert (objective, x) == (0, [Fraction(1, 2), Fraction(1)])
        objective, _, y = solve_exact_both(as_fractions([[1]]), [Fraction(-1)])
        assert (objective, y) == (1, [Fraction(-1)])

    def test_row_scale_lags_two_pivots(self):
        # columns 0 and 1 enter first, with pivots 2 and 6; row 3 has 0 in
        # both, so it keeps scale 1 until column 2 enters
        A = as_fractions([[2, 0, 0], [0, 3, 0], [1, 1, 5], [0, 0, 1]])
        events = []
        objective, x, _ = solve_exact_both(A, [Fraction(v) for v in (2, 3, 7, 1)], events)
        assert (objective, x) == (0, [1, 1, 1])
        assert 3 in events[0] and 3 in events[1]

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_hypothesis_systems(self, data):
        # sparse rows (many zero entries, so rows lag), negated copies (so
        # b < 0) and rows consistent with a point x0 >= 0 that has zeros
        entry = st.one_of(
            st.just(0),
            st.integers(-4, 4),
            st.builds(Fraction, st.integers(-9, 9), st.integers(1, 7)),
        )
        m = data.draw(st.integers(1, 7), label="rows")
        n = data.draw(st.integers(1, 9), label="columns")
        x0 = data.draw(st.lists(st.sampled_from([0, 1, Fraction(1, 2), 3]), min_size=n, max_size=n))
        A, b = [], []
        for _ in range(m):
            kind = data.draw(st.sampled_from(["free", "consistent"] + (["negated"] if A else [])))
            if kind == "negated":
                i = data.draw(st.integers(0, len(A) - 1))
                A.append([-v for v in A[i]])
                b.append(-b[i])
            else:
                A.append(data.draw(st.lists(entry, min_size=n, max_size=n)))
                b.append(data.draw(entry) if kind == "free" else sum(u * v for u, v in zip(A[-1], x0)))
        solve_exact_both(A, b)
