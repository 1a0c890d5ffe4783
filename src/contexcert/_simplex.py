"""Phase-1 simplex for equality-constrained feasibility problems.

Solves  find x >= 0 with A x = b  by minimizing the sum of artificial
variables.  Two implementations:

* a dense float64 tableau (fast path), and
* an exact, fraction-free integer tableau using Bland's rule throughout
  (used where tolerance ambiguity must be ruled out).  A is scaled to
  integers by its own common denominator, and only the right-hand side also
  by that of b; its pivots are the integer-preserving ones of Edmonds
  (J. Res. NBS 71B, 1967) and Bareiss (Math. Comp. 22, 1968), with each row
  kept at the pivot of its last update so that a pivot rewrites only the
  rows it changes; no gcd is ever taken.  The tableau is condensed: Bareiss
  elimination leaves each basic column the last pivot times a unit vector,
  so a row stores only the nonbasic columns and its right-hand side, and a
  pivot hands the entering column's slot to the leaving variable.  Its
  pivots and results are those of a ``Fraction`` tableau.

The float tableau's pivots follow one contract, which a copy of its former
loop in the tests checks bit for bit:

* Dantzig pricing: the structural column with the most negative reduced
  cost enters, the lowest column on ties; the loop stops when no reduced
  cost is below -PIVOT_TOL.
* The ratio test runs over rows whose entry in that column exceeds
  PIVOT_TOL, and the first minimum ratio, that is the lowest row, leaves.
* A pivot is degenerate when the leaving row's right-hand side is at most
  PIVOT_TOL.  After more than 3*(m+5) degenerate pivots in a row, Bland's
  rule holds for the rest of the solve: the lowest column with a reduced
  cost below -PIVOT_TOL enters, and of the rows whose ratio is within
  PIVOT_TOL of the minimum, the one whose basic variable has the lowest
  index leaves.
* A column that prices in but has no eligible row would be an unbounded ray,
  which phase 1 cannot have: its reduced cost is noise, so it is set to 0.0
  and pricing starts again.
* After 200*(m+n+10) iterations the solve raises :class:`SimplexFailure`.

Both return the phase-1 objective (0 iff the system is feasible, up to the
caller's tolerance), the structural solution when one exists, and the dual
vector ``y`` at optimality.  For an infeasible system ``y`` is a Farkas
certificate: y.A <= 0 componentwise while y.b equals the positive objective.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache
from math import lcm
from numbers import Rational

import numpy as np

from .errors import ContexcertError

PIVOT_TOL = 1e-11


class SimplexFailure(ContexcertError):
    """Iteration limit or numerical breakdown inside the solver."""


def phase1_dense(A: np.ndarray, b: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Run phase-1 on dense float64 data; returns (objective, x, y)."""
    A = np.ascontiguousarray(A, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64).copy()
    m, n = A.shape
    if b.shape != (m,):
        raise ContexcertError("b length does not match A rows")

    flip = b < 0
    flipped = flip.any()
    if flipped:
        A = A.copy()
        A[flip] *= -1.0
        b[flip] *= -1.0

    # Tableau layout: [A | I | b] with the reduced-cost row appended.
    width = n + m + 1
    T = np.zeros((m + 1, width))
    T[:m, :n] = A
    T.ravel()[n : m * width : width + 1] = 1.0  # the identity block's diagonal
    T[:m, -1] = b
    T[m, :n] = -A.sum(axis=0)
    T[m, -1] = -b.sum()
    basis = np.arange(n, n + m)

    # Views and buffers made once, so that a pivot allocates nothing; each
    # numpy call a pivot makes costs about as much as its arithmetic.
    cost = T[m, :n]
    rhs = T[:m, -1]
    columns = T.T  # columns[j] is T[:, j]
    row_columns = T[:m].T  # row_columns[j] is T[:m, j]
    tol = np.array(PIVOT_TOL)  # a 0-d array: a ufunc takes it without converting a float
    ratios = np.empty(m)
    eligible = np.empty(m, dtype=bool)
    column = np.empty(m + 1)
    column_2d = column[:, None]  # broadcasts against a row to the outer product
    update = np.empty_like(T)
    bland = False
    degenerate_streak = 0
    max_iter = 200 * (m + n + 10)
    for _ in range(max_iter):
        if bland:
            improving = cost < -PIVOT_TOL
            enter = improving.argmax()
            if not improving[enter]:
                break
        else:
            enter = cost.argmin()
            if cost[enter] >= -PIVOT_TOL:
                break

        col = row_columns[enter]
        np.greater(col, tol, out=eligible)
        # ineligible rows read inf, so the first minimum is an eligible row
        # whenever one exists (a finite ratio needs rhs below ~1e297)
        ratios.fill(np.inf)
        np.divide(rhs, col, out=ratios, where=eligible)
        leave = ratios.argmin()
        if not eligible[leave]:
            # Phase-1 objective is bounded below by 0, so an unbounded ray
            # can only be numerical noise in the reduced costs.
            T[m, enter] = 0.0
            continue
        if bland:
            ties = (ratios <= ratios[leave] + PIVOT_TOL).nonzero()[0]
            leave = ties[basis[ties].argmin()]

        if rhs[leave] <= PIVOT_TOL:
            degenerate_streak += 1
            if degenerate_streak > 3 * (m + 5):
                bland = True
        else:
            degenerate_streak = 0

        pivot_row = T[leave]
        np.divide(pivot_row, pivot_row[enter], out=pivot_row)
        np.copyto(column, columns[enter])
        column[leave] = 0.0
        np.multiply(column_2d, pivot_row, out=update)
        np.subtract(T, update, out=T)
        basis[leave] = enter
    else:
        raise SimplexFailure("phase-1 simplex iteration limit exceeded")

    objective = -T[m, -1]
    x = np.zeros(n + m)
    x[basis] = T[:m, -1]
    x = x[:n]
    np.maximum(x, 0.0, out=x)  # what np.clip(x, 0.0, None) calls

    y = 1.0 - T[m, n : n + m]
    if flipped:
        y = y.copy()
        y[flip] *= -1.0
    return float(objective), x, y


@lru_cache(maxsize=128)
def _integer_rows(A: tuple[tuple[Rational, ...], ...]) -> tuple[tuple[tuple[int, ...], ...], int]:
    """``A``'s rows times its common denominator, as ints, and that denominator."""
    scale = lcm(*(v.denominator for row in A for v in row))
    return tuple(tuple(v.numerator * (scale // v.denominator) for v in row) for row in A), scale


def phase1_exact(
    A: Sequence[Sequence[Rational]], b: Sequence[Rational]
) -> tuple[Fraction, list[Fraction], list[Fraction]]:
    """Exact phase-1 with Bland's rule; returns (objective, x, y) as Fractions.

    ``A`` and ``b`` hold ints or Fractions.  Rows with negative ``b`` are
    negated.  ``A`` is multiplied by its own common denominator D_A (1 for
    integer ``A``; the integer rows are cached per ``A``) and ``b`` by
    D_A * D_b, D_b being the common denominator of ``b``, while the
    artificial identity block stays unscaled: A x + a = b becomes
    (D_A A) x' + a' = D_A D_b b with x' = D_b x and a' = D_A D_b a.  So only
    the right-hand side carries the data's denominator.  The eager Bareiss
    tableau E is the rational tableau of that system times the last pivot p
    (p = 1 at the start); a pivot on q = E[l][e] replaces each row i != l by
    (E[i]*q - E[i][e]*E[l]) // p.

    In E the column of a basic variable is p times a unit vector, so only
    the n nonbasic columns and the right-hand side are stored: ``columns``
    names the variable in each slot, structural ones first, and the m
    artificials, basic at the start, have none.  A pivot on (l, e) hands
    slot e to the leaving variable, whose column becomes -E[i][e] in each
    row i != l ((0*q - E[i][e]*p) // p, as E[l] holds p there) and stays p
    in row l.  That slot is written by the same update, with q + p standing
    at e in the pivot row while the other rows are updated.

    Row i, the cost row (the last) included, is stored with a scale s_i,
    the pivot at its last update, and stands for E[i] = rows[i] * p / s_i.
    A row with a 0 entering entry would only be multiplied by q/p, so it is
    skipped, its slot e holding 0 as it should; any other becomes
    (rows[i]*q - rows[i][e]*E[l]) // s_i, the eager update with p/s_i
    cancelled, so it divides exactly (E[l] is rows[l] * p // s_l).  Updated
    rows and row l get scale q.

    Every pivot is the one a Fraction tableau of the unscaled system takes:
    scales are pivots, all positive, so each entry has its eager sign, and
    the cross-multiplied ratio test compares eager products divided by one
    positive p*p/(s_i*s_l).  The reduced costs are D_A times the unscaled
    ones, and each ratio is D_b times the unscaled one (a row is the
    unscaled one times D_A where an artificial is basic in it, else 1, with
    its right-hand side times D_b more), so the ratio test (ties to the
    lower basis index) ranks rows alike.
    The lowest-numbered structural variable with a negative reduced cost
    enters; a basic one has reduced cost 0, so dropping the basic columns
    changes no choice.  x, y and the objective depend only on the final
    basis and its rows: x = rhs/(s_i*D_b), the objective is
    -rhs/(s*D_A*D_b) with s the cost row's scale, and y = (s - d)/s over the
    artificials, d being an artificial's stored cost entry once it has left
    the basis and 0 while it is basic.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    if len(b) != m:
        raise ContexcertError("b length does not match A rows")

    A_rows, A_scale = _integer_rows(tuple(map(tuple, A)))
    b_scale = lcm(*(v.denominator for v in b))
    rhs_scale = A_scale * b_scale
    flip = [bi.numerator < 0 for bi in b]
    rows = []
    for row, bi, f in zip(A_rows, b, flip):
        rhs = bi.numerator * (rhs_scale // bi.denominator)
        rows.append([-v for v in row] + [-rhs] if f else [*row, rhs])
    # The phase-1 reduced costs are the last row; its last slot holds minus
    # the objective, as a row's last slot holds its right-hand side.
    rows.append([-sum(col) for col in zip(*rows)] if rows else [0])
    scales = [1] * (m + 1)
    columns = list(range(n))
    basis = list(range(n, n + m))
    p = 1

    max_iter = 500 * (m + n + 10)
    for _ in range(max_iter):
        enter = min((j for j, d in zip(columns, rows[m]) if d < 0 and j < n), default=None)
        if enter is None:
            break
        e = columns.index(enter)
        leave = None
        for i, row in enumerate(rows[:m]):
            a = row[e]
            if a <= 0:
                continue
            if leave is not None:
                lhs, rhs = row[-1] * rows[leave][e], rows[leave][-1] * a
                if lhs > rhs or (lhs == rhs and basis[i] > basis[leave]):
                    continue
            leave = i
        if leave is None:
            raise SimplexFailure("unbounded phase-1 column in exact mode")

        pivot_row = rows[leave]
        if scales[leave] != p:
            pivot_row = rows[leave] = [v * p // scales[leave] for v in pivot_row]
        q = pivot_row[e]
        pivot_row[e] = q + p
        for i, (row, s) in enumerate(zip(rows, scales)):
            f = row[e]
            if f and i != leave:
                rows[i] = [(v * q - f * w) // s for v, w in zip(row, pivot_row)]
                scales[i] = q
        pivot_row[e] = p
        scales[leave] = p = q
        columns[e], basis[leave] = basis[leave], enter
    else:
        raise SimplexFailure("exact phase-1 iteration limit exceeded")

    cost, s = rows.pop(), scales.pop()
    objective = Fraction(-cost[-1], s * rhs_scale)
    x = [Fraction(0)] * n
    for row, s_i, j in zip(rows, scales, basis):
        if j < n:
            x[j] = Fraction(row[-1], s_i * b_scale)
    reduced = dict(zip(columns, cost))  # an artificial still basic has reduced cost 0
    y = [Fraction(s - reduced.get(n + i, 0), -s if f else s) for i, f in enumerate(flip)]
    return objective, x, y
