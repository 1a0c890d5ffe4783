"""Decision procedure for global joint-distribution existence.

Given lower-order probability tables over subsets of n dichotomic (+-1)
observables, decide whether one global distribution over all 2^n outcome
atoms marginalizes to every table.  This is a pure linear feasibility
problem; it is solved directly (phase-1 simplex, no external solver) so that
the inequality tests elsewhere in the package can be cross-validated against
an independent ground truth.  Atoms and table cells are numbered as
``scenario.cell_index`` numbers codes, +1 being code 0, and tables must
agree on the marginal of every variable set they share before the LP runs.

A feasible system yields a witness table; an infeasible one yields a
separating linear functional over the constraint cells: the functional's
value on the supplied data exceeds its maximum over the marginal polytope
by the reported slack.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, compress, product, repeat
from math import isfinite, lcm
from operator import itemgetter
from typing import Any

import numpy as np

from . import _simplex
from .errors import ContexcertError
from .scenario import DICHOTOMIC, ProbTable, cell_index
from .tolerances import require_nonnegative

MAX_VARIABLES = 12
FEASIBILITY_TOL = 1e-9
SIGNALING_PRECHECK_TOL = 1e-9


class TooManyVariables(ContexcertError):
    """Atom count would exceed the 2^12 solver cap."""


class InconsistentConstraints(ContexcertError):
    """Constraint tables disagree on a shared marginal before the LP runs."""


@dataclass(frozen=True)
class MarginalConstraintSystem:
    """Target variables plus the tables a global JPD must marginalize to."""

    variables: tuple[str, ...]
    constraints: tuple[tuple[tuple[str, ...], ProbTable], ...]

    def __post_init__(self) -> None:
        variables = tuple(self.variables)
        object.__setattr__(self, "variables", variables)
        names = set(variables)
        if len(names) != len(variables):
            raise ContexcertError("duplicate variables in constraint system")
        constraints = tuple((tuple(sup), table) for sup, table in self.constraints)
        object.__setattr__(self, "constraints", constraints)
        checked = set()  # the alphabets found to be +-1
        for sup, table in constraints:
            if tuple(table.support) != sup:
                raise ContexcertError(f"constraint support {sup} does not match its table")
            if not names.issuperset(sup):
                raise ContexcertError(f"constraint support {sup} not within variables")
            for alphabet in table.alphabets:
                if alphabet not in checked:
                    if set(alphabet) != {1, -1}:
                        raise ContexcertError("oracle accepts only +-1 alphabets")
                    checked.add(alphabet)


@dataclass(frozen=True)
class InfeasibilityCertificate:
    """Linear functional separating the data from the marginal polytope.

    ``value`` is the functional evaluated on the constraint cells,
    ``bound`` its maximum over all global JPDs (computed atom-wise), and
    ``value - bound > 0`` witnesses infeasibility.
    """

    normalization_coeff: Any
    cell_coeffs: tuple[tuple[int, tuple, Any], ...]
    value: Any
    bound: Any

    @property
    def slack(self) -> float:
        return float(self.value - self.bound)

    def to_json(self) -> dict:
        return {
            "normalization_coeff": float(self.normalization_coeff),
            "cell_coeffs": [
                {"constraint": ci, "outcomes": list(cell), "coeff": float(c)}
                for ci, cell, c in self.cell_coeffs
            ],
            "value": float(self.value),
            "bound": float(self.bound),
            "slack": self.slack,
        }


@dataclass(frozen=True)
class FeasibilityResult:
    status: str  # "feasible" | "infeasible"
    witness: ProbTable | None
    certificate: InfeasibilityCertificate | None
    slack: float

    @property
    def feasible(self) -> bool:
        return self.status == "feasible"

    def to_json(self) -> dict:
        out: dict[str, Any] = {"status": self.status, "slack": self.slack}
        if self.witness is not None:
            out["witness"] = {
                "support": list(self.witness.support),
                "probs": {
                    ",".join(str(v) for v in cell): float(p)
                    for cell, p in sorted(self.witness.probs.items())
                },
            }
        if self.certificate is not None:
            out["certificate"] = self.certificate.to_json()
        return out


@lru_cache(maxsize=128)
def _lp_pattern(n: int, supports: tuple[tuple[int, ...], ...]):
    """The fixed parts of the LP: ``A`` (row 0 normalization, then a row per
    table cell), its rows as ints, each row's (table, cell), the atoms, each
    table's cells and their reader (:func:`_cell_reader`), the number of each
    table's first cell among all tables' cells, the numbers of the cells ``b``
    takes after its leading 1, and the marginal check.  That check keeps one
    sum per shared set, set cell and table with the set; ``plan`` pairs each
    sum with each cell, numbered through all tables, that adds into it, and
    ``shared`` holds each set's (set, start, stop, tables): between start and
    stop each set cell has ``tables`` consecutive sums.  The shared sets are
    each variable in two or more tables, then each intersection of two
    supports with two or more variables, sorted."""
    codes = np.array(list(product(range(2), repeat=n)))  # atom j is row j
    rows = [np.ones(len(codes))]
    row_cells: list[tuple[int, tuple] | None] = [None]
    for ci, sup in enumerate(supports):
        cells = list(product(DICHOTOMIC, repeat=len(sup)))
        # The last cell of each table is implied by normalization plus the
        # other cells, so its row is omitted to keep the tableau small.
        atom_cells = cell_index(codes, (2,) * len(sup), sup)
        rows += [atom_cells == c for c in range(len(cells) - 1)]
        row_cells += [(ci, cell) for cell in cells[:-1]]
    A = np.asarray(rows, dtype=np.float64)
    A.setflags(write=False)

    first_cell = list(accumulate((2 ** len(sup) for sup in supports), initial=0))
    counts = Counter(i for sup in supports for i in sup)
    sets = [set(sup) for sup in supports]
    common = (tuple(sorted(s & t)) for k, s in enumerate(sets) for t in sets[k + 1 :])
    singles = [(i,) for i in counts if counts[i] > 1]
    plan, shared, start = [], [], 0
    for keep in singles + list(dict.fromkeys(c for c in common if len(c) > 1)):
        tables = [ci for ci, sup in enumerate(supports) if set(keep) <= set(sup)]
        for t, ci in enumerate(tables):
            table_codes = np.array(list(product(range(2), repeat=len(supports[ci]))))
            marginal = cell_index(table_codes, (2,) * len(keep), map(supports[ci].index, keep))
            set_cells = enumerate(marginal.tolist())
            plan += [(start + m * len(tables) + t, first_cell[ci] + c) for c, m in set_cells]
        stop = start + 2 ** len(keep) * len(tables)
        shared.append((keep, start, stop, len(tables)))
        start = stop
    A_int = tuple(map(tuple, A.astype(np.int64).tolist()))
    atoms = tuple(product(DICHOTOMIC, repeat=n))
    readers = tuple(_cell_reader(len(sup)) for sup in supports)
    b_cells = tuple(c for first, stop in zip(first_cell, first_cell[1:]) for c in range(first, stop - 1))
    return A, A_int, tuple(row_cells), atoms, readers, tuple(first_cell), b_cells, start, tuple(plan), tuple(shared)


@lru_cache(maxsize=MAX_VARIABLES)
def _cell_reader(arity: int) -> tuple[tuple[tuple[int, ...], ...], itemgetter]:
    """The +-1 cells of a table over ``arity`` variables in cell-number order,
    and one getter that reads all of them from a table's ``probs``."""
    cells = tuple(product(DICHOTOMIC, repeat=arity))
    return cells, itemgetter(*cells)


def jpd_feasible(
    system: MarginalConstraintSystem,
    feasibility_tol: float = FEASIBILITY_TOL,
    exact: bool = False,
) -> FeasibilityResult:
    """Decide global-JPD existence for the constraint system.

    ``feasibility_tol``, finite and >= 0, bounds the phase-1 objective (total
    residual mass) below which the system counts as feasible.  Before the LP,
    tables must agree on the marginal of every variable set they share, to
    within ``SIGNALING_PRECHECK_TOL`` per cell.  In ``exact`` mode every
    constraint table must carry Fraction/int probabilities summing to exactly
    1, and the decision, marginal check included, is tolerance-free: witness
    and certificate entries are Fractions, where float mode gives floats.
    """
    require_nonnegative(feasibility_tol, "feasibility_tol")
    n = len(system.variables)
    if n > MAX_VARIABLES:
        raise TooManyVariables(f"{n} variables exceed the cap of {MAX_VARIABLES}")
    if n == 0 or not system.constraints:
        raise ContexcertError("constraint system is empty")
    var_index = dict(zip(system.variables, range(n)))
    supports = tuple(tuple(map(var_index.__getitem__, sup)) for sup, _ in system.constraints)
    A, A_int, row_cells, atoms, readers, first_cell, b_cells, n_sums, plan, shared = _lp_pattern(n, supports)

    # each table read once, in cell-number order: a table with no implied zero
    # holds every +-1 cell, so one getter reads them all
    values = []
    for (_, table), (cells, read) in zip(system.constraints, readers):
        probs = table.probs
        values += read(probs) if len(probs) == len(cells) else map(probs.get, cells, repeat(0))
    if exact:
        if not all(isinstance(p, (Fraction, int)) for p in values):
            raise ContexcertError("exact mode requires Fraction-valued tables")
        # sums and marginals taken as integer numerators over one common
        # denominator, which is exact and avoids a gcd per Fraction addition
        denominator = lcm(*(p.denominator for p in values))
        weights = [p.numerator * (denominator // p.denominator) for p in values]
        for ci, (sup, _) in enumerate(system.constraints):
            # _lp_pattern drops each table's last cell as implied by
            # normalization, which holds only up to NORMALIZATION_TOL unless
            # the sum is exactly 1
            total = sum(weights[first_cell[ci] : first_cell[ci + 1]])
            if total != denominator:
                raise ContexcertError(
                    f"exact mode requires each table to sum to exactly 1; "
                    f"constraint {ci} over {','.join(sup)} sums to {Fraction(total, denominator)}"
                )
        tol = 0
    else:
        weights = list(map(float, values))
        tol = SIGNALING_PRECHECK_TOL
    sums = [0] * n_sums
    for k, i in plan:
        sums[k] += weights[i]
    for keep, start, stop, tables in shared:
        for m in range(start, stop, tables):
            cell = sums[m : m + tables]
            if max(cell) - min(cell) > tol:
                names = ",".join(system.variables[i] for i in keep)
                raise InconsistentConstraints(
                    f"constraint tables disagree on the marginal of {names} "
                    f"beyond {tol:g}; the system is signaling, not merely infeasible"
                )

    b = [1, *map(values.__getitem__, b_cells)]
    if exact:
        objective, x, y = _simplex.phase1_exact(A_int, b)
        feasible = objective == 0
    else:
        b = np.array(b, dtype=np.float64)
        objective, x, y = _simplex.phase1_dense(A, b)
        feasible = objective <= feasibility_tol
        x = x.tolist()

    if feasible:
        # x >= 0 (the float solver clips it), so its nonzero entries are the atoms
        witness = ProbTable(system.variables, dict(compress(zip(atoms, x), x)), (DICHOTOMIC,) * n)
        return FeasibilityResult("feasible", witness, None, slack=0.0)

    if exact:
        # The functional's value y.b is the phase-1 objective (LP duality);
        # its maximum over atoms is taken on integer numerators of y.
        y_denominator = lcm(*(yr.denominator for yr in y))
        numerators = [yr.numerator * (y_denominator // yr.denominator) for yr in y]
        bound = Fraction(
            max(sum(yr * a for yr, a in zip(numerators, col)) for col in zip(*A_int)),
            y_denominator,
        )
        value = objective
    else:
        bound = float((y @ A).max())
        value = float(y @ b)
        y = y.tolist()
    certificate = InfeasibilityCertificate(
        normalization_coeff=y[0],
        cell_coeffs=tuple((ci, cell, yr) for (ci, cell), yr in zip(row_cells[1:], y[1:])),
        value=value,
        bound=bound,
    )
    return FeasibilityResult("infeasible", None, certificate, slack=certificate.slack)


def pair_table_from_correlation(
    ids: tuple[str, str], corr, exact: bool = False
) -> ProbTable:
    """The unique zero-mean +-1 pair table with the given correlation.

    p(a, b) = (1 + a*b*corr) / 4.  With ``exact`` the correlation is taken
    as an exact rational n/d and the cells stay Fractions (d +- n) / 4d.  A
    value that is not a number, a boolean included, is refused by name.
    """
    try:
        if isinstance(corr, bool):  # not a correlation, as dataio.json_number refuses it
            raise TypeError
        finite = isinstance(corr, (int, Fraction, str)) or isfinite(corr)
        c = (Fraction(corr) if exact else float(corr)) if finite else None
    except (TypeError, ValueError, ZeroDivisionError):
        raise ContexcertError(f"cannot read correlation {corr!r} as a number") from None
    if not finite or c != c:  # c != c for the float of "nan"
        raise ContexcertError(f"non-finite correlation {corr!r}")
    if abs(c) > 1:
        raise ContexcertError(f"correlation {corr!r} outside [-1, 1]")
    if exact:
        n, d = c.numerator, c.denominator
        same, opposite = Fraction(d + n, 4 * d), Fraction(d - n, 4 * d)
    else:
        same, opposite = 0.25 * (1 + c), 0.25 * (1 - c)
    probs = {(1, 1): same, (1, -1): opposite, (-1, 1): opposite, (-1, -1): same}
    return ProbTable(support=tuple(ids), probs=probs, alphabets=(DICHOTOMIC, DICHOTOMIC))


def zero_mean_system(
    variables: tuple[str, ...], pairs, correlations, exact: bool = False
) -> MarginalConstraintSystem:
    """Zero-mean pair tables with the given correlations, one per pair, in order."""
    return MarginalConstraintSystem(
        variables=variables,
        constraints=tuple(
            (pair, pair_table_from_correlation(pair, corr, exact))
            for pair, corr in zip(pairs, correlations)
        ),
    )
