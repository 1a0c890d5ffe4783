"""Decision procedure for global joint-distribution existence.

Given lower-order probability tables over subsets of n dichotomic (+-1)
observables, decide whether one global distribution over all 2^n outcome
atoms marginalizes to every table.  This is a pure linear feasibility
problem; it is solved directly (phase-1 simplex, no external solver) so that
the inequality tests elsewhere in the package can be cross-validated against
an independent ground truth.

A feasible system yields a witness table; an infeasible one yields a
separating linear functional over the constraint cells: the functional's
value on the supplied data exceeds its maximum over the marginal polytope
by the reported slack.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import lcm
from typing import Any

import numpy as np

from . import _simplex
from .belltests import ChshInput, TripleInput, chsh_max
from .errors import ContexcertError
from .scenario import DICHOTOMIC, ProbTable
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
        if len(set(variables)) != len(variables):
            raise ContexcertError("duplicate variables in constraint system")
        constraints = tuple((tuple(sup), table) for sup, table in self.constraints)
        object.__setattr__(self, "constraints", constraints)
        for sup, table in constraints:
            if tuple(table.support) != sup:
                raise ContexcertError(f"constraint support {sup} does not match its table")
            if not set(sup) <= set(variables):
                raise ContexcertError(f"constraint support {sup} not within variables")
            for alphabet in table.alphabets:
                if set(alphabet) != {1, -1}:
                    raise ContexcertError("oracle accepts only +-1 alphabets")


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
    """Constraint matrix skeleton for n variables and the given supports.

    Row 0 is normalization; every further row fixes one constraint cell.
    Atom j assigns +1 to variable i when bit (n-1-i) of j is 0.
    """
    n_atoms = 1 << n
    atoms = np.arange(n_atoms)
    bits = (atoms[None, :] >> (n - 1 - np.arange(n)[:, None])) & 1  # (n, n_atoms)
    rows = [np.ones(n_atoms)]
    row_cells: list[tuple[int, tuple] | None] = [None]
    for ci, sup in enumerate(supports):
        k = len(sup)
        cell_idx = np.zeros(n_atoms, dtype=np.int64)
        for i in sup:
            cell_idx = (cell_idx << 1) | bits[i]
        # The last cell of each table is implied by normalization plus the
        # other cells, so its row is omitted to keep the tableau small.
        for c in range((1 << k) - 1):
            rows.append((cell_idx == c).astype(np.float64))
            cell = tuple(1 if ((c >> (k - 1 - t)) & 1) == 0 else -1 for t in range(k))
            row_cells.append((ci, cell))
    A = np.asarray(rows)
    A.setflags(write=False)
    return A, tuple(row_cells)


def _atom_outcomes(n: int, j: int) -> tuple[int, ...]:
    return tuple(1 if ((j >> (n - 1 - i)) & 1) == 0 else -1 for i in range(n))


def _signaling_precheck(
    system: MarginalConstraintSystem, supports: tuple[tuple[int, ...], ...], tol: float, exact: bool
) -> None:
    # Direct marginal sums; building ProbTable objects here would dominate
    # the runtime of grid-scale feasibility sweeps.  Exact tables are summed
    # as integer numerators over one common denominator, which is exact and
    # avoids a gcd per Fraction addition.
    if exact:
        denominator = lcm(
            *(p.denominator for _, table in system.constraints for p in table.probs.values())
        )
        value = lambda p: p.numerator * (denominator // p.denominator)
    else:
        value = float
    plus_marginals: dict[str, list] = {}
    for sup, table in system.constraints:
        for pos, obs in enumerate(sup):
            p_plus = 0
            for cell, p in table.probs.items():
                if cell[pos] == 1:
                    p_plus += value(p)
            plus_marginals.setdefault(obs, []).append(p_plus)
    for obs, values in plus_marginals.items():
        if len(values) >= 2 and max(values) - min(values) > tol:
            raise _disagreement(obs, tol)
    # tables that share two or more variables must agree on their joint marginal too
    for keep in _shared_sets(supports):
        vectors = []  # each table's cell sums over keep, cells in product order
        for (_, table), sup in zip(system.constraints, supports):
            if set(keep) <= set(sup):
                positions = [sup.index(v) for v in keep]
                sums = dict.fromkeys(product(DICHOTOMIC, repeat=len(keep)), 0)
                for cell, p in table.probs.items():
                    sums[tuple(cell[i] for i in positions)] += value(p)
                vectors.append(sums.values())
        if any(max(cell) - min(cell) > tol for cell in zip(*vectors)):
            raise _disagreement(",".join(system.variables[i] for i in keep), tol)


@lru_cache(maxsize=128)
def _shared_sets(supports: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    """Each set of two or more variable indices that two supports share, sorted;
    cached, as a grid sweep asks the oracle about one support pattern many times."""
    sets = [set(sup) for sup in supports]
    shared = (s & t for i, s in enumerate(sets) for t in sets[i + 1 :])
    return tuple(dict.fromkeys(tuple(sorted(common)) for common in shared if len(common) > 1))


def _disagreement(names: str, tol: float) -> InconsistentConstraints:
    return InconsistentConstraints(
        f"constraint tables disagree on the marginal of {names} "
        f"beyond {tol:g}; the system is signaling, not merely infeasible"
    )


def jpd_feasible(
    system: MarginalConstraintSystem,
    feasibility_tol: float = FEASIBILITY_TOL,
    exact: bool = False,
) -> FeasibilityResult:
    """Decide global-JPD existence for the constraint system.

    ``feasibility_tol``, finite and >= 0, bounds the phase-1 objective (total
    residual mass) below which the system counts as feasible; the signaling
    precheck allows ``SIGNALING_PRECHECK_TOL``.  In ``exact`` mode every constraint
    table must carry Fraction/int probabilities summing to exactly 1, and
    the decision, signaling precheck included, is tolerance-free: witness
    and certificate entries are Fractions, where float mode gives floats.
    """
    require_nonnegative(feasibility_tol, "feasibility_tol")
    n = len(system.variables)
    if n > MAX_VARIABLES:
        raise TooManyVariables(f"{n} variables exceed the cap of {MAX_VARIABLES}")
    if n == 0 or not system.constraints:
        raise ContexcertError("constraint system is empty")
    if exact:
        _check_exact_tables(system)
    var_index = {v: i for i, v in enumerate(system.variables)}
    supports = tuple(
        tuple(var_index[obs] for obs in sup) for sup, _ in system.constraints
    )
    _signaling_precheck(system, supports, 0 if exact else SIGNALING_PRECHECK_TOL, exact)

    A, row_cells = _lp_pattern(n, supports)
    number = Fraction if exact else float
    b = [number(1)]
    for ci, cell in row_cells[1:]:
        b.append(number(system.constraints[ci][1].prob(cell)))

    if exact:
        A_int = np.asarray(A, dtype=np.int64).tolist()
        objective, x, y = _simplex.phase1_exact(A_int, b)
        feasible = objective == 0
    else:
        b = np.array(b)
        objective, x, y = _simplex.phase1_dense(A, b)
        feasible = objective <= feasibility_tol
        x = x.tolist()

    if feasible:
        probs = {_atom_outcomes(n, j): x[j] for j in range(1 << n) if x[j] > 0}
        witness = ProbTable(system.variables, probs, (DICHOTOMIC,) * n)
        return FeasibilityResult("feasible", witness, None, slack=0.0)

    if exact:
        # The functional's maximum over atoms, on integer numerators of y.
        denominator = lcm(*(yr.denominator for yr in y))
        numerators = [yr.numerator * (denominator // yr.denominator) for yr in y]
        bound = Fraction(
            max(sum(yr * a for yr, a in zip(numerators, col)) for col in zip(*A_int)),
            denominator,
        )
        value = sum(yi * bi for yi, bi in zip(y, b))
    else:
        bound = float((y @ A).max())
        value = float(y @ b)
        y = y.tolist()
    certificate = InfeasibilityCertificate(
        normalization_coeff=y[0],
        cell_coeffs=tuple(
            (rc[0], rc[1], y[r]) for r, rc in enumerate(row_cells) if rc is not None
        ),
        value=value,
        bound=bound,
    )
    return FeasibilityResult("infeasible", None, certificate, slack=certificate.slack)


def _check_exact_tables(system: MarginalConstraintSystem) -> None:
    for ci, (sup, table) in enumerate(system.constraints):
        if not table.is_exact:
            raise ContexcertError("exact mode requires Fraction-valued tables")
        # _lp_pattern drops each table's last cell as implied by normalization,
        # which holds only up to NORMALIZATION_TOL unless the sum is exactly 1
        total = sum(table.probs.values())
        if total != 1:
            raise ContexcertError(
                f"exact mode requires each table to sum to exactly 1; "
                f"constraint {ci} over {','.join(sup)} sums to {total}"
            )


def pair_table_from_correlation(
    ids: tuple[str, str], corr, exact: bool = False
) -> ProbTable:
    """The unique zero-mean +-1 pair table with the given correlation.

    p(a, b) = (1 + a*b*corr) / 4.  With ``exact`` the correlation is taken
    as an exact rational and the cells stay Fractions.
    """
    c = Fraction(corr) if exact else float(corr)
    if abs(c) > 1:
        raise ContexcertError(f"correlation {corr!r} outside [-1, 1]")
    quarter = Fraction(1, 4) if exact else 0.25
    probs = {
        (a, b): quarter * (1 + a * b * c)
        for a in DICHOTOMIC
        for b in DICHOTOMIC
    }
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


def triple_system_from_correlations(
    c12, c23, c13, ids: tuple[str, str, str] = ("X1", "X2", "X3"), exact: bool = False
) -> MarginalConstraintSystem:
    x1, x2, x3 = ids
    return zero_mean_system(ids, ((x1, x2), (x2, x3), (x1, x3)), (c12, c23, c13), exact)


def quadrupole_system_from_chsh(
    chsh: ChshInput, exact: bool = False
) -> MarginalConstraintSystem:
    """Zero-mean pair tables induced from the four CHSH correlations."""
    return zero_mean_system(
        chsh.a_block + chsh.b_block, chsh.term_pairs, chsh.term_values(), exact
    )


def triple_jpd_feasible(
    triple: TripleInput,
    feasibility_tol: float = FEASIBILITY_TOL,
    exact: bool = False,
) -> FeasibilityResult:
    """JPD existence for a zero-mean correlation triple via the induced tables."""
    triple.require_zero_mean()
    system = zero_mean_system(triple.triple, triple.pairs, triple.pair_values(), exact)
    return jpd_feasible(system, feasibility_tol=feasibility_tol, exact=exact)


def fine_equivalence_check(chsh: ChshInput, tolerance: float = FEASIBILITY_TOL) -> bool:
    """True iff LP feasibility and the permutation-maximum inequality agree."""
    result = jpd_feasible(quadrupole_system_from_chsh(chsh), feasibility_tol=tolerance)
    violated = chsh_max(chsh) > 2 + tolerance
    return result.feasible != violated
