"""Inequality test battery with pass/reject certification semantics.

Verdict polarity follows the certification convention used throughout the
package: a sequence *passes* a contextuality test when the tested inequality
is VIOLATED; when the inequality holds, the sequence is rejected as
noncontextual.  Outcomes are an enum rather than a boolean precisely to keep
that polarity impossible to misread.  ``_verdict`` alone writes the polarity,
``_require_pairs`` alone checks that every pair a test reads was measured, and
``tolerances.require_nonnegative`` checks every number a test takes:
``tolerance``, ``delta`` and ``TripleInput.zero_mean_tolerance``.

Tests:

* CHSH with the permutation maximum (four placements of the minus sign,
  classical bound 2),
* the two-sided three-correlation condition for zero-mean observables
  (lower bound -1, upper bound 1 + 2*min of the pairwise correlations),
* the original three-term inequality that additionally requires one pair to
  be precisely (anti)correlated, classical bound 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Mapping

import numpy as np

from .errors import ContexcertError
from .scenario import CorrelationSet
from .tolerances import correlation_sigma, require_nonnegative


class MissingPair(ContexcertError):
    """A required pair correlation is absent from the input."""


class ZeroMeanViolated(ContexcertError):
    """Per-observable means exceed the declared zero-mean tolerance."""


class CorrelationConstraintUnmet(ContexcertError):
    """The designated pair is not precisely (anti)correlated within delta."""


class MissingSampleSizes(ContexcertError):
    """Statistical tolerance requested but pair sample sizes are unknown."""


class Outcome(str, Enum):
    REJECTED_NONCONTEXTUAL = "rejected_noncontextual"
    PASSED_CONTEXTUALITY_TEST = "passed_contextuality_test"


@dataclass(frozen=True)
class TestVerdict:
    """One certification verdict.

    ``margin`` is the signed violation amount (statistic minus the relevant
    bound for one-sided tests, signed distance outside the allowed band for
    two-sided ones); it is positive exactly when the outcome is
    ``PASSED_CONTEXTUALITY_TEST`` at tolerance 0.
    """

    test_name: str
    statistic: float
    bound: float
    outcome: Outcome
    margin: float
    details: Mapping[str, Any] = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "test": self.test_name,
            "statistic": self.statistic,
            "bound": self.bound,
            "outcome": self.outcome.value,
            "margin": self.margin,
            "details": jsonable(self.details),
        }


def _verdict(test_name, statistic, bound, violated, margin, details) -> TestVerdict:
    """The polarity rule: a test passes exactly when its inequality is ``violated``."""
    outcome = Outcome.PASSED_CONTEXTUALITY_TEST if violated else Outcome.REJECTED_NONCONTEXTUAL
    return TestVerdict(test_name, statistic, bound, outcome, margin, details)


def _require_pairs(correlations: CorrelationSet, pairs) -> None:
    """Raise :class:`MissingPair` for the first of ``pairs`` not in ``correlations``."""
    for a, b in pairs:
        if not correlations.has_pair(a, b):
            raise MissingPair(f"missing correlation for pair ({a}, {b})")


def jsonable(value: Any) -> Any:
    """Plain JSON types: string keys, lists for tuples, Python scalars for numpy ones."""
    if isinstance(value, Mapping):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    return value


@dataclass(frozen=True)
class ChshInput:
    """Four cross-block pair correlations for the quadrupole scenario."""

    correlations: CorrelationSet
    a_block: tuple[str, str] = ("A1", "A2")
    b_block: tuple[str, str] = ("B1", "B2")

    def __post_init__(self) -> None:
        object.__setattr__(self, "a_block", tuple(self.a_block))
        object.__setattr__(self, "b_block", tuple(self.b_block))
        if len(set(self.a_block + self.b_block)) != 4:
            raise ContexcertError("CHSH blocks must name four distinct observables")
        _require_pairs(self.correlations, self.term_pairs)

    @property
    def term_pairs(self) -> tuple[tuple[str, str], ...]:
        a1, a2 = self.a_block
        b1, b2 = self.b_block
        return ((a1, b1), (a1, b2), (a2, b1), (a2, b2))

    def term_values(self) -> tuple[float, float, float, float]:
        return tuple(self.correlations.value(a, b) for a, b in self.term_pairs)


def chsh_value(chsh: ChshInput, sign_position: int = 4) -> float:
    """CHSH combination with the minus sign on the given term (1..4).

    Terms are ordered (A1,B1), (A1,B2), (A2,B1), (A2,B2); position 4 gives
    the canonical form <A1B1> + <A1B2> + <A2B1> - <A2B2>.
    """
    if sign_position not in (1, 2, 3, 4):
        raise ContexcertError(f"sign_position must be 1..4, got {sign_position}")
    return math.fsum(-v if i == sign_position else v for i, v in enumerate(chsh.term_values(), 1))


def chsh_max(chsh: ChshInput) -> float:
    """Maximum of |CHSH| over the four placements of the minus sign.

    This set of values is the full orbit of the within-block and block
    permutations, so the classical (JPD-representable) bound is 2.
    """
    return max(abs(chsh_value(chsh, k)) for k in (1, 2, 3, 4))


def chsh_test(chsh: ChshInput, tolerance: float = 0.0) -> TestVerdict:
    require_nonnegative(tolerance, "tolerance")
    statistic = chsh_max(chsh)
    details = {
        "term_pairs": [list(p) for p in chsh.term_pairs],
        "term_values": list(chsh.term_values()),
        "values_by_sign_position": {str(k): chsh_value(chsh, k) for k in (1, 2, 3, 4)},
        "tolerance": tolerance,
    }
    return _verdict("chsh", statistic, 2.0, statistic > 2.0 + tolerance, statistic - 2.0, details)


def chsh_ksigma(chsh: ChshInput, k: float) -> float:
    """k-sigma tolerance for the CHSH statistic from pair sample sizes."""
    return _sum_ksigma(chsh.correlations, chsh.term_pairs, k)


def _sum_ksigma(correlations: CorrelationSet, pairs, k: float) -> float:
    var = 0.0
    for a, b in pairs:
        n = correlations.sample_size(a, b)
        if not n:
            raise MissingSampleSizes(f"no sample size recorded for pair ({a}, {b})")
        var += correlation_sigma(correlations.value(a, b), n) ** 2
    return k * math.sqrt(var)


@dataclass(frozen=True)
class TripleInput:
    """Three pairwise correlations of zero-mean +-1 observables."""

    correlations: CorrelationSet
    triple: tuple[str, str, str] = ("X1", "X2", "X3")
    zero_mean_tolerance: float = 0.01

    def __post_init__(self) -> None:
        object.__setattr__(self, "triple", tuple(self.triple))
        if len(set(self.triple)) != 3:
            raise ContexcertError("triple must name three distinct observables")
        require_nonnegative(self.zero_mean_tolerance, "zero_mean_tolerance")
        _require_pairs(self.correlations, self.pairs)

    @property
    def pairs(self) -> tuple[tuple[str, str], ...]:
        x1, x2, x3 = self.triple
        return ((x1, x2), (x2, x3), (x1, x3))

    def pair_values(self) -> tuple[float, float, float]:
        return tuple(self.correlations.value(a, b) for a, b in self.pairs)

    def require_zero_mean(self) -> float:
        """The largest |mean| over the triple; raises ZeroMeanViolated above the tolerance."""
        worst = self.correlations.max_abs_mean(self.triple)
        if worst > self.zero_mean_tolerance:
            raise ZeroMeanViolated(
                f"|mean| = {worst:g} exceeds zero-mean tolerance "
                f"{self.zero_mean_tolerance:g}; the triple condition does not apply"
            )
        return worst


def sz_bounds(c12: float, c23: float, c13: float) -> tuple[float, float]:
    """Allowed band for the correlation sum: [-1, 1 + 2*min(correlations)]."""
    return -1.0, 1.0 + 2.0 * min(c12, c23, c13)


def sz_test(triple: TripleInput, tolerance: float = 0.0) -> TestVerdict:
    """Two-sided test of the zero-mean triple-JPD existence condition."""
    require_nonnegative(tolerance, "tolerance")
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
    return _verdict("suppes-zanotti", statistic, bound, violated, margin, details)


def sz_ksigma(triple: TripleInput, k: float) -> float:
    return _sum_ksigma(triple.correlations, triple.pairs, k)


def original_bell_test(
    correlations: CorrelationSet,
    a1: str = "A1",
    a2: str = "A2",
    b1: str = "B1",
    b2: str = "B2",
    delta: float = 0.01,
    tolerance: float = 0.0,
) -> TestVerdict:
    """Three-term inequality under the precise-correlation constraint.

    Requires <A2 B1> >= 1 - delta (correlation branch) or <= -1 + delta
    (anti-correlation branch).  On the anti branch the A2 sign is flipped in
    the bookkeeping so the same bound 1 applies; the reported statistic is
    the branch-adjusted  <A1B1> + <A1B2> -+ <A2B2>.

    Details carry the equivalent three-observable condition after the
    additional A1 -> -A1 flip: its lower side (-1 <= sum) is exactly
    statistic <= 1, and its upper side is reported for completeness.
    """
    require_nonnegative(tolerance, "tolerance")
    require_nonnegative(delta, "delta")
    _require_pairs(correlations, ((a1, b1), (a1, b2), (a2, b2), (a2, b1)))

    constraint_value = correlations.value(a2, b1)
    if constraint_value >= 1.0 - delta:
        branch, sign = "correlation", 1.0
    elif constraint_value <= -1.0 + delta:
        branch, sign = "anti-correlation", -1.0
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

    # Sign-flipped triple (A1 -> -A1, with B1 identified with sign*A2):
    # correlations (-c11, -c12, sign*c22); its lower-side check mirrors the
    # statistic, the upper side completes the two-sided JPD condition.
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
    return _verdict("bell-original", statistic, 1.0, violated, statistic - 1.0, details)


def original_bell_ksigma(
    correlations: CorrelationSet, a1: str, a2: str, b1: str, b2: str, k: float
) -> float:
    return _sum_ksigma(correlations, ((a1, b1), (a1, b2), (a2, b2)), k)


def original_bell_singlet_maximum(step: float = 0.001) -> tuple[float, tuple[float, ...]]:
    """Grid-search the singlet statistic under the precise anti-correlation
    constraint.

    The constraint pins the A2 and B1 angles together; a global rotation then
    fixes them to 0, leaving the A1 and B2 angles free on a ``step`` grid.
    Returns (max statistic, (a1, a2, b1, b2) attaining it).  The analytic
    maximum is 3/2.
    """
    grid = np.arange(0.0, 2.0 * math.pi, step)
    cos_grid = np.cos(grid)
    best = -math.inf
    best_angles = (0.0, 0.0, 0.0, 0.0)
    chunk = 512  # rows of the (a1, b2) grid per vectorized block
    # statistic = -(cos u + cos w + cos(u + w)) with u = a1, w = -b2
    for start in range(0, grid.size, chunk):
        u = grid[start : start + chunk]
        vals = -(
            cos_grid[start : start + chunk, None]
            + cos_grid[None, :]
            + np.cos(u[:, None] + grid[None, :])
        )
        idx = np.unravel_index(np.argmax(vals), vals.shape)
        if vals[idx] > best:
            best = float(vals[idx])
            best_angles = (float(u[idx[0]]), 0.0, 0.0, float(-grid[idx[1]] % (2.0 * math.pi)))
    return best, best_angles
