"""Marginal-consistency (no-signaling) checks across measurement contexts.

An observable's marginal should not depend on which partner it was measured
with.  The deviation reported per observable is the L-infinity mismatch over
outcome values, maximized over all pairs of contexts; the total-variation
distance is carried along as an informational field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple, Sequence

from .errors import ContexcertError
from .scenario import Dataset, ProbTable, estimate_table, marginalize
from .tolerances import StatisticalTolerance, TolerancePolicy, binomial_sigma, resolve_tolerance


class ObservableNotFound(ContexcertError):
    """The observable appears in none of the supplied tables."""


class FewerThanTwoContexts(ContexcertError):
    """Need at least two tables containing the observable to compare."""


class NoSharedObservables(ContexcertError):
    """No observable is measured in more than one context of the dataset."""


def _deviation(m1: ProbTable, m2: ProbTable) -> float:
    """L-infinity mismatch of two one-observable marginals over the first's alphabet."""
    return max(abs(float(m1.prob((v,))) - float(m2.prob((v,)))) for v in m1.alphabets[0])


def signaling_deviation(tables: Sequence[ProbTable], observable: str) -> float:
    """Max absolute marginal mismatch of one observable across the tables."""
    present = [t for t in tables if observable in t.support]
    if not present:
        raise ObservableNotFound(f"{observable!r} not in any table support")
    if len(present) < 2:
        raise FewerThanTwoContexts(f"{observable!r} appears in only one table")
    marginals = [marginalize(t, (observable,)) for t in present]
    alphabet = set(marginals[0].alphabets[0])
    for m in marginals[1:]:
        if set(m.alphabets[0]) != alphabet:
            raise ContexcertError(f"inconsistent alphabets for {observable!r}")
    return max(_deviation(m1, m2) for m1, m2 in combinations(marginals, 2))


def total_variation(m1: ProbTable, m2: ProbTable) -> float:
    """0.5 * L1 distance between two tables over the same support set."""
    if set(m1.support) != set(m2.support):
        raise ContexcertError("tables must share a support to compare")
    m2 = marginalize(m2, m1.support) if m2.support != m1.support else m2
    cells = set(m1.probs) | set(m2.probs)
    return 0.5 * math.fsum(abs(float(m1.prob(c)) - float(m2.prob(c))) for c in cells)


class Comparison(NamedTuple):
    """One observable's marginals compared between two of its contexts."""

    observable: str
    context1: tuple[str, ...]
    context2: tuple[str, ...]
    deviation: float
    total_variation: float
    tolerance: float


@dataclass(frozen=True)
class SignalingReport:
    """Every pairwise marginal comparison; the summary fields derive from them.

    ``per_observable`` is each observable's worst deviation.  ``verdict`` is
    "no_signaling" exactly when every deviation is at most ``tolerance_used``,
    the smallest per-comparison tolerance, so under the statistical policy
    the scalar comparison stays sound for every individual context pair.
    """

    comparisons: tuple[Comparison, ...]
    policy: str = ""

    @property
    def per_observable(self) -> dict[str, float]:
        worst: dict[str, float] = {}
        for c in self.comparisons:
            worst[c.observable] = max(worst.get(c.observable, 0.0), c.deviation)
        return worst

    @property
    def tolerance_used(self) -> float:
        return min(c.tolerance for c in self.comparisons)

    @property
    def verdict(self) -> str:  # "no_signaling" | "signaling"
        worst = max(self.per_observable.values())
        return "no_signaling" if worst <= self.tolerance_used else "signaling"

    def to_json(self) -> dict:
        return {
            "per_observable": {
                obs: {
                    "deviation": worst,
                    "contexts": sorted(
                        {"+".join(ctx) for c in self.comparisons if c.observable == obs
                         for ctx in (c.context1, c.context2)}
                    ),
                }
                for obs, worst in sorted(self.per_observable.items())
            },
            "verdict": self.verdict,
            "tolerance": self.tolerance_used,
            "policy": self.policy,
            "comparisons": [
                {
                    "observable": c.observable,
                    "contexts": ["+".join(c.context1), "+".join(c.context2)],
                    "deviation": c.deviation,
                    "total_variation": c.total_variation,
                    "tolerance": c.tolerance,
                }
                for c in self.comparisons
            ],
        }


def no_signaling_test(
    dataset: Dataset, policy: TolerancePolicy = StatisticalTolerance(3.0)
) -> SignalingReport:
    """Compare every shared observable's marginals across all context pairs.

    Under ``StatisticalTolerance(k)`` each comparison gets tolerance
    k * sqrt(p_pooled * (1 - p_pooled) / N_min); the scalar reported (and
    used for the verdict) is the smallest of these.
    """
    contexts: dict[str, list[tuple[tuple[str, ...], ProbTable]]] = {}
    for s in dataset.settings():
        table = estimate_table(dataset, s)
        for obs in s:
            contexts.setdefault(obs, []).append((s, table))
    shared = sorted(obs for obs, tables in contexts.items() if len(tables) >= 2)
    if not shared:
        raise NoSharedObservables(
            "no observable is measured in two or more contexts; nothing to compare"
        )

    comparisons = []
    for obs in shared:
        marginals = [(s, marginalize(t, (obs,))) for s, t in contexts[obs]]
        for (s1, m1), (s2, m2) in combinations(marginals, 2):
            n1, n2 = m1.sample_size, m2.sample_size
            pooled = [
                (n1 * float(m1.prob((v,))) + n2 * float(m2.prob((v,)))) / (n1 + n2)
                for v in m1.alphabets[0]
            ]
            tol = resolve_tolerance(
                policy, lambda k: min(k * binomial_sigma(p, min(n1, n2)) for p in pooled)
            )
            comparisons.append(
                Comparison(obs, s1, s2, _deviation(m1, m2), total_variation(m1, m2), tol)
            )
    return SignalingReport(tuple(comparisons), policy.describe())
