"""Marginal-consistency (no-signaling) checks across measurement contexts.

An observable's marginal should not depend on which partner it was measured
with.  The deviation reported per observable is the L-infinity mismatch over
outcome values, maximized over all pairs of contexts; the total-variation
distance is carried along as an informational field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations
from typing import Mapping, Sequence

from .errors import ContexcertError
from .scenario import Dataset, ProbTable, estimate_table, marginalize
from .tolerances import StatisticalTolerance, TolerancePolicy, binomial_sigma, resolve_tolerance


class ObservableNotFound(ContexcertError):
    """The observable appears in none of the supplied tables."""


class FewerThanTwoContexts(ContexcertError):
    """Need at least two tables containing the observable to compare."""


class NoSharedObservables(ContexcertError):
    """No observable is measured in more than one context of the dataset."""


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
    worst = 0.0
    for m1, m2 in combinations(marginals, 2):
        for value in alphabet:
            worst = max(worst, abs(float(m1.prob((value,))) - float(m2.prob((value,)))))
    return worst


def total_variation(m1: ProbTable, m2: ProbTable) -> float:
    """0.5 * L1 distance between two tables over the same support set."""
    if set(m1.support) != set(m2.support):
        raise ContexcertError("tables must share a support to compare")
    m2 = marginalize(m2, m1.support) if m2.support != m1.support else m2
    cells = set(m1.probs) | set(m2.probs)
    return 0.5 * math.fsum(abs(float(m1.prob(c)) - float(m2.prob(c))) for c in cells)


@dataclass(frozen=True)
class SignalingReport:
    """Per-observable worst-case marginal discrepancies plus the verdict.

    ``verdict`` is "no_signaling" exactly when every discrepancy is at most
    ``tolerance_used``; under the statistical policy ``tolerance_used`` is
    the most conservative (smallest) per-comparison k-sigma tolerance, so the
    scalar comparison stays sound for every individual context pair.
    """

    per_observable: Mapping[str, float]
    contexts_compared: tuple[tuple[tuple[str, ...], tuple[str, ...]], ...]
    verdict: str  # "no_signaling" | "signaling"
    tolerance_used: float
    policy: str = ""
    comparisons: tuple = ()

    def to_json(self) -> dict:
        per_obs = {}
        for obs in sorted(self.per_observable):
            contexts = sorted(
                {"+".join(ctx) for pair in self.contexts_compared for ctx in pair if obs in ctx}
            )
            per_obs[obs] = {
                "deviation": self.per_observable[obs],
                "contexts": contexts,
            }
        return {
            "per_observable": per_obs,
            "verdict": self.verdict,
            "tolerance": self.tolerance_used,
            "policy": self.policy,
            "comparisons": [
                {
                    "observable": obs,
                    "contexts": ["+".join(c1), "+".join(c2)],
                    "deviation": dev,
                    "total_variation": tv,
                    "tolerance": tol,
                }
                for obs, c1, c2, dev, tv, tol in self.comparisons
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
    settings = dataset.settings()
    tables = {s: estimate_table(dataset, s) for s in settings}

    shared: dict[str, list[tuple[tuple[str, ...], ProbTable]]] = {}
    for s, t in tables.items():
        for obs in s:
            shared.setdefault(obs, []).append((s, t))
    shared = {obs: ctxs for obs, ctxs in shared.items() if len(ctxs) >= 2}
    if not shared:
        raise NoSharedObservables(
            "no observable is measured in two or more contexts; nothing to compare"
        )

    per_observable: dict[str, float] = {}
    comparisons = []
    context_pairs = []
    tolerances = []
    for obs in sorted(shared):
        worst = 0.0
        for (s1, t1), (s2, t2) in combinations(shared[obs], 2):
            m1 = marginalize(t1, (obs,))
            m2 = marginalize(t2, (obs,))
            alphabet = m1.alphabets[0]
            dev = max(
                abs(float(m1.prob((v,))) - float(m2.prob((v,)))) for v in alphabet
            )
            tv = total_variation(m1, m2)
            n1 = t1.sample_size or 0
            n2 = t2.sample_size or 0
            tol = resolve_tolerance(
                policy,
                lambda k: min(
                    k
                    * binomial_sigma(
                        (n1 * float(m1.prob((v,))) + n2 * float(m2.prob((v,)))) / (n1 + n2),
                        min(n1, n2),
                    )
                    for v in alphabet
                ),
            )
            worst = max(worst, dev)
            comparisons.append((obs, s1, s2, dev, tv, tol))
            context_pairs.append((s1, s2))
            tolerances.append(tol)
        per_observable[obs] = worst

    tolerance_used = min(tolerances)
    worst_overall = max(per_observable.values())
    verdict = "no_signaling" if worst_overall <= tolerance_used else "signaling"
    return SignalingReport(
        per_observable=per_observable,
        contexts_compared=tuple(dict.fromkeys(context_pairs)),
        verdict=verdict,
        tolerance_used=tolerance_used,
        policy=policy.describe(),
        comparisons=tuple(comparisons),
    )
