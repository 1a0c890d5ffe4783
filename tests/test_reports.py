"""Signaling and randomness reports derive their summaries from their records.

``SignalingReport`` stores its pairwise comparisons and the policy; the
per-observable worst deviation, the tolerance and the verdict are computed
from the comparisons.  ``RandomnessReport.verdict`` is read off the selection
statuses.  The property tests keep the former ``no_signaling_test``, which
stored every summary field beside the comparisons, as the reference.
"""

from dataclasses import dataclass
from itertools import combinations
from typing import Mapping

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contexcert.randomtests import (
    AllSelectionsInconclusive,
    LabelSequence,
    PlaceSelection,
    randomness_test,
    selection_mask,
)
from contexcert.scenario import (
    Dataset,
    Observable,
    Scenario,
    estimate_table,
    marginalize,
)
from contexcert.signaling import (
    NoSharedObservables,
    SignalingReport,
    no_signaling_test,
    signaling_deviation,
    total_variation,
)
from contexcert.tolerances import (
    FixedTolerance,
    StatisticalTolerance,
    binomial_sigma,
    resolve_tolerance,
)

POLICIES = [
    StatisticalTolerance(3.0),
    StatisticalTolerance(0.5),
    FixedTolerance(0.05),
    FixedTolerance(0.0),
]
ALPHABETS = [(1, -1), ("x", "y", "z"), ("up", "down"), (0, "z", "x")]


# ------------------------------------------------ reference: the former report


@dataclass(frozen=True)
class ReferenceSignalingReport:
    per_observable: Mapping[str, float]
    contexts_compared: tuple
    verdict: str
    tolerance_used: float
    policy: str = ""
    comparisons: tuple = ()

    def to_json(self) -> dict:
        per_obs = {}
        for obs in sorted(self.per_observable):
            contexts = sorted(
                {"+".join(ctx) for pair in self.contexts_compared for ctx in pair if obs in ctx}
            )
            per_obs[obs] = {"deviation": self.per_observable[obs], "contexts": contexts}
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


def reference_no_signaling_test(dataset, policy):
    tables = {s: estimate_table(dataset, s) for s in dataset.settings()}
    shared = {}
    for s, t in tables.items():
        for obs in s:
            shared.setdefault(obs, []).append((s, t))
    shared = {obs: ctxs for obs, ctxs in shared.items() if len(ctxs) >= 2}
    if not shared:
        raise NoSharedObservables("nothing to compare")
    per_observable, comparisons, context_pairs, tolerances = {}, [], [], []
    for obs in sorted(shared):
        worst = 0.0
        for (s1, t1), (s2, t2) in combinations(shared[obs], 2):
            m1 = marginalize(t1, (obs,))
            m2 = marginalize(t2, (obs,))
            alphabet = m1.alphabets[0]
            dev = max(abs(float(m1.prob((v,))) - float(m2.prob((v,)))) for v in alphabet)
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
    verdict = "no_signaling" if max(per_observable.values()) <= tolerance_used else "signaling"
    return ReferenceSignalingReport(
        per_observable=per_observable,
        contexts_compared=tuple(dict.fromkeys(context_pairs)),
        verdict=verdict,
        tolerance_used=tolerance_used,
        policy=policy.describe(),
        comparisons=tuple(comparisons),
    )


# ------------------------------------------------ datasets


@st.composite
def shared_datasets(draw):
    """2-8 contexts sharing ``S``, with partners that may share among
    themselves, ±1, string and mixed alphabets, blocks split and reordered,
    and sizes up to 10:1 apart.

    With ``identical`` every context carries the same ``S`` column, so every
    ``S`` deviation is exactly zero."""
    k = draw(st.integers(2, 8))
    alphabet_of = {"S": draw(st.sampled_from(ALPHABETS))}
    for i in range(k):
        alphabet_of[f"P{i}"] = draw(st.sampled_from(ALPHABETS))
    contexts = [("S", f"P{i}") for i in range(k)]
    contexts += [(f"P{i}", f"P{i + 1}") for i in range(k - 1) if draw(st.booleans())]
    base = draw(st.integers(1, 60))
    identical = draw(st.booleans())
    sizes = [base if identical else base * draw(st.sampled_from([1, 2, 10])) for _ in contexts]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    s_column = rng.integers(0, len(alphabet_of["S"]), base)

    blocks = []
    for (a, b), n in zip(contexts, sizes):
        codes = {
            obs: s_column if identical and obs == "S" else rng.integers(0, len(alphabet_of[obs]), n)
            for obs in (a, b)
        }
        values = np.column_stack(
            [np.asarray(alphabet_of[obs], dtype=object)[codes[obs]] for obs in (a, b)]
        )
        cut = draw(st.integers(0, n))
        blocks.append(((a, b), values[:cut]))
        if draw(st.booleans()):  # the same setting with its ids the other way round
            blocks.append(((b, a), values[cut:, ::-1]))
        else:
            blocks.append(((a, b), values[cut:]))
    order = draw(st.permutations(range(len(blocks))))
    scenario = Scenario(
        tuple(Observable(obs, alphabet) for obs, alphabet in alphabet_of.items()),
        tuple(frozenset(c) for c in contexts),
    )
    blocks = [blocks[i] for i in order]
    return Dataset.from_rows(scenario, [(s, row) for s, rows in blocks for row in rows.tolist()])


def summary(report):
    """What a report shows: its JSON, and its derived fields in their order."""
    return (
        report.to_json(),
        list(report.per_observable.items()),
        report.tolerance_used,
        report.verdict,
    )


# ------------------------------------------------ signaling


class TestSignalingReport:
    @settings(max_examples=200, deadline=None)
    @given(dataset=shared_datasets(), policy=st.sampled_from(POLICIES))
    def test_matches_stored_field_reference(self, dataset, policy):
        report = no_signaling_test(dataset, policy)
        assert summary(report) == summary(reference_no_signaling_test(dataset, policy))
        assert report.policy == policy.describe()

    @settings(max_examples=100, deadline=None)
    @given(dataset=shared_datasets())
    def test_signaling_deviation_is_the_worst_comparison(self, dataset):
        report = no_signaling_test(dataset, FixedTolerance(0.0))
        tables = [estimate_table(dataset, s) for s in dataset.settings()]
        for obs, worst in report.per_observable.items():
            deviations = [c.deviation for c in report.comparisons if c.observable == obs]
            assert signaling_deviation(tables, obs) == max(deviations) == worst

    def test_report_stores_only_comparisons_and_policy(self):
        fields = SignalingReport.__dataclass_fields__
        assert list(fields) == ["comparisons", "policy"]
        for name in ("per_observable", "tolerance_used", "verdict"):
            assert isinstance(vars(SignalingReport)[name], property)

    def test_tie_at_the_tolerance_is_no_signaling(self):
        scenario = Scenario(
            (Observable("S"), Observable("P"), Observable("Q")),
            (frozenset("SP"), frozenset("SQ")),
        )
        rows = [(1, 1), (-1, -1)]
        dataset = Dataset.from_rows(scenario, [(s, row) for s in (("S", "P"), ("S", "Q")) for row in rows])
        report = no_signaling_test(dataset, FixedTolerance(0.0))
        assert report.per_observable == {"S": 0.0}
        assert report.verdict == "no_signaling"

    def test_no_shared_observable_raises(self):
        scenario = Scenario((Observable("S"), Observable("P")), (frozenset("SP"),))
        dataset = Dataset.from_rows(scenario, [(("S", "P"), (1, -1))])
        with pytest.raises(NoSharedObservables):
            no_signaling_test(dataset)

    def test_each_marginal_counted_once(self, monkeypatch):
        from contexcert import signaling

        calls = []

        def counting(table, keep):
            calls.append((table.support, tuple(keep)))
            return marginalize(table, keep)

        monkeypatch.setattr(signaling, "marginalize", counting)
        scenario = Scenario(
            tuple(Observable(o) for o in ("S", "P0", "P1", "P2", "P3")),
            tuple(frozenset({"S", f"P{i}"}) for i in range(4)),
        )
        rows = [(1, 1), (-1, 1)]
        dataset = Dataset.from_rows(scenario, [(("S", f"P{i}"), row) for i in range(4) for row in rows])
        no_signaling_test(dataset)
        assert sorted(calls) == sorted(set(calls))
        assert len(calls) == 4


# ------------------------------------------------ randomness


SELECTIONS = [
    PlaceSelection.prime_index(),
    PlaceSelection.index_arithmetic(2, 0),
    PlaceSelection.index_arithmetic(50, 3),
    PlaceSelection.external_coin(5, 0.1),
]


@st.composite
def battery_runs(draw):
    labels = draw(st.sampled_from([(1, -1), ("a", "b", "c")]))
    n = draw(st.integers(20, 2000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):  # a periodic stream the even positions catch
        values = [labels[i % len(labels)] for i in range(n)]
    else:
        values = [labels[i] for i in rng.integers(0, len(labels), n)]
    pattern = PlaceSelection.after_pattern(labels[:2])
    selections = draw(st.lists(st.sampled_from(SELECTIONS + [pattern]), min_size=1, max_size=4))
    policies = [StatisticalTolerance(4.0), StatisticalTolerance(0.5), FixedTolerance(0.01)]
    policy = draw(st.sampled_from(policies))
    min_retained = draw(st.sampled_from([30, 100]))
    return LabelSequence(labels, tuple(values)), selections, policy, min_retained


class TestRandomnessVerdict:
    @settings(max_examples=150, deadline=None)
    @given(run=battery_runs())
    def test_verdict_follows_the_selection_statuses(self, run):
        seq, selections, policy, min_retained = run
        try:
            report = randomness_test(seq, selections, policy, min_retained)
        except AllSelectionsInconclusive:
            retained = [int(selection_mask(seq, sel).sum()) for sel in selections]
            assert all(r < min_retained for r in retained)
            return
        statuses = [r.status for r in report.per_selection]
        assert "ok" in statuses or "deviant" in statuses
        for r in report.per_selection:
            assert (r.status == "inconclusive") == (r.retained < min_retained)
        assert report.verdict == ("failed" if "deviant" in statuses else "passed")
        assert report.to_json()["verdict"] == report.verdict
