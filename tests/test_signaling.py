import math

import numpy as np
import pytest

from contexcert.quantumgen import (
    planar_observable,
    random_density_state,
    born_table,
    sample_quantum_dataset,
)
from contexcert.scenario import Dataset, Observable, OutcomeRecord, ProbTable, Scenario
from contexcert.signaling import (
    FewerThanTwoContexts,
    NoSharedObservables,
    ObservableNotFound,
    no_signaling_test,
    signaling_deviation,
    total_variation,
)
from contexcert.tolerances import FixedTolerance, StatisticalTolerance


def pair_table(ids, p_pp, p_pm, p_mp, p_mm):
    return ProbTable(
        ids,
        {(1, 1): p_pp, (1, -1): p_pm, (-1, 1): p_mp, (-1, -1): p_mm},
        ((1, -1), (1, -1)),
    )


class TestSignalingDeviation:
    def test_identical_tables(self):
        t = pair_table(("A", "B"), 0.25, 0.25, 0.25, 0.25)
        t2 = pair_table(("A", "C"), 0.25, 0.25, 0.25, 0.25)
        assert signaling_deviation([t, t2], "A") == 0.0

    def test_hand_computed(self):
        t1 = pair_table(("A", "B"), 0.3, 0.2, 0.1, 0.4)  # p_A(+1) = 0.5
        t2 = pair_table(("A", "C"), 0.5, 0.1, 0.15, 0.25)  # p_A(+1) = 0.6
        assert math.isclose(signaling_deviation([t1, t2], "A"), 0.1, abs_tol=1e-12)

    def test_quantum_tables_no_signaling(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            state = random_density_state(4, rng)
            a = planar_observable("A", rng.uniform(0, 6.28), qubit=0)
            b = planar_observable("B", rng.uniform(0, 6.28), qubit=1)
            c = planar_observable("C", rng.uniform(0, 6.28), qubit=1)
            t_ab = born_table(state, (a, b))
            t_ac = born_table(state, (a, c))
            assert signaling_deviation([t_ab, t_ac], "A") < 1e-12

    def test_marginals_of_one_global_jpd_never_signal(self):
        # any family of tables obtained from a single global table is
        # marginal-consistent by construction
        from itertools import product

        from contexcert.scenario import marginalize

        rng = np.random.default_rng(14)
        for _ in range(20):
            w = rng.random(8)
            w /= w.sum()
            cells = list(product((1, -1), repeat=3))
            global_table = ProbTable(("A", "B", "C"), dict(zip(cells, w)), ((1, -1),) * 3)
            t_ab = marginalize(global_table, ("A", "B"))
            t_ac = marginalize(global_table, ("A", "C"))
            t_bc = marginalize(global_table, ("B", "C"))
            for obs, tables in (
                ("A", [t_ab, t_ac]),
                ("B", [t_ab, t_bc]),
                ("C", [t_ac, t_bc]),
            ):
                assert signaling_deviation(tables, obs) < 1e-12

    def test_symmetric_and_order_invariant(self):
        t1 = pair_table(("A", "B"), 0.3, 0.2, 0.1, 0.4)
        t2 = pair_table(("A", "C"), 0.5, 0.1, 0.15, 0.25)
        d12 = signaling_deviation([t1, t2], "A")
        d21 = signaling_deviation([t2, t1], "A")
        assert d12 == d21
        # permuted support carries the same information
        t2_perm = ProbTable(
            ("C", "A"),
            {(v2, v1): t2.prob((v1, v2)) for v1 in (1, -1) for v2 in (1, -1)},
            ((1, -1), (1, -1)),
        )
        assert signaling_deviation([t1, t2_perm], "A") == d12

    def test_errors(self):
        t = pair_table(("A", "B"), 0.25, 0.25, 0.25, 0.25)
        with pytest.raises(ObservableNotFound):
            signaling_deviation([t], "Z")
        with pytest.raises(FewerThanTwoContexts):
            signaling_deviation([t], "A")


class TestTotalVariation:
    def test_simple(self):
        m1 = ProbTable(("A",), {(1,): 0.5, (-1,): 0.5}, ((1, -1),))
        m2 = ProbTable(("A",), {(1,): 0.8, (-1,): 0.2}, ((1, -1),))
        assert math.isclose(total_variation(m1, m2), 0.3, abs_tol=1e-12)


def scenario_abc():
    return Scenario(
        observables=(Observable("A"), Observable("B"), Observable("C")),
        compatible_sets=(frozenset({"A", "B"}), frozenset({"A", "C"})),
    )


def dataset_from_probs(p_plus_in_ab, p_plus_in_ac, n, seed):
    """Two contexts sharing A; partner outcomes are fair and independent."""
    rng = np.random.default_rng(seed)
    s = scenario_abc()
    blocks = []
    for setting, p_plus in ((("A", "B"), p_plus_in_ab), (("A", "C"), p_plus_in_ac)):
        a_col = np.where(rng.random(n) < p_plus, 1, -1)
        partner = np.where(rng.random(n) < 0.5, 1, -1)
        blocks.append((setting, np.column_stack([a_col, partner])))
    return Dataset.from_rows(s, [(setting, row) for setting, rows in blocks for row in rows.tolist()])


class TestNoSignalingTest:
    def test_common_marginal_passes(self):
        ds = dataset_from_probs(0.5, 0.5, 100_000, seed=11)
        report = no_signaling_test(ds, StatisticalTolerance(3.0))
        assert report.verdict == "no_signaling"
        assert set(report.per_observable) == {"A"}

    def test_constructed_signaling_detected(self):
        ds = dataset_from_probs(0.5, 0.8, 100_000, seed=11)
        report = no_signaling_test(ds, StatisticalTolerance(3.0))
        assert report.verdict == "signaling"
        assert abs(report.per_observable["A"] - 0.3) < 0.02

    def test_single_context_raises(self):
        s = scenario_abc()
        ds = Dataset(s, [OutcomeRecord(("A", "B"), (1, 1))])
        with pytest.raises(NoSharedObservables):
            no_signaling_test(ds)

    def test_fixed_policy_and_monotone_in_tolerance(self):
        ds = dataset_from_probs(0.5, 0.53, 20_000, seed=2)
        dev = no_signaling_test(ds, FixedTolerance(1.0)).per_observable["A"]
        verdicts = [
            no_signaling_test(ds, FixedTolerance(eps)).verdict
            for eps in (dev / 4, dev / 2, dev * 1.01, dev * 2)
        ]
        assert verdicts == ["signaling", "signaling", "no_signaling", "no_signaling"]

    def test_quantum_sampled_dataset_passes(self):
        from contexcert.quantumgen import singlet_state

        a = planar_observable("A", 0.1, qubit=0)
        b = planar_observable("B", 0.9, qubit=1)
        c = planar_observable("C", 2.0, qubit=1)
        ds = sample_quantum_dataset(
            singlet_state(), [((a, b), 20_000), ((a, c), 20_000)], seed=42
        )
        report = no_signaling_test(ds, StatisticalTolerance(3.0))
        assert report.verdict == "no_signaling"

    def test_report_json_shape(self):
        ds = dataset_from_probs(0.5, 0.5, 1000, seed=3)
        data = no_signaling_test(ds).to_json()
        assert "per_observable" in data and "verdict" in data and "tolerance" in data
        assert data["per_observable"]["A"]["contexts"] == ["A+B", "A+C"]
