import math

import numpy as np
import pytest

from contexcert import suite
from contexcert.dataio import dumps_json
from contexcert.errors import ContexcertError
from contexcert.quantumgen import (
    planar_observable,
    sample_lhv_dataset,
    sample_quantum_dataset,
    singlet_state,
    sphere_lhv_model,
)
from contexcert.scenario import Dataset, Observable, OutcomeRecord, Scenario
from contexcert.suite import (
    RunConfig,
    find_quadrupole,
    find_triangle,
    run_full_suite,
    run_inequality_test,
)


def tsirelson_dataset(n=20_000, seed=5):
    angles = {"A1": 0.0, "A2": math.pi / 2, "B1": math.pi / 4, "B2": 3 * math.pi / 4}
    obs = {
        k: planar_observable(k, v, qubit=0 if k.startswith("A") else 1)
        for k, v in angles.items()
    }
    settings = [((obs[x], obs[y]), n) for x in ("A1", "A2") for y in ("B1", "B2")]
    return sample_quantum_dataset(singlet_state(), settings, seed=seed)


class TestStructureDetection:
    def test_quadrupole_found(self):
        ds = tsirelson_dataset(n=100)
        assert find_quadrupole(ds) == (("A1", "A2"), ("B1", "B2"))

    def test_triangle_absent_in_quadrupole(self):
        ds = tsirelson_dataset(n=100)
        assert find_triangle(ds) is None

    def test_triangle_found(self):
        s = Scenario(
            observables=(Observable("X1"), Observable("X2"), Observable("X3")),
            compatible_sets=(
                frozenset({"X1", "X2"}),
                frozenset({"X2", "X3"}),
                frozenset({"X1", "X3"}),
            ),
        )
        recs = []
        for pair in (("X1", "X2"), ("X2", "X3"), ("X1", "X3")):
            recs += [OutcomeRecord(pair, (1, -1)), OutcomeRecord(pair, (-1, 1))]
        ds = Dataset(s, recs)
        assert find_triangle(ds) == ("X1", "X2", "X3")


class TestFullSuite:
    def test_tsirelson_pipeline(self):
        ds = tsirelson_dataset()
        report = run_full_suite(ds, RunConfig(seed=5))
        data = report.to_json()
        assert data["summary"]["chsh"] == "passed_contextuality_test"
        assert data["summary"]["signaling"] == "no_signaling"
        quad_oracle = [o for o in data["oracle"] if o["system"] == "quadrupole"]
        assert quad_oracle[0]["status"] == "infeasible"
        assert quad_oracle[0]["agrees_with_chsh"]
        assert all(v == "passed" for v in data["summary"]["randomness"].values())

    def test_lhv_pipeline(self):
        rng = np.random.default_rng(7)
        axes = {k: rng.normal(size=3) for k in ("A1", "A2", "B1", "B2")}
        model = sphere_lhv_model(axes)
        pairs = [(x, y) for x in ("A1", "A2") for y in ("B1", "B2")]
        ds = sample_lhv_dataset(model, [(p, 20_000) for p in pairs], seed=7)
        report = run_full_suite(ds, RunConfig(seed=7))
        data = report.to_json()
        assert data["summary"]["chsh"] == "rejected_noncontextual"
        quad_oracle = [o for o in data["oracle"] if o["system"] == "quadrupole"]
        assert quad_oracle[0]["status"] == "feasible"

    def test_triple_pipeline(self):
        axes = {"X1": (0, 0, 1.0), "X2": (1.0, 0, 0), "X3": (0, 1.0, 0)}
        model = sphere_lhv_model(axes)
        pairs = [("X1", "X2"), ("X2", "X3"), ("X1", "X3")]
        ds = sample_lhv_dataset(model, [(p, 20_000) for p in pairs], seed=3)
        data = run_full_suite(ds, RunConfig(seed=3)).to_json()
        assert data["summary"]["suppes-zanotti"] == "rejected_noncontextual"
        tri_oracle = [o for o in data["oracle"] if o["system"] == "triple"]
        assert tri_oracle[0]["status"] == "feasible"
        assert tri_oracle[0]["agrees_with_sz"]
        skipped = {t["test"] for t in data["tests"] if t.get("status") == "skipped"}
        assert {"chsh", "bell-original"} <= skipped

    def test_partial_dataset_skips(self):
        a = planar_observable("A1", 0.0, qubit=0)
        b = planar_observable("B1", 0.5, qubit=1)
        b2 = planar_observable("B2", 1.5, qubit=1)
        ds = sample_quantum_dataset(
            singlet_state(), [((a, b), 2000), ((a, b2), 2000)], seed=3
        )
        report = run_full_suite(ds, RunConfig(seed=3))
        data = report.to_json()
        skipped = {t["test"] for t in data["tests"] if t.get("status") == "skipped"}
        assert {"chsh", "bell-original", "suppes-zanotti"} <= skipped
        # randomness still runs on the available streams
        assert data["summary"]["randomness"]

    def test_report_deterministic(self):
        ds = tsirelson_dataset(n=2000, seed=9)
        config = RunConfig(seed=9)
        r1 = dumps_json(run_full_suite(ds, config).to_json())
        r2 = dumps_json(run_full_suite(ds, config).to_json())
        assert r1 == r2

    def test_report_embeds_reproduction_metadata(self):
        ds = tsirelson_dataset(n=1000, seed=1)
        data = run_full_suite(ds, RunConfig(seed=1)).to_json()
        assert data["tool"]["name"] == "contexcert"
        assert data["tool"]["prng"] == "numpy-PCG64"
        assert data["provenance"]["config"]["seed"] == 1
        assert data["provenance"]["config"]["tolerance_policy"] == "k-sigma:3"
        assert data["provenance"]["dataset_meta"]["seed"] == 1


class TestExtractStreams:
    @pytest.mark.parametrize("with_a", [False, True])
    def test_observable_id_with_at_sign(self, with_a):
        # the stream key A@1@A@1+B must not be read back as observable A
        observables = [Observable("A@1", ("x", "y")), Observable("B")]
        compatible = [frozenset({"A@1", "B"})]
        if with_a:
            observables.append(Observable("A"))
            compatible.append(frozenset({"A", "B"}))
        scenario = Scenario(tuple(observables), tuple(compatible))
        rows = [("x", 1), ("y", -1), ("y", 1)] * 20
        ds = Dataset(scenario, [OutcomeRecord(("A@1", "B"), r) for r in rows])
        streams = suite.extract_streams(ds)
        assert sorted(streams) == ["A@1@A@1+B", "B@A@1+B"]
        assert streams["A@1@A@1+B"].labels == ("x", "y")
        assert streams["A@1@A@1+B"].values == tuple(r[0] for r in rows)
        report = run_full_suite(ds, RunConfig()).to_json()
        assert report["summary"]["randomness"]["A@1@A@1+B"] in ("passed", "failed")


class TestInequalityRunner:
    def test_quadrupole_counted_once_per_suite(self, monkeypatch):
        counted = []
        original = suite.correlation_set

        def counting(dataset, pairs):
            counted.append(tuple(pairs))
            return original(dataset, pairs)

        monkeypatch.setattr(suite, "correlation_set", counting)
        data = run_full_suite(tsirelson_dataset(n=1000), RunConfig(seed=1)).to_json()
        # bell-original reads the correlations before its constraint check skips it
        assert {t["test"]: t["status"] for t in data["tests"]}["bell-original"] == "skipped"
        assert counted == [tuple((x, y) for x in ("A1", "A2") for y in ("B1", "B2"))]

    def test_unknown_test_name(self):
        with pytest.raises(ContexcertError, match="unknown inequality test"):
            run_inequality_test(tsirelson_dataset(n=100), "sz", RunConfig())
