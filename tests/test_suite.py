import dataclasses
import math
import random
from collections import deque

import numpy as np
import pytest

from contexcert import suite
from contexcert.dataio import dumps_json, read_dataset_csv, write_dataset_csv
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
from contexcert.tolerances import FixedTolerance


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

    def test_chsh_within_tolerance_above_2_disagrees_with_the_oracle(self):
        # Each pair: 1505 (1,1), 1505 (-1,-1), 495 (1,-1), 495 (-1,1), so every
        # mean is 0 and every correlation +-0.505; the signs put CHSH at 2.02,
        # inside its 3-sigma tolerance.  The oracle, at its fixed 1e-9, finds no
        # joint distribution, so the two disagree.  This states today's rule.
        s = Scenario(
            observables=tuple(Observable(k) for k in ("A1", "A2", "B1", "B2")),
            compatible_sets=tuple(frozenset((x, y)) for x in ("A1", "A2") for y in ("B1", "B2")),
        )
        recs = []
        for pair in [(x, y) for x in ("A1", "A2") for y in ("B1", "B2")]:
            same, different = (1505, 495) if pair != ("A2", "B2") else (495, 1505)
            for outcome, n in [((1, 1), same), ((-1, -1), same), ((1, -1), different), ((-1, 1), different)]:
                recs += [OutcomeRecord(pair, outcome)] * n
        data = run_full_suite(Dataset(s, recs), RunConfig(seed=1)).to_json()
        chsh = next(t for t in data["tests"] if t["test"] == "chsh")
        assert math.isclose(chsh["statistic"], 2.02)
        assert chsh["outcome"] == "rejected_noncontextual"
        quad_oracle = [o for o in data["oracle"] if o["system"] == "quadrupole"]
        assert quad_oracle[0]["status"] == "infeasible"
        assert quad_oracle[0]["agrees_with_chsh"] is False

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


    @pytest.mark.parametrize(
        "min_retained, message",
        [
            (10, "min_retained must be at least 30"),
            (math.nan, "min_retained must be an integer, got nan"),
            (30.0, "min_retained must be an integer, got 30.0"),
        ],
    )
    def test_config_refuses_min_retained(self, min_retained, message):
        with pytest.raises(ContexcertError) as exc:
            RunConfig(min_retained=min_retained)
        assert str(exc.value) == message

    def test_numpy_integer_min_retained_reaches_json(self):
        config = RunConfig(seed=1, min_retained=np.int64(40))
        report = run_full_suite(tsirelson_dataset(n=500), config)
        assert '"min_retained": 40' in dumps_json(report.to_json())

    @pytest.mark.parametrize("seed", [True, 1.5, 1.0, "1", None])
    def test_config_refuses_a_seed_that_is_not_an_integer(self, seed):
        # True was reported as "seed": true and 1.5 as "seed": 1.5
        with pytest.raises(ContexcertError) as exc:
            RunConfig(seed=seed)
        assert str(exc.value) == f"seed must be an integer, got {seed!r}"

    @pytest.mark.parametrize("seed", [-1, np.int64(-7)])
    def test_config_refuses_a_negative_seed(self, seed):
        # numpy's SeedSequence refused it only when the coin selection drew its mask
        with pytest.raises(ContexcertError) as exc:
            RunConfig(seed=seed)
        assert str(exc.value) == f"seed must be non-negative, got {seed!r}"

    def test_numpy_integer_seed_reaches_json(self):
        # dumps_json raised a TypeError on the numpy integer
        config = RunConfig(seed=np.int64(1))
        assert type(config.seed) is int
        report = run_full_suite(tsirelson_dataset(n=500), config)
        assert '"seed": 1,' in dumps_json(report.to_json())

    def test_config_json_names_every_field(self):
        config = RunConfig(FixedTolerance(0.02), seed=4)
        assert list(config.to_json()) == [field.name for field in dataclasses.fields(RunConfig)]
        assert config.to_json() == {
            "tolerance_policy": "fixed:0.02", "randomness_policy": "k-sigma:4", "seed": 4,
            "delta": 0.01, "zero_mean_tolerance": 0.05, "min_retained": 30,
        }


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


class TestInterleaving:
    """Records of the four settings drawn at random trial by trial, as a Bell
    test draws them, give the same report as the same records in blocks."""

    @staticmethod
    def interleave(dataset, flip):
        runs = {}  # each setting's records, in order
        for rec in dataset:
            runs.setdefault(rec.setting, deque()).append(rec)
        queues = list(runs.values())
        interleaved = [queue.popleft() for queue in queues]  # first appearances keep their order
        rng = random.Random(1)
        while any(queues):
            interleaved.append(rng.choice([queue for queue in queues if queue]).popleft())
        if flip:  # every third record of A1+B1 is recorded as B1+A1
            flipped = [rec for rec in interleaved if rec.setting == ("A1", "B1")][1::3]
            turned = {id(rec): OutcomeRecord(rec.setting[::-1], rec.outcomes[::-1]) for rec in flipped}
            interleaved = [turned.get(id(rec), rec) for rec in interleaved]
        return Dataset(dataset.scenario, interleaved, {"source": "interleaved"})

    @pytest.mark.parametrize("flip", [False, True], ids=["as-drawn", "one-setting-in-both-orders"])
    def test_interleaving_changes_nothing(self, flip, tmp_path):
        blocked = tsirelson_dataset(n=400, seed=2)
        interleaved = self.interleave(blocked, flip)
        assert len(interleaved) == len(blocked) == 1600
        assert interleaved.settings() == blocked.settings()
        runs = sum(a.setting != b.setting for a, b in zip(interleaved, list(interleaved)[1:])) + 1
        assert runs > 1000
        reports = []
        for dataset in (blocked, interleaved):
            report = run_full_suite(dataset, RunConfig(seed=1)).to_json()
            del report["provenance"]["dataset_meta"]
            reports.append(dumps_json(report))
        assert reports[0] == reports[1]
        write_dataset_csv(interleaved, tmp_path / "d.csv")
        assert list(read_dataset_csv(tmp_path / "d.csv", blocked.scenario)) == list(interleaved)


class TestInequalityRunner:
    def test_a_suite_counts_the_cells_once(self, monkeypatch):
        dataset = tsirelson_dataset(n=1000)
        counted = []  # the lengths of the bincount passes over the dataset's cells
        original = np.bincount

        def counting(values, *args, **kwargs):
            if isinstance(values, np.ndarray) and np.shares_memory(values, dataset.cells):
                counted.append(len(values))
            return original(values, *args, **kwargs)

        monkeypatch.setattr(np, "bincount", counting)
        data = run_full_suite(dataset, RunConfig(seed=1)).to_json()
        assert {t["test"]: t["status"] for t in data["tests"]}["chsh"] == "run"
        assert sum(counted) == len(dataset) == 4000

    def test_unknown_test_name(self):
        with pytest.raises(ContexcertError, match="unknown inequality test"):
            run_inequality_test(tsirelson_dataset(n=100), "sz", RunConfig())
