import json
import math

import numpy as np
import pytest

from contexcert import _simplex, cli
from contexcert._simplex import SimplexFailure
from contexcert.errors import ContexcertError
from contexcert.cli import _parse_selections, main
from contexcert.dataio import write_dataset_csv, write_scenario_json
from contexcert.quantumgen import sample_lhv_dataset, sphere_lhv_model
from contexcert.scenario import Dataset, Observable, OutcomeRecord, Scenario
from contexcert.suite import RunConfig


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def generate_singlet(tmp_path, capsys, n=5000, seed=5):
    csv = tmp_path / "d.csv"
    code, out, err = run_cli(
        capsys,
        "generate",
        "singlet",
        "--angles",
        f"0,{math.pi/2},{math.pi/4},{3*math.pi/4}",
        "--n",
        str(n),
        "--seed",
        str(seed),
        "--out",
        str(csv),
    )
    assert code == 0, err
    return csv, tmp_path / "d.scenario.json"


TRIANGLE_PAIRS = (("X1", "X2"), ("X2", "X3"), ("X1", "X3"))


def triangle_scenario():
    return Scenario(
        observables=tuple(Observable(x) for x in ("X1", "X2", "X3")),
        compatible_sets=tuple(frozenset(p) for p in TRIANGLE_PAIRS),
    )


def lhv_triangle():
    axes = {"X1": (0, 0, 1.0), "X2": (1.0, 0, 0), "X3": (0, 1.0, 0)}
    return sample_lhv_dataset(
        sphere_lhv_model(axes), [(p, 20_000) for p in TRIANGLE_PAIRS], seed=3
    )


def write_triangle(tmp_path, dataset):
    csv = tmp_path / "tri.csv"
    scen = tmp_path / "tri.scenario.json"
    write_dataset_csv(dataset, csv)
    write_scenario_json(dataset.scenario, scen)
    return csv, scen


class TestGenerate:
    def test_singlet_writes_files(self, tmp_path, capsys):
        csv, scen = generate_singlet(tmp_path, capsys, n=100)
        assert csv.exists() and scen.exists()
        lines = csv.read_text().splitlines()
        assert lines[0] == "setting;outcomes"
        assert len(lines) == 1 + 4 * 100

    def test_seed_required(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("CONTEXCERT_SEED", raising=False)
        code, _, err = run_cli(
            capsys,
            "generate",
            "singlet",
            "--angles",
            "0,1,2,3",
            "--n",
            "10",
            "--out",
            str(tmp_path / "x.csv"),
        )
        assert code == 1
        assert "seed" in err

    def test_seed_env_fallback(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("CONTEXCERT_SEED", "33")
        code, out, _ = run_cli(
            capsys,
            "generate",
            "singlet",
            "--angles",
            "0,1,2,3",
            "--n",
            "10",
            "--out",
            str(tmp_path / "x.csv"),
        )
        assert code == 0
        assert json.loads(out)["seed"] == 33

    def test_lhv(self, tmp_path, capsys):
        csv = tmp_path / "lhv.csv"
        code, _, err = run_cli(
            capsys,
            "generate",
            "lhv",
            "--model",
            "sphere",
            "--n",
            "200",
            "--seed",
            "2",
            "--out",
            str(csv),
        )
        assert code == 0, err
        assert csv.exists()


class TestTest:
    def test_chsh_verdict(self, tmp_path, capsys):
        csv, scen = generate_singlet(tmp_path, capsys, n=20_000)
        code, out, err = run_cli(
            capsys,
            "test",
            "chsh",
            "--data",
            str(csv),
            "--scenario",
            str(scen),
            "--tolerance-policy",
            "k-sigma:3",
        )
        assert code == 0, err
        verdict = json.loads(out)
        assert verdict["test"] == "chsh"
        assert verdict["outcome"] == "passed_contextuality_test"
        assert abs(verdict["statistic"] - 2 * math.sqrt(2)) < 0.05

    def test_bell_original_constraint_unmet_is_operational_error(
        self, tmp_path, capsys
    ):
        csv, scen = generate_singlet(tmp_path, capsys, n=2000)
        code, _, err = run_cli(
            capsys,
            "test",
            "bell-original",
            "--data",
            str(csv),
            "--scenario",
            str(scen),
            "--delta",
            "0.001",
        )
        assert code == 1
        assert "crucial condition" in err

    def test_sz_on_triangle(self, tmp_path, capsys):
        csv, scen = write_triangle(tmp_path, lhv_triangle())
        code, out, err = run_cli(
            capsys, "test", "sz", "--data", str(csv), "--scenario", str(scen)
        )
        assert code == 0, err
        verdict = json.loads(out)
        assert verdict["test"] == "suppes-zanotti"
        assert verdict["outcome"] == "rejected_noncontextual"

    def test_sz_zero_mean_violation_is_operational_error(self, tmp_path, capsys):
        recs = []
        for pair in TRIANGLE_PAIRS:
            recs += [OutcomeRecord(pair, (1, 1))] * 90 + [OutcomeRecord(pair, (-1, -1))] * 10
        csv, scen = write_triangle(tmp_path, Dataset(triangle_scenario(), recs))
        code, out, err = run_cli(
            capsys, "test", "sz", "--data", str(csv), "--scenario", str(scen)
        )
        assert code == 1
        assert out == ""
        assert "zero-mean tolerance" in err

    def test_bell_original_constraint_pair_either_order(self, tmp_path, capsys):
        csv, scen = generate_singlet(tmp_path, capsys, n=2000)
        outputs = []
        for pair in ("A2+B1", "B1+A2"):
            code, out, err = run_cli(
                capsys, "test", "bell-original", "--data", str(csv), "--scenario",
                str(scen), "--delta", "0.8", "--constraint-pair", pair,
            )
            assert code == 0, err
            outputs.append(out)
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0])["details"]["constraint_pair"] == ["A2", "B1"]

    def test_bell_original_constraint_pair_outside_blocks(self, tmp_path, capsys):
        csv, scen = generate_singlet(tmp_path, capsys, n=2000)
        for pair in ("X9+B1", "A1+A2"):
            code, out, err = run_cli(
                capsys, "test", "bell-original", "--data", str(csv), "--scenario",
                str(scen), "--delta", "0.8", "--constraint-pair", pair,
            )
            assert code == 1
            assert out == ""
            assert "does not name one observable from each detected block" in err

    def test_constraint_pair_refused_outside_bell_original(self, tmp_path, capsys):
        quad = generate_singlet(tmp_path, capsys, n=2000)
        triangle = write_triangle(tmp_path, lhv_triangle())
        for which, (csv, scen) in (("chsh", quad), ("sz", triangle)):
            for pair in ("X9+Q7", "A2+B1"):
                code, out, err = run_cli(
                    capsys, "test", which, "--data", str(csv), "--scenario",
                    str(scen), "--constraint-pair", pair,
                )
                assert code == 1
                assert out == ""
                assert "applies only to bell-original" in err

    @pytest.mark.parametrize(
        "which, test_name, extra",
        [
            ("chsh", "chsh", ()),
            ("bell-original", "bell-original", ("--delta", "0.8")),
            ("sz", "suppes-zanotti", ()),
        ],
    )
    def test_matches_full_suite_entry(self, tmp_path, capsys, which, test_name, extra):
        if which == "sz":
            csv, scen = write_triangle(tmp_path, lhv_triangle())
        else:
            csv, scen = generate_singlet(tmp_path, capsys, n=2000)
        data = ("--data", str(csv), "--scenario", str(scen))
        code, out, err = run_cli(capsys, "test", which, *data, *extra)
        assert code == 0, err
        code, report, err = run_cli(capsys, "full-suite", *data, "--seed", "1", *extra)
        assert code == 0, err
        [entry] = [t for t in json.loads(report)["tests"] if t["test"] == test_name]
        assert entry["status"] == "run"
        for key in ("status", "blocks", "triple", "roles"):
            entry.pop(key, None)
        assert json.loads(out) == entry

    def test_missing_file(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys,
            "test",
            "chsh",
            "--data",
            str(tmp_path / "none.csv"),
            "--scenario",
            str(tmp_path / "none.json"),
        )
        assert code == 1


class TestOracle:
    def test_feasible_system(self, tmp_path, capsys):
        sys_path = tmp_path / "sys.json"
        sys_path.write_text(
            json.dumps(
                {
                    "variables": ["A", "B"],
                    "constraints": [
                        {"support": ["A", "B"], "probs": {"1,1": 0.5, "-1,-1": 0.5}}
                    ],
                }
            )
        )
        code, out, err = run_cli(capsys, "oracle", "--constraints", str(sys_path))
        assert code == 0, err
        data = json.loads(out)
        assert data["status"] == "feasible"
        assert "witness" in data

    def test_infeasible_emits_certificate(self, tmp_path, capsys):
        tables = {
            ("X1", "X2"): None,
            ("X2", "X3"): None,
            ("X1", "X3"): None,
        }
        constraints = [
            {"support": list(pair), "probs": {"1,-1": 0.5, "-1,1": 0.5}}
            for pair in tables
        ]
        sys_path = tmp_path / "sys.json"
        sys_path.write_text(
            json.dumps({"variables": ["X1", "X2", "X3"], "constraints": constraints})
        )
        code, out, _ = run_cli(capsys, "oracle", "--constraints", str(sys_path))
        assert code == 0
        data = json.loads(out)
        assert data["status"] == "infeasible"
        assert data["certificate"]["slack"] > 0

    def write_system(self, tmp_path, variables, constraints):
        sys_path = tmp_path / "sys.json"
        sys_path.write_text(json.dumps({"variables": variables, "constraints": constraints}))
        return str(sys_path)

    def test_exact_feasible(self, tmp_path, capsys):
        constraints = [
            {"support": ["A", "B"], "probs": {"1,1": 0.3, "1,-1": 0.2, "-1,1": 0.2, "-1,-1": 0.3}},
            {"support": ["B", "C"], "probs": {"1,1": 0.1, "1,-1": 0.4, "-1,1": 0.4, "-1,-1": 0.1}},
        ]
        path = self.write_system(tmp_path, ["A", "B", "C"], constraints)
        code, out, err = run_cli(capsys, "oracle", "--constraints", path, "--exact")
        assert code == 0, err
        data = json.loads(out)
        assert data["status"] == "feasible"
        assert sum(data["witness"]["probs"].values()) == pytest.approx(1.0)

    def test_exact_pr_box_certificate(self, tmp_path, capsys):
        same = {"1,1": 0.5, "-1,-1": 0.5}
        constraints = [
            {"support": ["A1", "B1"], "probs": same},
            {"support": ["A1", "B2"], "probs": same},
            {"support": ["A2", "B1"], "probs": same},
            {"support": ["A2", "B2"], "probs": {"1,-1": 0.5, "-1,1": 0.5}},
        ]
        path = self.write_system(tmp_path, ["A1", "A2", "B1", "B2"], constraints)
        code, out, err = run_cli(capsys, "oracle", "--constraints", path, "--exact")
        assert code == 0, err
        data = json.loads(out)
        assert data["status"] == "infeasible"
        cert = data["certificate"]
        assert cert["value"] > cert["bound"]

    def test_exact_rejects_table_not_summing_to_one(self, tmp_path, capsys):
        third = 0.3333333333333333
        constraints = [{"support": ["A", "B"], "probs": {"1,1": third, "1,-1": third, "-1,1": third}}]
        path = self.write_system(tmp_path, ["A", "B"], constraints)
        code, out, err = run_cli(capsys, "oracle", "--constraints", path, "--exact")
        assert code == 1
        assert out == ""
        assert "sum to exactly 1" in err


    def test_exact_signaling_below_float_tolerance(self, tmp_path, capsys):
        constraints = [
            {"support": ["A", "B"], "probs": {"1,1": 0.5, "-1,-1": 0.5}},
            {"support": ["A", "C"], "probs": {"1,1": 0.5000000001, "-1,-1": 0.4999999999}},
        ]
        path = self.write_system(tmp_path, ["A", "B", "C"], constraints)
        code, out, err = run_cli(capsys, "oracle", "--constraints", path, "--exact")
        assert code == 1
        assert out == ""
        assert "signaling" in err

    def test_exact_reads_long_literals_without_rounding(self, tmp_path, capsys):
        # 19 significant digits each, summing to exactly 1; through a double
        # they would sum to 49999999999999999/50000000000000000
        path = tmp_path / "sys.json"
        path.write_text(
            '{"variables": ["A", "B"], "constraints": [{"support": ["A", "B"], '
            '"probs": {"1,1": 0.1234567890123456789, "-1,-1": 0.8765432109876543211}}]}'
        )
        code, out, err = run_cli(capsys, "oracle", "--constraints", str(path), "--exact")
        assert code == 0, err
        data = json.loads(out)
        assert data["status"] == "feasible"
        assert data["witness"]["probs"]["1,1"] == 0.1234567890123456789


class TestRandomness:
    def test_stream_battery(self, tmp_path, capsys):
        stream = tmp_path / "seq.txt"
        stream.write_text("\n".join(str(i % 2) for i in range(10_000)) + "\n")
        code, out, err = run_cli(
            capsys,
            "randomness",
            "--stream",
            str(stream),
            "--selections",
            "prime,after:01,mod:2:0,coin",
            "--seed",
            "1",
        )
        assert code == 0, err
        data = json.loads(out)
        assert data["verdict"] == "failed"  # strict alternation

    def test_after_pattern_with_negative_symbols(self, tmp_path, capsys):
        stream = tmp_path / "seq.txt"
        stream.write_text("\n".join(("1", "-1")[i % 2] for i in range(10_000)) + "\n")
        code, out, err = run_cli(
            capsys,
            "randomness",
            "--stream",
            str(stream),
            "--selections",
            "after:1-1",
            "--seed",
            "1",
        )
        assert code == 0, err
        data = json.loads(out)
        # after (1, -1) a strict alternation always shows 1
        assert data["selections"][0]["freqs"] == {"1": 1.0, "-1": 0.0}
        assert data["verdict"] == "failed"

    def test_after_pattern_symbols(self):
        patterns = [s.pattern for s in _parse_selections("after:1-1,after:-1-1,after:01,after:ab", 0)]
        assert patterns == [(1, -1), (-1, -1), (0, 1), ("a", "b")]

    def test_seed_required(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("CONTEXCERT_SEED", raising=False)
        stream = tmp_path / "seq.txt"
        stream.write_text("0\n1\n" * 100)
        code, _, err = run_cli(capsys, "randomness", "--stream", str(stream))
        assert code == 1
        assert "seed" in err

    def test_dataset_column(self, tmp_path, capsys):
        csv, scen = generate_singlet(tmp_path, capsys, n=5000)
        code, out, err = run_cli(
            capsys,
            "randomness",
            "--data",
            str(csv),
            "--scenario",
            str(scen),
            "--setting",
            "A1+B1",
            "--observable",
            "A1",
            "--seed",
            "4",
        )
        assert code == 0, err
        assert json.loads(out)["verdict"] == "passed"


class TestFullSuite:
    def test_runs_and_reproducible(self, tmp_path, capsys):
        csv, scen = generate_singlet(tmp_path, capsys, n=4000)
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        for out_path in (out1, out2):
            code, _, err = run_cli(
                capsys,
                "full-suite",
                "--data",
                str(csv),
                "--scenario",
                str(scen),
                "--seed",
                "6",
                "--out",
                str(out_path),
            )
            assert code == 0, err
        assert out1.read_bytes() == out2.read_bytes()
        report = json.loads(out1.read_text())
        assert report["summary"]["chsh"] == "passed_contextuality_test"

    def test_solver_failure_is_an_oracle_entry(self, tmp_path, capsys, monkeypatch):
        csv, scen = generate_singlet(tmp_path, capsys, n=1000)
        argv = ["full-suite", "--data", str(csv), "--scenario", str(scen), "--seed", "6"]
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        expected = json.loads(out)

        def fail(A, b):
            raise SimplexFailure("phase-1 simplex iteration limit exceeded")

        monkeypatch.setattr(_simplex, "phase1_dense", fail)
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        report = json.loads(out)
        expected["oracle"] = [
            {
                "system": "quadrupole",
                "variables": ["A1", "A2", "B1", "B2"],
                "status": "solver_failed",
                "reason": "phase-1 simplex iteration limit exceeded",
            }
        ]
        assert report == expected

    def test_seed_required(self, tmp_path, capsys, monkeypatch):
        csv, scen = generate_singlet(tmp_path, capsys, n=100)
        monkeypatch.delenv("CONTEXCERT_SEED", raising=False)
        code, _, err = run_cli(
            capsys, "full-suite", "--data", str(csv), "--scenario", str(scen)
        )
        assert code == 1
        assert "seed" in err

    def test_text_format(self, tmp_path, capsys):
        csv, scen = generate_singlet(tmp_path, capsys, n=1000)
        code, out, _ = run_cli(
            capsys,
            "full-suite",
            "--data",
            str(csv),
            "--scenario",
            str(scen),
            "--seed",
            "6",
            "--format",
            "text",
        )
        assert code == 0
        assert "summary" in out

    def test_non_dichotomous_triangle_is_a_skip_entry(self, tmp_path, capsys):
        alphabets = {"X": ("a", "b", "c"), "Y": ("u", "v"), "Z": ("p", "q")}
        pairs = (("X", "Y"), ("Y", "Z"), ("X", "Z"))
        scenario = Scenario(
            tuple(Observable(k, v) for k, v in alphabets.items()), tuple(map(frozenset, pairs))
        )
        rng = np.random.default_rng(2)
        rows = [(pair, tuple(rng.choice(alphabets[o]) for o in pair)) for pair in pairs for _ in range(200)]
        csv, scen = write_triangle(tmp_path, Dataset.from_rows(scenario, rows))
        argv = ["--data", str(csv), "--scenario", str(scen)]
        code, out, err = run_cli(capsys, "full-suite", *argv, "--seed", "1")
        assert code == 0, err
        report = json.loads(out)
        reason = "X has alphabet ('a', 'b', 'c'), need (+1, -1)"
        skip = {"test": "suppes-zanotti", "status": "skipped", "reason": reason}
        assert skip in report["tests"]
        assert report["summary"]["suppes-zanotti"] == "skipped"
        assert report["signaling"]["verdict"] in ("no_signaling", "signaling")
        assert len(report["summary"]["randomness"]) == 6
        code, out, err = run_cli(capsys, "test", "sz", *argv)
        assert (code, out, err) == (1, "", f"contexcert: error: {reason}\n")


RHO = [[0, 0, 0, 0], [0, 0.5, -0.5, 0], [0, -0.5, 0.5, 0], [0, 0, 0, 0]]  # the singlet
STREAM = ["randomness", "--stream", "{stream}", "--seed", "1"]
STATE_FILE = ["generate", "state-file", "--state", "{state}", "--observables", "{obs}"]
GENERATED = ["--seed", "1", "--out", "{tmp}/g.csv"]
MALFORMED = {
    "selections mod without residue": [*STREAM, "--selections", "mod:2"],
    "selections mod not an integer": [*STREAM, "--selections", "mod:2:x"],
    "selections coin seed": [*STREAM, "--selections", "coin:x"],
    "selections coin bias": [*STREAM, "--selections", "coin:1:heads"],
    "policy value": [*STREAM, "--policy", "k-sigma:abc"],
    "fixed policy value": [*STREAM, "--policy", "fixed:"],
    "angles": ["generate", "singlet", "--angles", "0,1,2,x", "--n", "10", *GENERATED],
    "axes": ["generate", "lhv", "--axes", "A1:0,A2:x,B1:0,B2:1", "--n", "10", *GENERATED],
    # a NaN angle sampled a dataset from NaN probabilities (the lhv A2 records all
    # read -1), and an infinite one ended in a ValueError traceback
    "angles nan": ["generate", "singlet", "--angles", "0,nan,0.7,2.3", "--n", "10", *GENERATED],
    "axes nan": ["generate", "lhv", "--axes", "A1:0,A2:nan,B1:0.7,B2:2.3", "--n", "10", *GENERATED],
    "angles inf": ["generate", "singlet", "--angles", "0,inf,0.7,2.3", "--n", "10", *GENERATED],
    "axes inf": ["generate", "lhv", "--axes", "A1:0,A2:-inf,B1:0.7,B2:2.3", "--n", "10", *GENERATED],
    "pairs count": [*STATE_FILE, "--pairs", "A1+B1:ten", *GENERATED],
    "pairs id": [*STATE_FILE, "--pairs", "A1+Z9:10", *GENERATED],
    "pairs without partner": [*STATE_FILE, "--pairs", "A1:10", *GENERATED],
    "full-suite policy": [
        "full-suite", "--data", "{csv}", "--scenario", "{scen}", "--seed", "1",
        "--tolerance-policy", "k-sigma:3x",
    ],
    # an alternating stream passed every selection under fixed:nan
    "fixed policy nan": [*STREAM, "--policy", "fixed:nan"],
    "k-sigma policy inf": [*STREAM, "--policy", "k-sigma:inf"],
    "full-suite policy inf": [
        "full-suite", "--data", "{csv}", "--scenario", "{scen}", "--seed", "1",
        "--tolerance-policy", "k-sigma:inf",
    ],
    "full-suite randomness policy nan": [
        "full-suite", "--data", "{csv}", "--scenario", "{scen}", "--seed", "1",
        "--randomness-policy", "fixed:nan",
    ],
    "seed variable": ["randomness", "--stream", "{stream}"],
    # NaN reached the report's provenance as invalid JSON; -1 passed silently
    "full-suite delta nan": [
        "full-suite", "--data", "{csv}", "--scenario", "{scen}", "--seed", "1", "--delta", "nan",
    ],
    "full-suite zero-mean tolerance negative": [
        "full-suite", "--data", "{csv}", "--scenario", "{scen}", "--seed", "1",
        "--zero-mean-tolerance", "-1",
    ],
    "test delta inf": ["test", "sz", "--data", "{csv}", "--scenario", "{scen}", "--delta", "inf"],
    # a feasible system was reported infeasible under nan and -1
    "oracle tolerance nan": ["oracle", "--constraints", "{cons}", "--tolerance", "nan"],
    "oracle tolerance negative": ["oracle", "--constraints", "{cons}", "--tolerance", "-1"],
    "oracle tolerance inf": ["oracle", "--constraints", "{cons}", "--tolerance", "inf"],
    "exact oracle tolerance nan": ["oracle", "--constraints", "{cons}", "--exact", "--tolerance", "nan"],
}


@pytest.mark.parametrize("argv", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_option_value_is_an_operational_error(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CONTEXCERT_SEED", "seven")  # read only where --seed is absent
    stream = tmp_path / "seq.txt"
    stream.write_text("1\n-1\n" * 100)
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"matrix": (np.eye(4) / 4).tolist()}))
    obs = tmp_path / "obs.json"
    obs.write_text(json.dumps([{"id": "A1", "angle": 0}, {"id": "B1", "angle": 1, "qubit": 1}]))
    csv, scen = write_triangle(tmp_path, lhv_triangle())
    cons = tmp_path / "cons.json"
    table = {"support": ["A", "B"], "probs": {"1,1": 0.5, "-1,-1": 0.5}}
    cons.write_text(json.dumps({"variables": ["A", "B"], "constraints": [table]}))
    paths = dict(stream=stream, state=state, obs=obs, csv=csv, scen=scen, cons=cons, tmp=tmp_path)
    code, out, err = run_cli(capsys, *(arg.format(**paths) for arg in argv))
    assert code == 1
    assert out == ""
    assert err.startswith("contexcert: error:")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "state, observables, message",
    [
        ({"matrix": RHO}, [{"angle": 0}], "observables JSON missing field: 'id'"),
        ({"rho": RHO}, [{"id": "A1", "angle": 0}], "state JSON missing field: 'matrix'"),
        ({"matrix": RHO}, [{"id": "A1", "angle": "x"}], "observables JSON: cannot read 'x' as a number"),
        (
            {"matrix": RHO},
            [{"id": "A1", "angle": 0, "qubit": "x"}],
            "observables JSON: cannot read 'x' as a number",
        ),
        ({"matrix": RHO}, [{"id": "A1", "angle": None}], "observables JSON: cannot read None as a number"),
        ({"matrix": RHO}, [{"id": "A1", "angle": True}], "observables JSON: cannot read True as a number"),
        (
            {"matrix": RHO},
            [{"id": "A1", "angle": 0, "qubit": False}],
            "observables JSON: cannot read False as a number",
        ),
        (
            {"matrix": RHO},
            [{"id": "A1", "projectors": {"up": np.eye(4).tolist()}}],
            "observables JSON: cannot read 'up' as a number",
        ),
        ({"matrix": [["abc", 0, 0, 0], *RHO[1:]]}, [], "state JSON: cannot read 'abc' as a number"),
        ({"matrix": RHO}, [{"id": "A1", "angle": "nan"}], "A1: angle must be finite, got nan"),
        ({"matrix": RHO}, [{"id": "A1", "angle": "inf"}], "A1: angle must be finite, got inf"),
        # the second definition used to replace the first without a word
        (
            {"matrix": RHO},
            [{"id": "A1", "angle": 0}, {"id": "A1", "angle": 1}],
            "observables JSON: observable 'A1' is given twice",
        ),
    ],
    ids=[
        "observable without id",
        "state without matrix",
        "angle not a number",
        "qubit not a number",
        "angle null",
        "angle a boolean",
        "qubit a boolean",
        "projector key not a number",
        "state entry not a number",
        "angle nan",
        "angle inf",
        "observable id twice",
    ],
)
def test_state_file_missing_field(state, observables, message, tmp_path, capsys):
    (tmp_path / "state.json").write_text(json.dumps(state))
    (tmp_path / "obs.json").write_text(json.dumps(observables))
    code, out, err = run_cli(
        capsys, "generate", "state-file", "--state", str(tmp_path / "state.json"),
        "--observables", str(tmp_path / "obs.json"), "--pairs", "A1+A1:10",
        "--seed", "1", "--out", str(tmp_path / "g.csv"),
    )
    assert (code, out, err) == (1, "", f"contexcert: error: {message}\n")


def test_lhv_axes_refuse_an_observable_given_twice(tmp_path, capsys):
    # the later A1 entry used to replace the first, and 40 records were written
    code, out, err = run_cli(
        capsys, "generate", "lhv", "--axes", "A1:0,A2:1.5708,B1:0.7854,B2:2.3562,A1:3",
        "--n", "10", "--seed", "1", "--out", str(tmp_path / "g.csv"),
    )
    assert (code, out, err) == (1, "", "contexcert: error: --axes 'A1:3': observable 'A1' is given twice\n")
    assert not (tmp_path / "g.csv").exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_oracle_refuses_a_non_finite_probability(value, tmp_path, capsys):
    # a NaN cell used to pass the table checks and reach the report as "slack": NaN
    table = {"support": ["A", "B"], "probs": {"1,1": value, "-1,-1": 0.5}}
    cons = tmp_path / "cons.json"
    cons.write_text(json.dumps({"variables": ["A", "B"], "constraints": [table]}))
    code, out, err = run_cli(capsys, "oracle", "--constraints", str(cons))
    assert (code, out, err) == (1, "", f"contexcert: error: non-finite probability {value} at (1, 1)\n")


@pytest.mark.parametrize("exact", [False, True])
def test_oracle_refuses_a_boolean_probability(exact, tmp_path, capsys):
    # float mode used to read true as 1.0 and decide the system
    table = {"support": ["A", "B"], "probs": {"1,1": True}}
    cons = tmp_path / "cons.json"
    cons.write_text(json.dumps({"variables": ["A", "B"], "constraints": [table]}))
    code, out, err = run_cli(capsys, "oracle", "--constraints", str(cons), *(["--exact"] if exact else []))
    assert (code, out, err) == (1, "", "contexcert: error: constraint JSON: cannot read True as a number\n")


@pytest.mark.parametrize(
    "variables, table, message",
    [
        # a list of probabilities used to end in an AttributeError traceback
        (["A", "B"], {"support": ["A", "B"], "probs": [0.5, 0.5]},
         "'probs' must be an object of cell probabilities, not [0.5, 0.5]"),
        # a string used to be split into the variables A and B
        (["A", "B"], {"support": "AB", "probs": {"1,1": 0.5, "-1,-1": 0.5}},
         "'support' must be a list of variable ids, not 'AB'"),
        ("AB", {"support": ["A", "B"], "probs": {"1,1": 0.5, "-1,-1": 0.5}},
         "'variables' must be a list of variable ids, not 'AB'"),
    ],
    ids=["probs a list", "support a string", "variables a string"],
)
def test_oracle_refuses_a_field_of_the_wrong_type(variables, table, message, tmp_path, capsys):
    cons = tmp_path / "cons.json"
    cons.write_text(json.dumps({"variables": variables, "constraints": [table]}))
    code, out, err = run_cli(capsys, "oracle", "--constraints", str(cons))
    assert (code, out, err) == (1, "", f"contexcert: error: constraint JSON: {message}\n")


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


BAD_OPTION_MISSING_DATA = {
    "full-suite min_retained": (
        ["full-suite", "--seed", "1", "--min-retained", "10"], "min_retained must be at least 30"
    ),
    "full-suite policy": (
        ["full-suite", "--seed", "1", "--tolerance-policy", "k-sigma:x"],
        "tolerance policy 'k-sigma:x': cannot read 'x' as float",
    ),
    "test delta": (["test", "chsh", "--delta", "-1"], "delta must be finite and >= 0, got -1.0"),
    "randomness min_retained": (
        ["randomness", "--seed", "1", "--setting", "A1+B1", "--observable", "A1", "--min-retained", "10"],
        "min_retained must be at least 30",
    ),
    "randomness policy": (
        ["randomness", "--seed", "1", "--setting", "A1+B1", "--observable", "A1", "--policy", "k-sigma:x"],
        "tolerance policy 'k-sigma:x': cannot read 'x' as float",
    ),
    "randomness selections": (
        ["randomness", "--seed", "1", "--setting", "A1+B1", "--observable", "A1", "--selections", "mod:2"],
        "selection token 'mod:2': expected mod:M:R",
    ),
}


@pytest.mark.parametrize(
    "argv, message, missing",
    [(*BAD_OPTION_MISSING_DATA[name], "--data") for name in BAD_OPTION_MISSING_DATA]
    + [(*BAD_OPTION_MISSING_DATA[name], "--stream") for name in BAD_OPTION_MISSING_DATA if name.startswith("randomness")],
    ids=[*BAD_OPTION_MISSING_DATA, *(f"{name} stream" for name in BAD_OPTION_MISSING_DATA if name.startswith("randomness"))],
)
def test_a_bad_option_is_named_before_the_input_is_read(argv, message, missing, tmp_path, capsys):
    # each command used to read its input first and report the missing file instead
    absent = [missing, str(tmp_path / "absent.csv")]
    if missing == "--data":
        absent += ["--scenario", str(tmp_path / "absent.scenario.json")]
    code, out, err = run_cli(capsys, *argv, *absent)
    assert (code, out, err) == (1, "", f"contexcert: error: {message}\n")


@pytest.mark.parametrize("command", ["full-suite", "randomness"])
def test_min_retained_below_30_is_refused_by_both_commands(command, tmp_path, capsys):
    # full-suite used to exit 0 with every randomness stream skipped
    csv, scen = generate_singlet(tmp_path, capsys, n=1000)
    argv = [command, "--data", str(csv), "--scenario", str(scen), "--seed", "1", "--min-retained", "10"]
    if command == "randomness":
        argv += ["--setting", "A1+B1", "--observable", "A1"]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (1, "", "contexcert: error: min_retained must be at least 30\n")


NEGATIVE_SEED = {
    "generate singlet": ["generate", "singlet", "--angles", "0,1,2,3", "--n", "10", "--out", "{tmp}/g.csv"],
    "generate lhv": ["generate", "lhv", "--model", "sphere", "--n", "10", "--out", "{tmp}/g.csv"],
    "generate state-file": [
        "generate", "state-file", "--state", "{state}", "--observables", "{obs}", "--pairs", "A1+B1:10",
        "--out", "{tmp}/g.csv",
    ],
    "full-suite": ["full-suite", "--data", "{csv}", "--scenario", "{scen}"],
    "randomness": ["randomness", "--stream", "{stream}"],
}


@pytest.mark.parametrize("source", ["--seed", "CONTEXCERT_SEED"])
@pytest.mark.parametrize("argv", NEGATIVE_SEED.values(), ids=NEGATIVE_SEED.keys())
def test_a_negative_seed_is_refused(argv, source, tmp_path, capsys, monkeypatch):
    # numpy's SeedSequence used to end each of these in a ValueError traceback
    stream = tmp_path / "seq.txt"
    stream.write_text("1\n-1\n" * 100)
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"matrix": (np.eye(4) / 4).tolist()}))
    obs = tmp_path / "obs.json"
    obs.write_text(json.dumps([{"id": "A1", "angle": 0}, {"id": "B1", "angle": 1, "qubit": 1}]))
    csv, scen = write_triangle(tmp_path, lhv_triangle())
    paths = dict(stream=stream, state=state, obs=obs, csv=csv, scen=scen, tmp=tmp_path)
    argv = [arg.format(**paths) for arg in argv]
    if source == "--seed":
        monkeypatch.delenv("CONTEXCERT_SEED", raising=False)
        argv += ["--seed", "-1"]
    else:
        monkeypatch.setenv("CONTEXCERT_SEED", "-1")
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (1, "", "contexcert: error: seed must be non-negative, got -1\n")
    assert not (tmp_path / "g.csv").exists()


def test_a_negative_coin_seed_is_refused(tmp_path, capsys):
    stream = tmp_path / "seq.txt"
    stream.write_text("1\n-1\n" * 100)
    code, out, err = run_cli(capsys, "randomness", "--stream", str(stream), "--seed", "1", "--selections", "prime,coin:-3")
    assert (code, out, err) == (1, "", "contexcert: error: seed must be non-negative, got -3\n")


SUITE_INPUT = ["--data", "d.csv", "--scenario", "d.scenario.json"]


@pytest.mark.parametrize(
    "argv, target, config",
    [
        (["test", "chsh", *SUITE_INPUT], "run_inequality_test", lambda args: args[2]),
        (["full-suite", *SUITE_INPUT, "--seed", "0"], "run_full_suite", lambda args: args[1]),
        (
            ["randomness", "--stream", "{stream}", "--seed", "0"],
            "randomness_test",
            lambda args: RunConfig(randomness_policy=args[2], min_retained=args[3]),
        ),
    ],
    ids=["test", "full-suite", "randomness"],
)
def test_option_defaults_are_those_of_run_config(argv, target, config, tmp_path, capsys, monkeypatch):
    stream = tmp_path / "seq.txt"
    stream.write_text("1\n-1\n" * 100)
    passed = []

    def capture(*args):
        passed.append(config(args))
        raise ContexcertError("captured")

    monkeypatch.setattr(cli, "ingest", lambda data, scenario: None)
    monkeypatch.setattr(cli, target, capture)
    code, out, err = run_cli(capsys, *(arg.format(stream=stream) for arg in argv))
    assert (code, err) == (1, "contexcert: error: captured\n")
    assert passed == [RunConfig()] and passed[0].to_json() == RunConfig().to_json()
