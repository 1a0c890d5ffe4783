import json
import math

import pytest

from contexcert.dataio import (
    ParseError,
    ValidationError,
    dumps_json,
    ingest,
    read_constraint_system,
    read_dataset_csv,
    read_label_stream,
    read_scenario_json,
    write_dataset_csv,
    write_scenario_json,
)
from contexcert.jpdoracle import jpd_feasible
from contexcert.quantumgen import planar_observable, sample_quantum_dataset, singlet_state
from contexcert.scenario import Dataset, Observable, OutcomeRecord, Scenario
from contexcert.suite import extract_streams


def small_scenario():
    return Scenario(
        observables=(Observable("A1"), Observable("B1")),
        compatible_sets=(frozenset({"A1", "B1"}),),
    )


class TestScenarioJson:
    def test_roundtrip(self, tmp_path):
        s = small_scenario()
        path = tmp_path / "s.json"
        write_scenario_json(s, path)
        loaded = read_scenario_json(path)
        assert loaded == s

    def test_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ParseError):
            read_scenario_json(path)


class TestDatasetCsv:
    def test_roundtrip_small(self, tmp_path):
        s = small_scenario()
        ds = Dataset(
            s,
            [
                OutcomeRecord(("A1", "B1"), (1, -1)),
                OutcomeRecord(("A1", "B1"), (-1, -1)),
                OutcomeRecord(("A1", "B1"), (1, 1)),
            ],
        )
        csv_path = tmp_path / "d.csv"
        write_dataset_csv(ds, csv_path)
        loaded = read_dataset_csv(csv_path, s)
        assert list(loaded) == list(ds)

    def test_four_row_csv(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(
            "setting;outcomes\nA1+B1;1,1\nA1+B1;1,-1\nA1+B1;-1,1\nA1+B1;-1,-1\n"
        )
        ds = read_dataset_csv(path, small_scenario())
        assert len(ds) == 4

    def test_bad_outcome_flagged_with_position(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("setting;outcomes\nA1+B1;1,1\nA1+B1;2,1\n")
        with pytest.raises(ValidationError) as err:
            read_dataset_csv(path, small_scenario())
        assert err.value.index == 1

    def test_repeated_observable_flagged_with_position(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("setting;outcomes\nA1+B1;1,1\nA1+A1;1,1\n")
        with pytest.raises(ValidationError) as err:
            read_dataset_csv(path, small_scenario())
        assert err.value.index == 1
        assert str(err.value) == "record 1: setting ('A1', 'A1') repeats an observable"

    def test_missing_header(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("A1+B1;1,1\n")
        with pytest.raises(ParseError) as err:
            read_dataset_csv(path, small_scenario())
        assert err.value.line == 1

    def test_malformed_row_line_number(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("setting;outcomes\nA1+B1;1,1\nA1+B1;1\n")
        with pytest.raises(ParseError) as err:
            read_dataset_csv(path, small_scenario())
        assert err.value.line == 3

    def test_generated_roundtrip_identical(self, tmp_path):
        a = planar_observable("A1", 0.0, qubit=0)
        b = planar_observable("B1", 0.8, qubit=1)
        ds = sample_quantum_dataset(singlet_state(), [((a, b), 500)], seed=13)
        csv_path = tmp_path / "d.csv"
        scen_path = tmp_path / "s.json"
        write_dataset_csv(ds, csv_path)
        write_scenario_json(ds.scenario, scen_path)
        loaded = ingest(csv_path, scen_path)
        assert list(loaded) == list(ds)
        # a second write is byte-identical
        csv2 = tmp_path / "d2.csv"
        write_dataset_csv(loaded, csv2)
        assert csv2.read_bytes() == csv_path.read_bytes()


    def test_string_alphabet_roundtrip(self, tmp_path):
        s = Scenario(
            observables=(
                Observable("A", ("up", "down")),
                Observable("B", (1, -1)),
                Observable("C", (0, "z", "x")),
            ),
            compatible_sets=(frozenset({"A", "B"}), frozenset({"A", "C"})),
        )
        ab = [("up", 1), ("down", -1), ("down", 1)]
        ca = [(0, "up"), ("x", "down"), ("z", "up"), (0, "down")]
        ds = Dataset(
            s,
            [OutcomeRecord(("A", "B"), r) for r in ab]
            + [OutcomeRecord(("C", "A"), r) for r in ca],
        )
        csv_path = tmp_path / "d.csv"
        scen_path = tmp_path / "s.json"
        write_dataset_csv(ds, csv_path)
        write_scenario_json(s, scen_path)
        assert csv_path.read_text().splitlines()[1:3] == ["A+B;up,1", "A+B;down,-1"]
        loaded = ingest(csv_path, scen_path)
        assert list(loaded) == list(ds)
        streams = extract_streams(loaded)
        assert sorted(streams) == ["A@A+B", "A@A+C", "B@A+B", "C@A+C"]
        assert streams["A@A+B"].values == ("up", "down", "down")
        assert streams["A@A+C"].values == ("up", "down", "up", "down")
        assert streams["C@A+C"].values == (0, "x", "z", 0)
        assert streams["C@A+C"].labels == (0, "z", "x")
        assert streams["B@A+B"].values == (1, -1, 1)


class TestConstraintSystem:
    def test_read_and_solve(self, tmp_path):
        payload = {
            "variables": ["A", "B"],
            "constraints": [
                {
                    "support": ["A", "B"],
                    "probs": {"1,1": 0.5, "-1,-1": 0.5},
                }
            ],
        }
        path = tmp_path / "sys.json"
        path.write_text(json.dumps(payload))
        system = read_constraint_system(path)
        res = jpd_feasible(system)
        assert res.feasible
        assert math.isclose(float(res.witness.prob((1, 1))), 0.5, abs_tol=1e-9)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "sys.json"
        path.write_text(json.dumps({"variables": ["A"]}))
        with pytest.raises(ParseError):
            read_constraint_system(path)

    @pytest.mark.parametrize("exact", [False, True])
    def test_malformed_probability(self, exact, tmp_path):
        path = tmp_path / "sys.json"
        table = {"support": ["A"], "probs": {"1": "abc"}}
        path.write_text(json.dumps({"variables": ["A"], "constraints": [table]}))
        with pytest.raises(ParseError) as exc:
            read_constraint_system(path, exact=exact)
        assert str(exc.value) == "constraint JSON: cannot read 'abc' as a number"


class TestLabelStream:
    def test_read(self, tmp_path):
        path = tmp_path / "x.txt"
        path.write_text("0\n1\n1\n0\n")
        seq = read_label_stream(path)
        assert seq.values == (0, 1, 1, 0)

    def test_empty(self, tmp_path):
        path = tmp_path / "x.txt"
        path.write_text("\n")
        with pytest.raises(ParseError):
            read_label_stream(path)

    def test_lines_become_codes_of_their_parsed_symbols(self, tmp_path):
        path = tmp_path / "x.txt"
        path.write_text(" 1\nb\n\n1\n01\n-1\nb \n 1\n")
        seq = read_label_stream(path)
        # the sequence is built from its codes; its values are decoded only when read
        assert "values" not in vars(seq)
        # " 1", "1" and "01" all parse to 1, so they are one label
        assert seq.labels == (1, "b", -1)
        assert seq.codes.tolist() == [0, 1, 0, 0, 2, 1, 0]
        assert seq.values == (1, "b", 1, 1, -1, "b", 1)


def test_dumps_json_deterministic():
    a = dumps_json({"b": 1, "a": [3, 2]})
    b = dumps_json({"a": [3, 2], "b": 1})
    assert a == b
