"""Outcomes are encoded once, by ``scenario.encode_rows``.

``read_dataset_csv`` encodes each setting's distinct rows in one call and
hands ``Dataset`` code blocks; ``extract_streams`` and
``apply_selection`` cut label streams from codes through
``LabelSequence.from_codes``.  The property tests keep the former paths as
their references: the reader that parsed values and then called
``Dataset.from_blocks``, and label streams built from values.
"""

import random
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contexcert import dataio
from contexcert.dataio import (
    CSV_HEADER,
    ParseError,
    ValidationError,
    _parse_value,
    read_dataset_csv,
)
from contexcert.errors import ContexcertError
from contexcert.randomtests import (
    EmptySelection,
    LabelSequence,
    PlaceSelection,
    apply_selection,
    randomness_test,
    selection_mask,
)
from contexcert.scenario import Dataset, Observable, OutcomeRecord, Scenario, encode_rows
from contexcert.suite import default_battery, extract_streams

WIDE = tuple(range(-150, 150))  # 300 values: two-byte codes
ALPHABETS = {
    "pm": st.just((1, -1)),
    "str": st.lists(st.sampled_from(["up", "down", "a", "x", "left"]), min_size=1, unique=True),
    "mixed": st.lists(st.sampled_from([0, "x", 1, "z", -1, 2]), min_size=1, unique=True),
    "wide": st.just(WIDE),
}
FAULTS = ("value", "unknown", "repeat", "incompatible", "arity", "semicolon")


# ------------------------------------------------ reference: the former reader


def reference_read_dataset_csv(path, scenario):
    """``read_dataset_csv`` before the shared row encoder: values are parsed
    and checked here, then ``Dataset.from_blocks`` encodes them."""
    text = Path(path).read_text()
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty file", line=1)
    if lines[0].strip() != CSV_HEADER:
        raise ParseError(f"expected header {CSV_HEADER!r}, got {lines[0]!r}", line=1)
    blocks = []
    prefix = None
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line:
            continue
        parts = line.split(";")
        if len(parts) != 2:
            raise ParseError("expected exactly one ';' separator", line=lineno)
        if parts[0] != prefix:
            prefix = parts[0]
            setting = tuple(tok.strip() for tok in prefix.split("+"))
            if not blocks or blocks[-1][0] != setting:
                blocks.append((setting, []))
                parsed = {}
        rows = blocks[-1][1]
        outcomes = parsed.get(parts[1])
        if outcomes is None:
            outcomes = tuple(_parse_value(tok) for tok in parts[1].split(","))
            if len(setting) != len(outcomes):
                raise ParseError(
                    f"{len(setting)} setting ids but {len(outcomes)} outcomes", line=lineno
                )
            try:
                for obs_id, value in zip(setting, outcomes):
                    if value not in scenario.observable(obs_id).alphabet:
                        raise ContexcertError(f"outcome {value!r} not in alphabet of {obs_id}")
                if not rows and len(set(setting)) != len(setting):
                    raise ContexcertError(f"setting {setting} repeats an observable")
                if not rows and not scenario.is_compatible(setting):
                    raise ContexcertError(f"setting {setting} is not jointly measurable")
            except ContexcertError as exc:
                raise ValidationError(str(exc), index=lineno - 2) from None
            parsed[parts[1]] = outcomes
        rows.append(outcomes)
    return Dataset.from_blocks(scenario, blocks)


def read_outcome(reader, path, scenario):
    """The code blocks read, or the error's type, message, record and line."""
    try:
        dataset = reader(path, scenario)
    except ContexcertError as exc:
        return type(exc), str(exc), getattr(exc, "index", None), getattr(exc, "line", None)
    return [(setting, codes.dtype, codes.tolist()) for setting, codes in dataset.code_blocks]


# ------------------------------------------------------------- drawn CSVs


@st.composite
def scenarios(draw):
    """Three or four observables; every pair is jointly measurable except
    (O0, O1), which the incompatible fault uses."""
    kinds = draw(st.lists(st.sampled_from(sorted(ALPHABETS)), min_size=3, max_size=4))
    observables = tuple(Observable(f"O{i}", draw(ALPHABETS[kind])) for i, kind in enumerate(kinds))
    ids = [o.id for o in observables]
    pairs = [frozenset((a, b)) for i, a in enumerate(ids) for b in ids[i + 1 :]]
    return Scenario(observables, tuple(p for p in pairs if p != {"O0", "O1"}))


def draw_row(draw, scenario, setting):
    return [draw(st.sampled_from(scenario.observable(obs).alphabet)) for obs in setting]


def line_text(draw, setting, row, sep=";"):
    pad = draw(st.sampled_from(["", " "]))
    return f"{pad}{'+'.join(setting)}{sep}{f',{pad}'.join(map(str, row))}{pad}"


def faulty_line(draw, scenario, setting, fault):
    """A line over ``setting`` with one fault of kind ``fault``."""
    row = draw_row(draw, scenario, setting)
    col = draw(st.integers(0, len(setting) - 1))
    if fault == "value":
        row[col] = draw(st.sampled_from(["zz", 999]))
    elif fault == "unknown":
        setting = setting[:col] + ("X9",) + setting[col + 1 :]
    elif fault == "repeat":
        obs = setting[col]
        setting, row = (obs, obs), draw_row(draw, scenario, (obs, obs))
    elif fault == "incompatible":
        setting = tuple(draw(st.permutations(["O0", "O1"])))
        row = draw_row(draw, scenario, setting)
    elif fault == "arity":
        row = row + [row[0]] if draw(st.booleans()) or len(row) == 1 else row[:-1]
    return line_text(draw, setting, row, sep=" " if fault == "semicolon" else ";")


@st.composite
def csv_texts(draw, scenario, faults=()):
    """A dataset CSV over ``scenario``: repeated and reordered blocks, pairs
    and single observables, blank lines, and edge-whitespace variants of a
    line inside its block.  Each of ``faults`` puts one faulty line after the
    one before it; the first faulty text may recur later in the file."""
    settings_pool = [tuple(sorted(s)) for s in scenario.compatible_sets]
    settings_pool += [(o.id,) for o in scenario.observables]
    lines = []
    for _ in range(draw(st.integers(1, 5))):
        setting = tuple(draw(st.permutations(draw(st.sampled_from(settings_pool)))))
        for _ in range(draw(st.integers(1, 12))):
            lines.append(line_text(draw, setting, draw_row(draw, scenario, setting)))
        for _ in range(draw(st.integers(0, 1))):
            lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "  "])))
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.sampled_from([i for i, line in enumerate(lines) if line.strip()]))
        edges = st.sampled_from(["", " ", "\t", "  "])
        lines.insert(at + 1, f"{draw(edges)}{lines[at].strip()}{draw(edges)}")
    if faults:
        at = draw(st.sampled_from([i for i, line in enumerate(lines) if line.strip()]))
        setting = tuple(tok.strip() for tok in lines[at].split(";")[0].split("+"))
        lines[at] = faulty_line(draw, scenario, setting, faults[0])
        if draw(st.booleans()):
            lines.insert(draw(st.integers(at + 1, len(lines))), lines[at])
    for fault in faults[1:]:
        setting = tuple(draw(st.permutations(draw(st.sampled_from(settings_pool)))))
        at = draw(st.integers(at + 1, len(lines)))
        lines.insert(at, faulty_line(draw, scenario, setting, fault))
    return "\n".join([CSV_HEADER, *lines]) + "\n"


@pytest.fixture(scope="module")
def csv_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("row-encoder")


# ------------------------------------------------------------- the reader


class TestReaderMatchesFormerReader:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_valid_csv_same_code_blocks(self, csv_dir, data):
        scenario = data.draw(scenarios())
        path = csv_dir / "valid.csv"
        path.write_text(data.draw(csv_texts(scenario)))
        expected = read_outcome(reference_read_dataset_csv, path, scenario)
        assert isinstance(expected, list)
        assert read_outcome(read_dataset_csv, path, scenario) == expected

    @pytest.mark.parametrize("fault", FAULTS)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_one_fault_same_error(self, csv_dir, fault, data):
        scenario = data.draw(scenarios())
        path = csv_dir / f"{fault}.csv"
        path.write_text(data.draw(csv_texts(scenario, (fault,))))
        expected = read_outcome(reference_read_dataset_csv, path, scenario)
        assert not isinstance(expected, list)
        assert read_outcome(read_dataset_csv, path, scenario) == expected

    @pytest.mark.parametrize("fault", FAULTS)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_two_faults_first_line_wins(self, csv_dir, fault, data):
        scenario = data.draw(scenarios())
        path = csv_dir / f"{fault}-2.csv"
        path.write_text(data.draw(csv_texts(scenario, (fault, data.draw(st.sampled_from(FAULTS))))))
        expected = read_outcome(reference_read_dataset_csv, path, scenario)
        assert not isinstance(expected, list)
        assert read_outcome(read_dataset_csv, path, scenario) == expected

    @pytest.mark.parametrize("distinct", [300, 70_000])  # past 255 and past 65,535 texts
    @pytest.mark.parametrize(
        "faults",
        [(), (("value", 0.9),), (("arity", 0.5), ("value", 0.8)), (("value", 0.6), ("semicolon", 0.7))],
        ids=["valid", "value", "arity-first", "value-first"],
    )
    def test_many_distinct_lines_same_outcome(self, csv_dir, distinct, faults):
        scenario = Scenario(
            (Observable("A", WIDE), Observable("B", WIDE), Observable("C")), ({"A", "B"}, {"B", "C"})
        )
        rnd = random.Random(distinct)
        lines = [f"A+B;{a},{b}" for a, b in rnd.sample(list(product(WIDE, WIDE)), distinct)]
        lines += ["B+C;5,1", "", "C+B;-1,-150", " A+B;0,0"]
        lines += rnd.choices(lines, k=distinct // 2)
        for kind, at in faults:
            bad = {"value": "A+B;0,999", "arity": "A+B;0", "semicolon": "A+B 0,0"}[kind]
            lines.insert(int(at * len(lines)), bad)
        path = csv_dir / "many.csv"
        path.write_text("\n".join([CSV_HEADER, *lines]) + "\n")
        expected = read_outcome(reference_read_dataset_csv, path, scenario)
        assert isinstance(expected, list) == (not faults)
        assert read_outcome(read_dataset_csv, path, scenario) == expected

    def test_unknown_id_is_named_before_compatibility(self, tmp_path):
        scenario = Scenario((Observable("A1"), Observable("B1")), ({"A1", "B1"},))
        path = tmp_path / "d.csv"
        path.write_text(f"{CSV_HEADER}\nA1+B1;1,1\n\nA1+X9;1,1\n")
        with pytest.raises(ValidationError) as exc:
            read_dataset_csv(path, scenario)
        assert str(exc.value) == "record 2: unknown observable 'X9'"
        assert exc.value.index == 2

    def test_each_distinct_line_is_encoded_once(self, tmp_path, monkeypatch):
        calls = []

        def counting_encode_rows(scenario, setting, rows):
            calls.append((setting, rows))
            return encode_rows(scenario, setting, rows)

        monkeypatch.setattr(dataio, "encode_rows", counting_encode_rows)
        scenario = Scenario((Observable("A"), Observable("B")), ({"A", "B"},))
        path = tmp_path / "d.csv"
        path.write_text(
            f"{CSV_HEADER}\nA+B;1,-1\nA;1\nA+B;1,-1\nA+B;-1,-1\nA;1\n\nA+B;1,-1\nB;1\n\nA+B;1,-1\n"
        )
        blocks = read_dataset_csv(path, scenario).code_blocks
        # one call per setting, its distinct rows in order of first appearance
        assert calls == [
            (("A", "B"), [[1, -1], [-1, -1]]),
            (("A",), [[1]]),
            (("B",), [[1]]),
        ]
        assert [(s, c.tolist()) for s, c in blocks] == [
            (("A", "B"), [[0, 1]]),
            (("A",), [[0]]),
            (("A", "B"), [[0, 1], [1, 1]]),
            (("A",), [[0]]),
            (("A", "B"), [[0, 1]]),
            (("B",), [[0]]),
            (("A", "B"), [[0, 1]]),
        ]

    def test_one_code_row_per_distinct_text(self, tmp_path):
        scenario = Scenario((Observable("A", ("up", "down")), Observable("B")), ({"A", "B"},))
        path = tmp_path / "d.csv"
        path.write_text(f"{CSV_HEADER}\nA+B;up,1\nA+B;down,-1\nA+B; up,1\nB+A;1,up\nA+B;down,-1\n")
        blocks = read_dataset_csv(path, scenario).code_blocks
        assert [(s, c.tolist()) for s, c in blocks] == [
            (("A", "B"), [[0, 0], [1, 1], [0, 0]]),
            (("B", "A"), [[0, 0]]),
            (("A", "B"), [[1, 1]]),
        ]


# ------------------------------------------------------------- the streams


def reference_streams(dataset):
    """Per-(setting, observable) streams built from the records' values."""
    values = {}
    for record in dataset:
        key_base = "+".join(dataset.scenario.canonical_setting(record.setting))
        for obs, value in zip(record.setting, record.outcomes):
            alphabet = dataset.scenario.observable(obs).alphabet
            values.setdefault(f"{obs}@{key_base}", (alphabet, []))[1].append(value)
    return {
        key: LabelSequence.from_values(column, alphabet)
        for key, (alphabet, column) in sorted(values.items())
    }


def assert_same_sequence(seq, ref):
    assert seq.labels == ref.labels
    assert seq.values == ref.values
    assert np.array_equal(seq.codes, ref.codes)
    assert len(seq) == len(ref)


def battery_outcome(seq, selections):
    try:
        return randomness_test(seq, selections).to_json()
    except ContexcertError as exc:
        return type(exc), str(exc)


class TestStreamsFromCodes:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_extract_streams_equals_from_values(self, csv_dir, data):
        scenario = data.draw(scenarios())
        path = csv_dir / "streams.csv"
        path.write_text(data.draw(csv_texts(scenario)))
        dataset = read_dataset_csv(path, scenario)
        streams, expected = extract_streams(dataset), reference_streams(dataset)
        assert list(streams) == list(expected)
        for key, seq in streams.items():
            assert_same_sequence(seq, expected[key])
            battery = default_battery(seq, coin_seed=3)
            assert battery_outcome(seq, battery) == battery_outcome(expected[key], battery)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_apply_selection_equals_from_values(self, data):
        labels = tuple(data.draw(ALPHABETS[data.draw(st.sampled_from(sorted(ALPHABETS)))]))
        values = data.draw(st.lists(st.sampled_from(labels), min_size=1, max_size=60))
        seq = LabelSequence.from_values(values, labels)
        selections = default_battery(seq, coin_seed=data.draw(st.integers(0, 9)))
        selections.append(PlaceSelection.index_arithmetic(3, 1))
        selections.append(PlaceSelection.custom(lambda n, prefix: len(prefix) % 4 == 1, "custom"))
        for sel in selections:
            mask = selection_mask(seq, sel)
            if not mask.any():
                with pytest.raises(EmptySelection):
                    apply_selection(seq, sel)
                continue
            kept = [seq.values[i] for i in np.flatnonzero(mask)]
            out = apply_selection(seq, sel)
            assert_same_sequence(out, LabelSequence.from_values(kept, labels))
            # a sequence cut from codes cuts again the same way
            again = apply_selection(out, PlaceSelection.index_arithmetic(2, 1))
            assert again.values == tuple(kept[::2])

    def test_from_codes_keeps_the_codes(self):
        codes = np.array([1, 0, 0, 1], dtype=np.uint8)
        seq = LabelSequence.from_codes(("down", "up"), codes)
        assert seq.codes is codes
        assert seq.values == ("up", "down", "down", "up")
        assert len(seq) == 4

    @pytest.mark.parametrize(
        "labels, codes, message",
        [
            ((1, 1), [0, 1], "labels must be nonempty and distinct"),
            ((), [0], "labels must be nonempty and distinct"),
            ((1, -1), [], "sequence must contain at least one value"),
            ((1, -1), [0, 2], "codes must lie in 0..1"),
            ((1, -1), [-1, 0], "codes must lie in 0..1"),
        ],
    )
    def test_from_codes_refuses(self, labels, codes, message):
        with pytest.raises(ContexcertError) as exc:
            LabelSequence.from_codes(labels, np.array(codes, dtype=np.int8))
        assert str(exc.value) == message


def test_block_of_tuple_values_builds():
    scenario = Scenario((Observable("A", ((1, 2), (3, 4))), Observable("B")), ({"A", "B"},))
    dataset = Dataset.from_blocks(scenario, [(("A",), [((1, 2),), ((3, 4),)])])
    assert [codes.tolist() for _, codes in dataset.code_blocks] == [[[0], [1]]]
    assert list(dataset) == [OutcomeRecord(("A",), ((1, 2),)), OutcomeRecord(("A",), ((3, 4),))]
    for rows in ([((1, 2),), ((1, 2), (3, 4))], [(1, 2)], [(1, 2), ((3, 4),)], [(1, 2, 3)]):
        with pytest.raises(ContexcertError, match="outcome matrix shape does not match setting"):
            Dataset.from_blocks(scenario, [(("A",), rows)])


def test_iteration_decodes_tuple_valued_alphabets():
    scenario = Scenario(
        (Observable("A", ((1, 2), (3, 4))), Observable("B")), ({"A", "B"},)
    )
    records = [
        OutcomeRecord(("A", "B"), ((3, 4), -1)),
        OutcomeRecord(("A", "B"), ((1, 2), 1)),
        OutcomeRecord(("B", "A"), (1, (1, 2))),
    ]
    dataset = Dataset(scenario, records)
    assert list(dataset) == records
    streams = extract_streams(dataset)
    assert streams["A@A+B"].values == ((3, 4), (1, 2), (1, 2))
    assert streams["A@A+B"].labels == ((1, 2), (3, 4))
