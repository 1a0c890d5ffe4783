"""One alphabet encoder and one cell index.

``scenario.alphabet_codes`` maps outcome values to codes for datasets, label
streams and after-pattern selections; ``scenario.cell_index`` numbers code
rows, and a dataset keeps each record as its cell number.  Each property test keeps the
code path the encoder replaced as its reference.
"""

import math
from itertools import repeat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contexcert.dataio import CSV_HEADER, read_dataset_csv, write_dataset_csv
from contexcert.errors import ContexcertError
from contexcert.randomtests import LabelSequence, PlaceSelection, UnknownLabel, selection_mask
from contexcert.scenario import (
    Dataset,
    Observable,
    Scenario,
    alphabet_codes,
    cell_index,
    code_dtype,
    encode_rows,
)

INTS = st.integers(-3, 3)
TEXTS = st.sampled_from(["a", "b", "up", "x", "0", "1", "-1"])
MIXED_POOL = st.sampled_from([0, "0", "x", 1, "1", -1, 2])
BOOLS_AND_INTS = st.one_of(st.booleans(), st.integers(-2, 2))

LABELS = {
    "int": st.lists(INTS, min_size=1, max_size=4, unique=True),
    "str": st.lists(TEXTS, min_size=1, max_size=4, unique=True),
    "mixed": st.lists(MIXED_POOL, min_size=1, max_size=5, unique=True),
    # True == 1 and False == 0, so uniqueness is by equality, as Observable checks
    "bool": st.lists(BOOLS_AND_INTS, min_size=1, max_size=4, unique_by=lambda v: v + 0),
}
# values outside the labels: other types, and equal-but-different values
EXTRAS = st.sampled_from([True, False, 1, 0, 1.0, "1", "0", "y", 9, None])


def values_from(draw, labels, min_size=1, max_size=40):
    pool = st.one_of(st.sampled_from(labels), EXTRAS)
    return draw(st.lists(pool, min_size=min_size, max_size=max_size))


# ------------------------------------------------ reference: the former paths


def reference_label_check(labels, values):
    """``LabelSequence`` validation before the shared encoder."""
    known = set(labels)
    for v in values:
        if v not in known:
            return f"value {v!r} not among labels {tuple(labels)}"
    return None


def reference_label_codes(labels, values):
    index = {label: i for i, label in enumerate(labels)}
    return np.asarray([index[v] for v in values], dtype=np.int64)


def reference_pattern_error(labels, pattern):
    index = {label: i for i, label in enumerate(labels)}
    try:
        [index[v] for v in pattern]
    except KeyError as exc:
        return f"pattern value {exc.args[0]!r} not in alphabet"
    return None


def reference_block_codes(setting, alphabets, rows):
    """``Dataset._append`` before the shared encoder: one object-dtype
    comparison per alphabet value; returns codes or the error message."""
    values = np.asarray(rows, dtype=object)
    width = np.min_scalar_type(max(len(a) for a in alphabets) - 1)
    codes = np.zeros(values.shape, dtype=width)
    known = np.zeros(values.shape, dtype=bool)
    for col, alphabet in enumerate(alphabets):
        for code, value in enumerate(alphabet):
            hit = values[:, col] == value
            codes[hit, col] = code
            known[:, col] |= hit
    if not known.all():
        row, col = np.argwhere(~known)[0]
        return f"outcome {values[row, col]!r} not in alphabet of {setting[col]}"
    return codes


def reference_csv(dataset):
    """``write_dataset_csv`` before the cell index: one f-string per row."""
    lines = [CSV_HEADER]
    for record in dataset:
        lines.append(f"{'+'.join(record.setting)};{','.join(map(str, record.outcomes))}")
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------- the encoder


class TestAlphabetCodes:
    def test_dict_semantics(self):
        codes = alphabet_codes([1, True, 1.0, "1", -1, None, [1]], (1, -1))
        assert codes.tolist() == [0, 0, 0, -1, 1, -1, -1]

    @pytest.mark.parametrize("size, dtype", [(1, np.int8), (128, np.int8), (129, np.int16)])
    def test_narrowest_signed_dtype(self, size, dtype):
        alphabet = tuple(range(size))
        codes = alphabet_codes([size - 1, size], alphabet)
        assert codes.dtype == dtype
        assert codes.tolist() == [size - 1, -1]

    @pytest.mark.parametrize("radices, dtype", [((2, 2), np.uint8), ((2, 256), np.uint8), ((257, 2), np.uint16)])
    def test_code_dtype_holds_the_largest_code(self, radices, dtype):
        assert code_dtype(radices) == dtype
        alphabets = [tuple(range(r)) for r in radices]
        scenario = Scenario((Observable("X", alphabets[0]), Observable("Y", alphabets[1])), ({"X", "Y"},))
        codes = encode_rows(scenario, ("X", "Y"), [(radices[0] - 1, radices[1] - 1)])
        assert codes.dtype == dtype and codes.tolist() == [[radices[0] - 1, radices[1] - 1]]

    def test_numpy_array_does_not_stringify_mixed_values(self):
        # np.asarray([0, "x"]) would turn 0 into "0"; the encoder never does
        assert alphabet_codes([0, "x", "0"], ("0", 0, "x")).tolist() == [1, 2, 0]

    def test_cell_index_follows_product_order(self):
        codes = np.array([[0, 0, 0], [1, 2, 1], [0, 1, 1], [1, 0, 0]], dtype=np.uint8)
        # column order (2, 0, 1) with radices (2, 2, 3)
        assert cell_index(codes, (2, 2, 3), (2, 0, 1)).tolist() == [0, 11, 7, 3]


def reference_alphabet_codes(values, alphabet):
    """``alphabet_codes`` before the byte pass: one ``fromiter`` over ``index.get``."""
    index = {value: code for code, value in enumerate(alphabet)}
    dtype = np.min_scalar_type(-len(alphabet))
    try:
        return np.fromiter(map(index.get, values, repeat(-1)), dtype=dtype, count=len(values))
    except TypeError:
        codes = (index.get(v, -1) if getattr(v, "__hash__", None) else -1 for v in values)
        return np.fromiter(codes, dtype=dtype, count=len(values))


def edge_alphabet(size, kind):
    """``size`` ints, or "1" and None before ``size - 2`` ints."""
    return tuple(range(size)) if kind == "ints" else ("1", None, *range(size - 2))


class TestByteCodesMatchFromiter:
    """Up to 128 labels, codes are one byte each; past 128, the former path."""

    @pytest.mark.parametrize("where", ["first", "last", "absent"])
    @pytest.mark.parametrize(
        "kind, unknown",
        [(kind, v) for kind in ("ints", "mixed") for v in ("x", [1], 1000, np.int64(-9), "1", None)
         if v not in edge_alphabet(129, kind)],
        ids=repr,
    )
    @pytest.mark.parametrize("size", [127, 128, 129])
    def test_codes_and_first_unknown(self, size, kind, unknown, where):
        alphabet = edge_alphabet(size, kind)
        known = [*alphabet[::-1], True, False, 1.0, np.int64(size - 3), "1", None]
        known = [v for v in known if v in alphabet]
        values = {"first": [unknown, *known], "last": [*known, unknown], "absent": known}[where]
        expected = reference_alphabet_codes(values, alphabet)
        codes = alphabet_codes(values, alphabet)
        assert codes.dtype == expected.dtype == (np.int8 if size <= 128 else np.int16)
        assert codes.tolist() == expected.tolist()
        assert np.flatnonzero(codes < 0).tolist() == np.flatnonzero(expected < 0).tolist()
        assert (where == "absent") == (expected >= 0).all()

        scenario = Scenario((Observable("X", alphabet),))
        rows = [(v,) for v in values]
        if where == "absent":
            assert LabelSequence(alphabet, values).codes.tolist() == expected.tolist()
            assert encode_rows(scenario, ("X",), rows).ravel().tolist() == expected.tolist()
            return
        first = values[int(np.flatnonzero(expected < 0)[0])]
        with pytest.raises(UnknownLabel) as exc:
            LabelSequence(alphabet, values)
        assert str(exc.value) == f"value {first!r} not among labels {alphabet}"
        with pytest.raises(ContexcertError) as exc:
            encode_rows(scenario, ("X",), rows)
        assert str(exc.value) == f"outcome {first!r} not in alphabet of X"
        assert exc.value.row == (0 if where == "first" else len(values) - 1)

    @pytest.mark.parametrize("size", [127, 128, 129])
    def test_codes_are_writable(self, size):
        codes = alphabet_codes([0, 1, "x"], tuple(range(size)))
        codes[0] = 5
        assert codes.tolist() == [5, 1, -1]


@pytest.mark.parametrize("kind", sorted(LABELS))
class TestEncoderProperties:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_label_sequence_codes_and_refusal(self, kind, data):
        labels = data.draw(LABELS[kind])
        values = values_from(data.draw, labels)
        expected = reference_label_check(labels, values)
        if expected is not None:
            with pytest.raises(UnknownLabel) as exc:
                LabelSequence(labels, values)
            assert str(exc.value) == expected
            return
        seq = LabelSequence(labels, values)
        assert np.array_equal(seq.codes, reference_label_codes(labels, values))

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_after_pattern_refusal_text(self, kind, data):
        labels = data.draw(LABELS[kind])
        seq = LabelSequence(labels, labels * 3)
        pattern = tuple(values_from(data.draw, labels, max_size=3))
        expected = reference_pattern_error(labels, pattern)
        if expected is None:
            selection_mask(seq, PlaceSelection.after_pattern(pattern))
            return
        with pytest.raises(UnknownLabel) as exc:
            selection_mask(seq, PlaceSelection.after_pattern(pattern))
        assert str(exc.value) == expected

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_dataset_blocks_encode_as_before(self, kind, data):
        n_obs = data.draw(st.integers(1, 3))
        ids = tuple(f"X{i}" for i in range(n_obs))
        alphabets = {obs: tuple(data.draw(LABELS[kind])) for obs in ids}
        scenario = Scenario(tuple(Observable(o, alphabets[o]) for o in ids), (frozenset(ids),))
        setting = tuple(data.draw(st.permutations(ids)))
        n_rows = data.draw(st.integers(1, 12))
        rows = [
            tuple(values_from(data.draw, alphabets[obs], 1, 1)[0] for obs in setting)
            for _ in range(n_rows)
        ]
        expected = reference_block_codes(setting, scenario.alphabets(setting), rows)
        if isinstance(expected, str):
            with pytest.raises(ContexcertError) as exc:
                Dataset.from_rows(scenario, [(setting, row) for row in rows])
            assert str(exc.value) == expected
            return
        codes = encode_rows(scenario, setting, rows)
        assert codes.dtype == expected.dtype
        assert np.array_equal(codes, expected)
        ds = Dataset.from_rows(scenario, [(setting, row) for row in rows])
        radices = [len(a) for a in scenario.alphabets(setting)]
        assert ds.recorded == (setting,)
        assert ds.cells.dtype == np.min_scalar_type(math.prod(radices) - 1)  # the narrowest
        assert ds.cells.tolist() == cell_index(expected, radices, range(len(setting))).tolist()


# ---------------------------------------------------------------- the writer


WRITABLE = {
    "int": st.lists(INTS, min_size=1, max_size=4, unique=True),
    "str": st.lists(st.sampled_from(["a", "b", "up", "x", "-"]), min_size=1, max_size=4, unique=True),
    "mixed": st.lists(st.sampled_from([0, "x", -3, "up", 7]), min_size=1, max_size=5, unique=True),
    "wide": st.lists(st.integers(-9, 9), min_size=3, max_size=6, unique=True),
}


class TestWriterMatchesPerRowFormatter:
    @pytest.mark.parametrize("kind", sorted(WRITABLE))
    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_byte_equal_and_reads_back(self, kind, data, tmp_path_factory):
        n_obs = data.draw(st.integers(1, 3))
        ids = tuple(f"X{i}" for i in range(n_obs))
        alphabets = {obs: tuple(data.draw(WRITABLE[kind])) for obs in ids}
        scenario = Scenario(tuple(Observable(o, alphabets[o]) for o in ids), (frozenset(ids),))
        blocks = []
        # repeated and reordered settings, each its own block
        for _ in range(data.draw(st.integers(1, 5))):
            order = tuple(data.draw(st.permutations(ids)))
            row = st.tuples(*(st.sampled_from(alphabets[obs]) for obs in order))
            blocks.append((order, data.draw(st.lists(row, min_size=1, max_size=20))))
        ds = Dataset.from_rows(scenario, [(order, row) for order, rows in blocks for row in rows])
        path = tmp_path_factory.mktemp("csv") / "d.csv"
        write_dataset_csv(ds, path)
        assert path.read_text() == reference_csv(ds)
        assert list(read_dataset_csv(path, scenario)) == list(ds)


class TestWriterRefusesWhatItCannotReadBack:
    @pytest.mark.parametrize(
        "value", ["1", " up", "up ", "a,b", "x;y", "a\nb", "", " ", True, 1.5, "007"]
    )
    def test_outcome_value(self, value, tmp_path):
        alphabet = ("ok", value)
        scenario = Scenario((Observable("A", alphabet), Observable("B")), ({"A", "B"},))
        ds = Dataset.from_rows(scenario, [(("B", "A"), (1, "ok")), (("B", "A"), (-1, value))])
        path = tmp_path / "d.csv"
        if value == "":
            # the empty string reads back as itself
            write_dataset_csv(ds, path)
            assert list(read_dataset_csv(path, scenario)) == list(ds)
            return
        with pytest.raises(ContexcertError) as exc:
            write_dataset_csv(ds, path)
        assert str(exc.value) == (
            f"observable 'A': outcome {value!r} would not read back from a dataset CSV"
        )

    @pytest.mark.parametrize("obs_id", ["A+B", "A;B", " A", "A\nB"])
    def test_observable_id(self, obs_id, tmp_path):
        scenario = Scenario((Observable(obs_id), Observable("C")), ({obs_id, "C"},))
        ds = Dataset.from_rows(scenario, [(("C", obs_id), (1, -1))])
        with pytest.raises(ContexcertError) as exc:
            write_dataset_csv(ds, tmp_path / "d.csv")
        assert str(exc.value) == (
            f"observable {obs_id!r}: its id would not read back from a dataset CSV"
        )

    def test_a_comma_in_an_id_reads_back(self, tmp_path):
        scenario = Scenario((Observable("A,1"), Observable("B")), ({"A,1", "B"},))
        ds = Dataset.from_rows(scenario, [(("A,1", "B"), (1, -1)), (("A,1", "B"), (-1, -1))])
        write_dataset_csv(ds, tmp_path / "d.csv")
        assert list(read_dataset_csv(tmp_path / "d.csv", scenario)) == list(ds)
