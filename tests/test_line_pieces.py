"""Line files read in pieces and the dataset CSV written in runs.

``dataio`` reads a dataset CSV or a label stream ``PIECE_CHARS`` characters
at a time and writes a dataset CSV ``WRITE_LINES`` lines at a time.  The lines
must be exactly those of ``read_text().splitlines()``, and every reader error
must keep its message and line number, wherever the piece boundaries fall.
"""

import math
import tracemalloc
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contexcert import dataio
from contexcert.dataio import (
    ParseError,
    ValidationError,
    read_dataset_csv,
    read_label_stream,
    write_dataset_csv,
)
from contexcert.errors import ContexcertError
from contexcert.quantumgen import planar_observable, sample_quantum_dataset, singlet_state
from contexcert.scenario import Dataset, Observable, Scenario

PIECES = [1, 2, 3, 7]
# every line break str.splitlines knows, besides the plain text around them
BREAKS = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
TEXT = st.lists(st.sampled_from(["a", ";", ",", " ", "é", *BREAKS]), max_size=60).map("".join)


def small_scenario():
    return Scenario((Observable("A1"), Observable("B1")), (frozenset({"A1", "B1"}),))


def read_error(path):
    with pytest.raises(ContexcertError) as err:
        read_dataset_csv(path, small_scenario())
    return type(err.value), str(err.value)


@pytest.mark.parametrize("piece", PIECES)
@settings(max_examples=150, deadline=None)
@given(text=TEXT)
def test_pieces_give_the_lines_of_read_text(piece, text, tmp_path_factory):
    path = tmp_path_factory.mktemp("lines") / "f.txt"
    path.write_text(text, newline="")  # "\r" and "\r\n" reach the file as written
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataio, "PIECE_CHARS", piece)
        assert list(chain.from_iterable(dataio._line_lists(path))) == path.read_text().splitlines()


BODY = "A1+B1;1,1\nA1+B1;-1,1\n"
FAULTS = {
    "empty file": ("", ParseError, "line 1: empty file"),
    "missing header": (
        "A1+B1;1,1\n" + BODY,
        ParseError,
        "line 1: expected header 'setting;outcomes', got 'A1+B1;1,1'",
    ),
    "blank lines, then wrong arity": (
        "setting;outcomes\n" + BODY + "\n  \n" + BODY + "A1+B1;1\n",
        ParseError,
        "line 8: 2 setting ids but 1 outcomes",
    ),
    "two separators": (
        "setting;outcomes\n" + BODY + "A1+B1;1;1,1\n",
        ParseError,
        "line 4: expected exactly one ';' separator",
    ),
    "bad outcome": (
        "setting;outcomes\n" + BODY * 3 + "A1+B1;2,1\n",
        ValidationError,
        "record 6: outcome 2 not in alphabet of A1",
    ),
    "CRLF, then wrong arity": (
        "setting;outcomes\r\n" + BODY.replace("\n", "\r\n") + "A1+B1;1\r\n",
        ParseError,
        "line 4: 2 setting ids but 1 outcomes",
    ),
}


@pytest.mark.parametrize("piece", [*PIECES, 5, 16, 1 << 16])
@pytest.mark.parametrize("text, kind, message", FAULTS.values(), ids=FAULTS.keys())
def test_errors_keep_message_and_line_across_piece_boundaries(
    text, kind, message, piece, tmp_path, monkeypatch
):
    path = tmp_path / "d.csv"
    path.write_text(text, newline="")
    monkeypatch.setattr(dataio, "PIECE_CHARS", piece)
    assert read_error(path) == (kind, message)


@pytest.mark.parametrize("piece", PIECES)
def test_dataset_reads_the_same_at_any_piece_size(piece, tmp_path, monkeypatch):
    path = tmp_path / "d.csv"
    path.write_text(" setting;outcomes \n" + BODY + "\n" + "B1+A1;-1,-1\n" + BODY * 2)
    expected = list(read_dataset_csv(path, small_scenario()))
    monkeypatch.setattr(dataio, "PIECE_CHARS", piece)
    assert list(read_dataset_csv(path, small_scenario())) == expected


@pytest.mark.parametrize("piece", PIECES)
def test_label_stream_at_any_piece_size(piece, tmp_path, monkeypatch):
    monkeypatch.setattr(dataio, "PIECE_CHARS", piece)
    path = tmp_path / "x.txt"
    path.write_text("0\n\n  \nup\r\n-1\n")
    assert read_label_stream(path).values == (0, "up", -1)
    path.write_text("\n \n\t\n")
    with pytest.raises(ParseError) as err:
        read_label_stream(path)
    assert str(err.value) == "line 1: stream contains no symbols"


def test_bad_header_is_refused_before_a_later_undecodable_byte(tmp_path):
    path = tmp_path / "d.csv"
    path.write_bytes(b"nope\n" + BODY.encode() * 20_000 + b"\xff\n")
    assert read_error(path) == (ParseError, "line 1: expected header 'setting;outcomes', got 'nope'")


def singlet_dataset(n, seed=1):
    angles = {"A1": 0.0, "A2": math.pi / 2, "B1": math.pi / 4, "B2": 3 * math.pi / 4}
    obs = {k: planar_observable(k, v, qubit=0 if k[0] == "A" else 1) for k, v in angles.items()}
    settings = [((obs[x], obs[y]), n) for x in ("A1", "A2") for y in ("B1", "B2")]
    return sample_quantum_dataset(singlet_state(), settings, seed=seed)


def test_runs_write_the_same_bytes(tmp_path, monkeypatch):
    ds = singlet_dataset(50)
    whole = tmp_path / "whole.csv"
    write_dataset_csv(ds, whole)
    monkeypatch.setattr(dataio, "WRITE_LINES", 3)
    runs = tmp_path / "runs.csv"
    write_dataset_csv(ds, runs)
    assert runs.read_bytes() == whole.read_bytes()
    assert list(read_dataset_csv(runs, ds.scenario)) == list(ds)


def test_a_refused_token_leaves_no_file(tmp_path):
    scenario = Scenario((Observable("A", ("ok", "a,b")), Observable("B")), ({"A", "B"},))
    ds = Dataset.from_rows(scenario, [(("B", "A"), (1, "ok"))] * 5 + [(("A", "B"), ("a,b", 1))])
    path = tmp_path / "d.csv"
    with pytest.raises(ContexcertError, match="would not read back"):
        write_dataset_csv(ds, path)
    assert not path.exists()


def test_reading_400k_rows_traces_under_10_mb(tmp_path):
    ds = singlet_dataset(100_000)
    path = tmp_path / "d.csv"
    write_dataset_csv(ds, path)
    scenario = ds.scenario
    del ds
    tracemalloc.start()
    try:
        loaded = read_dataset_csv(path, scenario)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(loaded) == 400_000
    assert peak < 10 * 2**20, f"reading traced {peak / 2**20:.1f} MB"
