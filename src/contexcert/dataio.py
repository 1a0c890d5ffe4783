"""File formats: dataset CSV, scenario JSON, constraint systems, label streams.

Dataset CSV carries one joint measurement per row, ``setting;outcomes`` with
the setting a '+'-joined id list and the outcomes comma-separated values,
e.g. ``A1+B2;1,-1``.  The header row ``setting;outcomes`` is required.  The
scenario lives in a JSON sidecar:
``{"observables": [{"id", "alphabet"}], "compatible": [[ids...]]}``.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import product
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator

import numpy as np

from .errors import ContexcertError
from .scenario import (
    DICHOTOMIC,
    Dataset,
    Observable,
    ProbTable,
    Scenario,
)

CSV_HEADER = "setting;outcomes"
PIECE_CHARS = 1 << 16  # characters read at a time; far larger pieces raise the peak memory
WRITE_LINES = 1 << 14  # lines joined into one write

if TYPE_CHECKING:  # imported where used, so reading a dataset loads neither the oracle nor the battery
    from .jpdoracle import MarginalConstraintSystem
    from .randomtests import LabelSequence


class ParseError(ContexcertError):
    """Malformed file content; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


class ValidationError(ContexcertError):
    """A parsed record violates the scenario; carries the record index."""

    def __init__(self, message: str, index: int | None = None):
        self.index = index
        super().__init__(message if index is None else f"record {index}: {message}")


def _parse_value(token: str):
    token = token.strip()
    try:
        return int(token)
    except ValueError:
        return token


def json_number(convert: Any, value: Any, kind: str) -> Any:
    """``convert(value)`` for a value read from a ``kind`` JSON file; a value it
    cannot read, or a JSON boolean, raises a :class:`ParseError` that names it."""
    if not isinstance(value, bool):
        try:
            return convert(value)
        except (TypeError, ValueError):
            pass
    raise ParseError(f"{kind} JSON: cannot read {value!r} as a number")


def read_scenario_json(path: str | Path) -> Scenario:
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid scenario JSON: {exc}") from None
    where = "scenario JSON:"
    try:  # {field: default, **data} gives an absent optional field its default
        observables = []
        entries = _json_field(data, "observables", list, "a list of observables", where)
        for i in range(len(entries)):
            entry = _json_field(entries, i, dict, "an object", "scenario JSON: 'observables' entry")
            alphabet = _json_field({"alphabet": list(DICHOTOMIC), **entry}, "alphabet", list, "a list of outcomes", where)
            observables.append(Observable(entry["id"], tuple(alphabet)))
        sets = _json_field({"compatible": [], **data}, "compatible", list, "a list of compatible sets", where)
        compatible = [
            frozenset(_json_field(sets, i, list, "a list of observable ids", "scenario JSON: compatible set"))
            for i in range(len(sets))
        ]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"scenario JSON missing field: {exc}") from None
    return Scenario(observables=observables, compatible_sets=compatible)


def write_scenario_json(scenario: Scenario, path: str | Path) -> None:
    data = {
        "observables": [
            {"id": o.id, "alphabet": list(o.alphabet)} for o in scenario.observables
        ],
        "compatible": [sorted(s) for s in scenario.compatible_sets],
    }
    Path(path).write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def write_dataset_csv(dataset: Dataset, path: str | Path) -> None:
    """One line per record, picked by its cell number from the lines formatted
    once per cell; text that would not read back raises before the file is
    opened.  Lines are written in runs of ``WRITE_LINES``."""
    texts = []
    for setting in dataset.recorded:
        prefix = "+".join(_token(obs, "its id", obs, str.strip, "+;") for obs in setting)
        tokens = [
            [_token(obs, f"outcome {value!r}", value, _parse_value, ",;") for value in alphabet]
            for obs, alphabet in zip(setting, dataset.scenario.alphabets(setting))
        ]
        texts += [f"{prefix};{','.join(c)}\n" for c in product(*tokens)]
    texts = np.asarray(texts, dtype=object)
    with Path(path).open("w") as out:
        out.write(CSV_HEADER + "\n")
        for start in range(0, len(dataset), WRITE_LINES):
            out.write("".join(texts[dataset.cells[start : start + WRITE_LINES]].tolist()))


def _token(obs_id: str, what: str, value: Any, read: Any, separators: str) -> str:
    """``str(value)``, refused if ``read`` (which strips edge whitespace and line
    breaks) would not give back ``value``, or if it holds a separator or a line break."""
    text = str(value)
    if read(text) != value or any(sep in text for sep in separators) or len(text.splitlines()) > 1:
        raise ContexcertError(f"observable {obs_id!r}: {what} would not read back from a dataset CSV")
    return text


def _line_lists(path: str | Path) -> Iterator[list[str]]:
    """The lines of a text file, exactly as ``read_text().splitlines()`` gives
    them, as one list per piece of about ``PIECE_CHARS`` characters.  A piece is
    cut after its last ``"\\n"``, so no line break is split between two pieces."""
    with Path(path).open() as f:
        rest = ""
        while piece := f.read(PIECE_CHARS):
            cut = piece.rfind("\n") + 1
            if cut:
                yield (rest + piece[:cut]).splitlines()
                rest = piece[cut:]
            else:
                rest += piece
        if rest:
            yield rest.splitlines()


def read_dataset_csv(path: str | Path, scenario: Scenario) -> Dataset:
    """Parse and validate a dataset CSV; errors carry line numbers.  The file is
    read in pieces of about ``PIECE_CHARS`` characters and each piece's lines
    become text numbers, one per distinct line, so no list of all lines is held.
    Each distinct line is parsed once; :meth:`Dataset.from_rows` encodes the distinct
    rows and gathers the records, by text number, from those rows' cells."""
    number: dict[str, int] = {}  # distinct text -> number
    pieces = []  # the text numbers of each piece's lines
    for lines in _line_lists(path):
        if not pieces:  # the first piece starts with the header
            if lines[0].strip() != CSV_HEADER:
                raise ParseError(f"expected header {CSV_HEADER!r}, got {lines[0]!r}", line=1)
            del lines[0]
        for raw in dict.fromkeys(lines):
            number.setdefault(raw, len(number))
        dtype = np.min_scalar_type(len(number))
        pieces.append(np.fromiter(map(number.__getitem__, lines), dtype, len(lines)))
    if not pieces:
        raise ParseError("empty file", line=1)
    texts = np.concatenate(pieces)
    rows, numbers, fault = [], [], None  # the non-blank texts before the first parse fault, and their numbers
    for raw, i in number.items():
        parts = raw.strip().split(";")
        if parts == [""]:  # a blank line
            continue
        setting = tuple(tok.strip() for tok in parts[0].split("+"))
        outcomes = [_parse_value(tok) for tok in parts[-1].split(",")]
        if len(parts) != 2:
            fault = i, ParseError("expected exactly one ';' separator")
        elif len(setting) != len(outcomes):
            fault = i, ParseError(f"{len(setting)} setting ids but {len(outcomes)} outcomes")
        if fault:  # a later text can only be at fault later in the file
            break
        rows.append((setting, outcomes))
        numbers.append(i)
    row = np.zeros(len(number), texts.dtype)  # text number -> its row
    filled = np.zeros(len(number), bool)  # blank texts stay False
    row[numbers], filled[numbers] = np.arange(len(numbers)), True
    try:
        dataset = Dataset.from_rows(scenario, rows, gather=row[texts[filled[texts]]])
    except ContexcertError as exc:  # its row comes before any parse fault's text
        fault = numbers[exc.row], exc
    if fault:
        first, exc = fault
        lineno = int(np.argmax(texts == first)) + 2
        if isinstance(exc, ParseError):
            raise ParseError(str(exc), line=lineno)
        raise ValidationError(str(exc), index=lineno - 2)
    return dataset


def ingest(csv_path: str | Path, scenario_json_path: str | Path) -> Dataset:
    """Load a scenario sidecar plus its dataset CSV into a validated Dataset."""
    scenario = read_scenario_json(scenario_json_path)
    dataset = read_dataset_csv(csv_path, scenario)
    dataset.meta["source"] = str(csv_path)
    dataset.meta["scenario_file"] = str(scenario_json_path)
    return dataset


def read_label_stream(path: str | Path) -> LabelSequence:
    """One symbol per line; integers are parsed, anything else stays a string.
    Each distinct line is parsed once, and each line becomes its symbol's code,
    the labels being the symbols in order of first appearance; blank lines are
    skipped.  So the stream is held as codes, never as a list of symbols."""
    from .randomtests import LabelSequence

    code: dict[str, int] = {}  # distinct line -> its symbol's code, -1 if blank
    labels: dict[Any, int] = {}  # symbol -> code
    pieces = []  # the codes of each piece's lines
    for lines in _line_lists(path):
        for line in dict.fromkeys(lines):
            if line not in code:
                code[line] = labels.setdefault(_parse_value(line), len(labels)) if line.strip() else -1
        dtype = np.min_scalar_type(-max(len(labels), 1))  # holds -1 and every code
        codes = np.fromiter(map(code.__getitem__, lines), dtype, len(lines))
        pieces.append(codes[codes >= 0])
    codes = np.concatenate([np.empty(0, np.int8), *pieces])
    if not len(codes):
        raise ParseError("stream contains no symbols", line=1)
    return LabelSequence.from_codes(tuple(labels), codes)


def _json_field(data: Any, field: Any, kind: type, what: str, where: str = "constraint JSON:") -> Any:
    """``data[field]`` if it is a ``kind``, else a :class:`ParseError` naming the
    field after ``where``: ``tuple`` would split a string into one-letter ids."""
    value = data[field]
    if not isinstance(value, kind):
        raise ParseError(f"{where} {field!r} must be {what}, not {value!r}")
    return value


def probtable_from_json(data: dict, exact: bool = False) -> ProbTable:
    support = tuple(_json_field(data, "support", list, "a list of variable ids"))
    # {field: default, **data} gives an absent optional field its default
    default = [list(DICHOTOMIC)] * len(support)
    alphabets = _json_field({"alphabets": default, **data}, "alphabets", list, "a list of outcome lists")
    alphabets = tuple(
        tuple(_json_field(alphabets, i, list, "a list of outcomes", "constraint JSON: 'alphabets' entry"))
        for i in range(len(alphabets))
    )
    sample_size = data.get("sample_size")
    if sample_size is not None and (type(sample_size) is not int or sample_size < 0):
        raise ParseError(f"constraint JSON: 'sample_size' must be a count of records, not {sample_size!r}")
    probs = {}
    # Fraction(str(p)) reads a float as its shortest decimal repr (0.1 -> 1/10),
    # and a Fraction or an int as itself
    number = (lambda p: Fraction(str(p))) if exact else float
    for key, p in _json_field(data, "probs", dict, "an object of cell probabilities").items():
        cell = tuple(_parse_value(tok) for tok in str(key).split(","))
        probs[cell] = json_number(number, p, "constraint")
    return ProbTable(
        support=support,
        probs=probs,
        alphabets=alphabets,
        sample_size=sample_size,
    )


def read_constraint_system(path: str | Path, exact: bool = False) -> MarginalConstraintSystem:
    """JSON schema: {"variables": [...], "constraints": [{support, probs}]}

    With ``exact`` every JSON number with a fraction or exponent is read as the
    Fraction of its decimal literal, which a double would round past 17 digits."""
    from .jpdoracle import MarginalConstraintSystem

    try:
        data = json.loads(Path(path).read_text(), parse_float=Fraction if exact else float)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid constraint JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ParseError(f"constraint JSON: the top level must be an object, not {data!r}")
    try:
        variables = tuple(_json_field(data, "variables", list, "a list of variable ids"))
        constraints = []
        entries = _json_field(data, "constraints", list, "a list of constraint tables")
        for i in range(len(entries)):
            entry = _json_field(entries, i, dict, "an object", "constraint JSON: 'constraints' entry")
            table = probtable_from_json(entry, exact=exact)
            constraints.append((table.support, table))
    except (KeyError, TypeError) as exc:
        raise ParseError(f"constraint JSON missing field: {exc}") from None
    return MarginalConstraintSystem(variables=variables, constraints=tuple(constraints))


def dumps_json(obj: Any) -> str:
    """Canonical JSON used across the CLI: sorted keys, stable layout."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"
