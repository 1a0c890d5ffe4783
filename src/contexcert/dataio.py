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
from typing import Any, Iterable

import numpy as np

from .errors import ContexcertError
from .jpdoracle import MarginalConstraintSystem
from .randomtests import LabelSequence
from .scenario import (
    DICHOTOMIC,
    Dataset,
    Observable,
    ProbTable,
    Scenario,
    cell_index,
    encode_rows,
)

CSV_HEADER = "setting;outcomes"


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
    cannot read raises a :class:`ParseError` that names it."""
    try:
        return convert(value)
    except (TypeError, ValueError):
        raise ParseError(f"{kind} JSON: cannot read {value!r} as a number") from None


def read_scenario_json(path: str | Path) -> Scenario:
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid scenario JSON: {exc}") from None
    try:
        observables = tuple(
            Observable(entry["id"], tuple(entry.get("alphabet", DICHOTOMIC)))
            for entry in data["observables"]
        )
        compatible = tuple(frozenset(s) for s in data.get("compatible", []))
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
    """One line per record, picked by :func:`cell_index` from the setting's
    lines formatted once per outcome cell; text that would not read back raises."""
    lines = [CSV_HEADER]
    texts: dict[tuple[str, ...], np.ndarray] = {}
    for setting, codes in dataset.code_blocks:
        alphabets = dataset.scenario.alphabets(setting)
        if setting not in texts:
            prefix = "+".join(_token(obs, "its id", obs, str.strip, "+;") for obs in setting)
            tokens = [
                [_token(obs, f"outcome {value!r}", value, _parse_value, ",;") for value in alphabet]
                for obs, alphabet in zip(setting, alphabets)
            ]
            texts[setting] = np.asarray([f"{prefix};{','.join(c)}" for c in product(*tokens)], dtype=object)
        cells = cell_index(codes, [len(a) for a in alphabets], range(len(setting)))
        lines.extend(texts[setting][cells].tolist())
    Path(path).write_text("\n".join(lines) + "\n")


def _token(obs_id: str, what: str, value: Any, read: Any, separators: str) -> str:
    """``str(value)``, refused if ``read`` (which strips edge whitespace and line
    breaks) would not give back ``value``, or if it holds a separator or a line break."""
    text = str(value)
    if read(text) != value or any(sep in text for sep in separators) or len(text.splitlines()) > 1:
        raise ContexcertError(f"observable {obs_id!r}: {what} would not read back from a dataset CSV")
    return text


def read_dataset_csv(path: str | Path, scenario: Scenario) -> Dataset:
    """Parse and validate a dataset CSV; errors carry line numbers.  Each distinct
    line is parsed once and each setting's distinct rows are encoded in one call;
    a block is a run of lines with one setting, cut from the lines' text numbers."""
    lines = Path(path).read_text().splitlines()
    if not lines:
        raise ParseError("empty file", line=1)
    if lines[0].strip() != CSV_HEADER:
        raise ParseError(f"expected header {CSV_HEADER!r}, got {lines[0]!r}", line=1)
    number = {raw: i for i, raw in enumerate(dict.fromkeys(lines[1:]))}  # distinct text -> number
    texts = np.fromiter(map(number.get, lines[1:]), np.min_scalar_type(len(number)), len(lines) - 1)
    members: dict[tuple[str, ...], dict[int, list]] = {}  # setting -> {text number: outcomes}
    faults: dict[int, ContexcertError] = {}  # text number -> what is wrong with it
    for raw, i in number.items():
        parts = raw.strip().split(";")
        if parts == [""]:  # a blank line
            continue
        setting = tuple(tok.strip() for tok in parts[0].split("+"))
        outcomes = [_parse_value(tok) for tok in parts[-1].split(",")]
        if len(parts) != 2:
            faults[i] = ParseError("expected exactly one ';' separator")
        elif len(setting) != len(outcomes):
            faults[i] = ParseError(f"{len(setting)} setting ids but {len(outcomes)} outcomes")
        if faults:  # a later text can only be at fault later in the file
            break
        members.setdefault(setting, {})[i] = outcomes
    setting_of = np.full(len(number), len(members), np.min_scalar_type(len(members)))  # blank: none
    row_of = np.zeros(len(number), np.min_scalar_type(len(number)))
    blocks = []  # (setting, code rows) of each setting
    for k, (setting, rows) in enumerate(members.items()):
        numbers = list(rows)
        setting_of[numbers], row_of[numbers] = k, range(len(numbers))
        try:
            blocks.append((setting, encode_rows(scenario, setting, list(rows.values()))))
        except ContexcertError as exc:  # a setting fault lies in the setting's first row
            faults[numbers[getattr(exc, "row", 0)]] = exc
    if faults:
        first = min(faults)
        lineno = int(np.argmax(texts == first)) + 2
        if isinstance(faults[first], ParseError):
            raise ParseError(str(faults[first]), line=lineno)
        raise ValidationError(str(faults[first]), index=lineno - 2)
    texts = texts[setting_of[texts] < len(members)]
    dataset = Dataset(scenario)
    for run in filter(len, np.split(texts, np.flatnonzero(np.diff(setting_of[texts])) + 1)):
        setting, codes = blocks[setting_of[run[0]]]
        dataset.code_blocks.append((setting, codes[row_of[run]]))
    return dataset


def ingest(csv_path: str | Path, scenario_json_path: str | Path) -> Dataset:
    """Load a scenario sidecar plus its dataset CSV into a validated Dataset."""
    scenario = read_scenario_json(scenario_json_path)
    dataset = read_dataset_csv(csv_path, scenario)
    dataset.meta["source"] = str(csv_path)
    dataset.meta["scenario_file"] = str(scenario_json_path)
    return dataset


def read_label_stream(path: str | Path, labels: Iterable | None = None) -> LabelSequence:
    """One symbol per line; integers are parsed, anything else stays a string."""
    values = [_parse_value(line) for line in Path(path).read_text().splitlines() if line.strip()]
    if not values:
        raise ParseError("stream contains no symbols", line=1)
    return LabelSequence.from_values(values, tuple(labels) if labels is not None else None)


def probtable_from_json(data: dict, exact: bool = False) -> ProbTable:
    support = tuple(data["support"])
    alphabets = tuple(
        tuple(a) for a in data.get("alphabets", [list(DICHOTOMIC)] * len(support))
    )
    probs = {}
    # Fraction(str(p)) reads the decimal literal exactly (0.1 -> 1/10), which
    # is what exact mode needs from hand-written JSON
    number = (lambda p: Fraction(str(p))) if exact or data.get("exact") else float
    for key, p in data["probs"].items():
        cell = tuple(_parse_value(tok) for tok in str(key).split(","))
        probs[cell] = json_number(number, p, "constraint")
    return ProbTable(
        support=support,
        probs=probs,
        alphabets=alphabets,
        sample_size=data.get("sample_size"),
    )


def read_constraint_system(path: str | Path, exact: bool = False) -> MarginalConstraintSystem:
    """JSON schema: {"variables": [...], "constraints": [{support, probs}]}"""
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid constraint JSON: {exc}") from None
    try:
        variables = tuple(data["variables"])
        constraints = []
        for entry in data["constraints"]:
            table = probtable_from_json(entry, exact=exact)
            constraints.append((table.support, table))
    except (KeyError, TypeError) as exc:
        raise ParseError(f"constraint JSON missing field: {exc}") from None
    return MarginalConstraintSystem(variables=variables, constraints=tuple(constraints))


def dumps_json(obj: Any) -> str:
    """Canonical JSON used across the CLI: sorted keys, stable layout."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"
