"""Observables, compatibility structure, outcome datasets, and empirical tables.

The model is deliberately small: observables carry a finite outcome alphabet
(by default the dichotomic values +1/-1), a scenario declares which subsets
of observables are jointly measurable, and a dataset is an ordered list of
joint-outcome records, cell numbers that only :meth:`Dataset.from_cells` assigns.
Tables are counted once per dataset, then only marginalized and correlated.

All types are immutable after construction and all operations are pure
functions, so everything here is safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate, chain, product, repeat, starmap
from typing import Any, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import ContexcertError

DICHOTOMIC = (1, -1)

NORMALIZATION_TOL = 1e-12
COUNT_CELLS = 1 << 16  # cell numbers counted at a time


class UnknownObservable(ContexcertError):
    """An observable id does not appear in the scenario."""


class UnknownSetting(ContexcertError):
    """No records exist for the requested setting."""


class IncompatibleSetting(ContexcertError):
    """The requested setting is not declared jointly measurable."""


class NotSubset(ContexcertError):
    """Marginalization target is not a subset of the table support."""


class WrongArity(ContexcertError):
    """Operation requires a table over exactly two observables."""


class NonDichotomous(ContexcertError):
    """Operation requires +-1 outcome alphabets."""


@dataclass(frozen=True)
class Observable:
    """A labelled observable with a finite outcome alphabet.

    The alphabet order is part of the contract: it fixes the enumeration
    order of outcome tuples everywhere (tables, inverse-CDF sampling).
    """

    id: str
    alphabet: tuple = DICHOTOMIC

    def __post_init__(self) -> None:
        if not self.id or not isinstance(self.id, str):
            raise ContexcertError("observable id must be a nonempty string")
        object.__setattr__(self, "alphabet", tuple(self.alphabet))
        if len(self.alphabet) == 0:
            raise ContexcertError(f"observable {self.id}: empty alphabet")
        if len(set(self.alphabet)) != len(self.alphabet):
            raise ContexcertError(f"observable {self.id}: alphabet values must be distinct")


@dataclass(frozen=True)
class Scenario:
    """Observables plus the subsets declared jointly measurable.

    Singletons are implicitly compatible and compatibility is closed under
    taking subsets, so membership tests go through :meth:`is_compatible`
    rather than raw set lookup.
    """

    observables: tuple[Observable, ...]
    compatible_sets: tuple[frozenset[str], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "observables", tuple(self.observables))
        ids = [o.id for o in self.observables]
        if len(set(ids)) != len(ids):
            raise ContexcertError("duplicate observable ids in scenario")
        sets = tuple(frozenset(s) for s in self.compatible_sets)
        object.__setattr__(self, "compatible_sets", sets)
        known = set(ids)
        for s in sets:
            unknown = s - known
            if unknown:
                raise UnknownObservable(
                    f"compatible set {sorted(s)} refers to undeclared ids {sorted(unknown)}"
                )

    @cached_property
    def _index(self) -> dict[str, int]:
        return {o.id: i for i, o in enumerate(self.observables)}

    def observable(self, obs_id: str) -> Observable:
        try:
            return self.observables[self._index[obs_id]]
        except KeyError:
            raise UnknownObservable(f"unknown observable {obs_id!r}") from None

    def is_compatible(self, ids: Iterable[str]) -> bool:
        s = frozenset(ids)
        if not s <= set(self._index):
            return False
        if len(s) <= 1:
            return True
        return any(s <= declared for declared in self.compatible_sets)

    def canonical_setting(self, ids: Iterable[str]) -> tuple[str, ...]:
        """Order ids by declaration order; unknown ids raise."""
        ids = tuple(ids)
        for i in ids:
            self.observable(i)
        if len(set(ids)) != len(ids):
            raise ContexcertError(f"setting {ids} repeats an observable")
        return tuple(sorted(ids, key=self._index.__getitem__))

    def alphabets(self, ids: Sequence[str]) -> tuple[tuple, ...]:
        return tuple(self.observable(i).alphabet for i in ids)


@dataclass(frozen=True)
class OutcomeRecord:
    """One joint measurement: an ordered setting and its outcome values."""

    setting: tuple[str, ...]
    outcomes: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "setting", tuple(self.setting))
        object.__setattr__(self, "outcomes", tuple(self.outcomes))
        if len(self.setting) != len(self.outcomes):
            raise ContexcertError("setting and outcomes lengths differ")


class Dataset:
    """Ordered joint-outcome records over one scenario.

    ``recorded`` lists the settings in first-appearance order; ``cells`` holds each
    record's cell number in acquisition order, in the narrowest unsigned dtype: its
    setting's first cell (:meth:`offsets`) plus the :func:`cell_index` of its codes.
    Both are set once, by :meth:`from_cells`, and never changed.
    """

    def __init__(
        self,
        scenario: Scenario,
        records: Iterable[OutcomeRecord] = (),
        meta: Mapping[str, Any] | None = None,
    ) -> None:
        rows = ((rec.setting, rec.outcomes) for rec in records)
        vars(self).update(vars(self.from_rows(scenario, rows, meta)))  # the fields from_cells set

    @classmethod
    def from_rows(cls, scenario: Scenario, rows: Iterable, meta: Mapping | None = None, gather=None) -> "Dataset":
        """The records of (setting, outcomes) ``rows`` in acquisition order or, with
        ``gather``, the rows at those positions.  Each setting's rows are encoded in
        one call; the error of the first faulty row carries its position as ``row``."""
        groups: dict[tuple[str, ...], tuple[list, list]] = {}  # setting -> its rows' positions and outcomes
        for position, (setting, outcomes) in enumerate(rows):
            positions, values = groups.setdefault(setting, ([], []))
            positions.append(position)
            values.append(outcomes)
        blocks, faults = [], []
        for setting, (positions, values) in groups.items():
            try:
                codes = encode_rows(scenario, setting, values)
                blocks.append((setting, setting_cells(scenario, setting, codes)))
            except ContexcertError as exc:  # a setting fault lies in the setting's first row
                exc.row = positions[getattr(exc, "row", 0)]
                faults.append(exc)
        if faults:
            raise min(faults, key=lambda exc: exc.row)
        order = [position for positions, _ in groups.values() for position in positions]
        place = np.empty(len(order), code_dtype([len(order)]))  # each row's place among the blocks' rows
        place[order] = np.arange(len(order))
        return cls.from_cells(scenario, blocks, meta, place if gather is None else place[gather])

    @classmethod
    def from_cells(cls, scenario: Scenario, blocks: Iterable, meta: Mapping | None = None, gather=None) -> "Dataset":
        """The one constructor: the records are the cells of (setting, cell numbers within the
        setting) blocks in acquisition order or, with ``gather``, those positions of them."""
        def narrowed(s: tuple, cells: np.ndarray) -> tuple:  # starmap keeps no wide block past this call
            return s, cells.astype(code_dtype([math.prod(map(len, scenario.alphabets(s)))]))
        ds, blocks = cls.__new__(cls), list(starmap(narrowed, blocks))
        ds.scenario, ds.meta = scenario, dict(meta or {})
        ds.recorded = tuple(dict.fromkeys(s for s, cells in blocks if len(cells)))
        offsets = ds.offsets()
        first, dtype = dict(zip(ds.recorded, offsets)), code_dtype([offsets[-1]])
        # an empty block's setting may not be recorded
        cells = np.concatenate([np.empty(0, dtype), *(c.astype(dtype) + first.get(s, 0) for s, c in blocks)])
        ds.cells = cells if gather is None else cells[gather]
        return ds

    def offsets(self) -> list[int]:
        """Each recorded setting's first cell number, then the total cell count."""
        return [0, *accumulate(math.prod(map(len, self.scenario.alphabets(s))) for s in self.recorded)]

    @cached_property
    def counts(self) -> np.ndarray:
        """The number of records in each cell, as int64, counted once per dataset."""
        counts = np.zeros(self.offsets()[-1], dtype=np.int64)
        for start in range(0, len(self), COUNT_CELLS):  # bincount copies its piece as intp
            counts += np.bincount(self.cells[start : start + COUNT_CELLS], minlength=len(counts))
        return counts

    def __len__(self) -> int:
        return len(self.cells)

    def __iter__(self) -> Iterator[OutcomeRecord]:
        decoded = [OutcomeRecord(s, v) for s in self.recorded for v in product(*self.scenario.alphabets(s))]
        return map(decoded.__getitem__, self.cells.tolist())

    def settings(self) -> tuple[tuple[str, ...], ...]:
        """Distinct canonical settings in first-appearance order."""
        return tuple(dict.fromkeys(map(self.scenario.canonical_setting, self.recorded)))


def encode_rows(scenario: Scenario, setting: tuple[str, ...], rows: Any) -> np.ndarray:
    """Check one block of outcome rows against ``scenario`` and return it as codes:
    the ids known and distinct, the setting jointly measurable, each row one value
    per id in that id's alphabet (the error for a value outside names its ``row``)."""
    scenario.canonical_setting(setting)  # an unknown or repeated id raises
    if not scenario.is_compatible(setting):
        raise IncompatibleSetting(f"setting {setting} is not jointly measurable")
    alphabets = scenario.alphabets(setting)
    width = code_dtype(map(len, alphabets))
    # an object matrix keeps mixed rows' types; other ndarrays give Python
    # values through ``tolist``, a column at a time
    values = rows if isinstance(rows, np.ndarray) else _object_matrix(rows, len(setting))
    if len(values) == 0:
        return np.empty((0, len(setting)), dtype=width)
    if values.ndim != 2 or values.shape[1] != len(setting):
        raise ContexcertError("outcome matrix shape does not match setting")
    codes = np.empty(values.shape, dtype=width)
    unknown = []  # (row, col, value) of each column's first unknown value
    for col, alphabet in enumerate(alphabets):
        column = values[:, col] if values.dtype == object else values[:, col].tolist()
        encoded = alphabet_codes(column, alphabet)
        codes[:, col] = encoded  # a -1 wraps here but raises below
        unknown += [(row, col, column[row]) for row in np.flatnonzero(encoded < 0)[:1]]
    if unknown:
        row, col, value = min(unknown)  # the first in row-major order
        error = ContexcertError(f"outcome {value!r} not in alphabet of {setting[col]}")
        error.row = row
        raise error
    return codes


def code_dtype(radices: Iterable[int]) -> np.dtype:
    """The narrowest unsigned dtype for the codes of alphabets of these sizes, or
    for the cell numbers of a dataset with this many cells."""
    return np.min_scalar_type(max(*radices, 1) - 1)


def _object_matrix(rows: Iterable, width: int) -> np.ndarray:
    """Rows of ``width`` values as an object matrix, each value one cell:
    ``np.asarray`` would give a column of equal-length tuples a third axis."""
    rows = list(rows)
    try:
        fits = all(len(row) == width and not isinstance(row, str) for row in rows)
    except TypeError:  # a row that is a single value
        fits = False
    if not fits:
        raise ContexcertError("outcome matrix shape does not match setting")
    cells = np.fromiter(chain.from_iterable(rows), dtype=object, count=len(rows) * width)
    return cells.reshape(len(rows), width)


def alphabet_codes(values: Sequence, alphabet: Sequence) -> np.ndarray:
    """Each value's position in ``alphabet``, or -1 outside it, in one dict
    pass, as the narrowest signed integers that hold them.  Values match as
    ``value in alphabet`` does: ``True`` codes as 1."""
    index = {value: code for code, value in enumerate(alphabet)}
    dtype = np.min_scalar_type(-len(alphabet))
    try:
        if dtype == np.int8:  # codes 0..127 are bytes, and the byte 255 reads as -1
            return np.frombuffer(bytearray(map(index.get, values, repeat(255))), dtype)
        return np.fromiter(map(index.get, values, repeat(-1)), dtype=dtype, count=len(values))
    except TypeError:  # an unhashable value lies outside every alphabet
        codes = (index.get(v, -1) if getattr(v, "__hash__", None) else -1 for v in values)
        return np.fromiter(codes, dtype=dtype, count=len(values))


def cell_index(codes: np.ndarray, radices: Sequence[int], columns: Iterable[int]) -> np.ndarray:
    """Mixed-radix number of each code row over ``columns``, first most
    significant: the row's position in ``product`` of their alphabets."""
    cell = np.zeros(len(codes), dtype=np.intp)
    for col, radix in zip(columns, radices):
        cell = cell * radix + codes[:, col]
    return cell


def setting_cells(scenario: Scenario, setting: tuple[str, ...], codes: np.ndarray) -> np.ndarray:
    """Each code row's cell number within ``setting``, over the setting's alphabets."""
    return cell_index(codes, [len(a) for a in scenario.alphabets(setting)], range(len(setting)))


@dataclass(frozen=True)
class ProbTable:
    """Normalized probability table over an ordered observable subset.

    Keys of ``probs`` are outcome tuples positionally matching ``support``;
    cells missing from the mapping are implied zeros.  Values may be floats
    or exact :class:`fractions.Fraction` entries; exact tables stay exact
    under marginalization and correlation.
    """

    support: tuple[str, ...]
    probs: Mapping[tuple, Any]
    alphabets: tuple[tuple, ...]
    sample_size: int | None = None

    def __post_init__(self) -> None:
        support = tuple(self.support)
        object.__setattr__(self, "support", support)
        alphabets = tuple(tuple(a) for a in self.alphabets)
        object.__setattr__(self, "alphabets", alphabets)
        if not support:
            raise ContexcertError("table support must be nonempty")
        if len(set(support)) != len(support):
            raise ContexcertError("table support repeats an observable")
        if len(alphabets) != len(support):
            raise ContexcertError("alphabets must match support positionally")
        cells = _alphabet_product(alphabets)
        probs = {tuple(k): v for k, v in dict(self.probs).items()}
        object.__setattr__(self, "probs", probs)
        for key, value in probs.items():
            if key not in cells:
                raise ContexcertError(f"outcome tuple {key} outside alphabet product")
            # NaN fails both comparisons; a Fraction is never infinite, and
            # comparing one with an int or a float is slow
            if not (value.numerator >= 0 if type(value) is Fraction else 0 <= value < math.inf):
                kind = "negative" if value < 0 else "non-finite"
                raise ContexcertError(f"{kind} probability {value!r} at {key}")
        total = _accurate_sum(probs.values())
        if total != 1 and abs(total - 1) > NORMALIZATION_TOL:
            raise ContexcertError(f"table not normalized: sum = {total!r}")

    @property
    def is_exact(self) -> bool:
        return all(isinstance(v, (Fraction, int)) for v in self.probs.values())

    def prob(self, outcome: tuple) -> Any:
        return self.probs.get(tuple(outcome), 0)

    def cells(self) -> Iterator[tuple]:
        """All outcome tuples in lexicographic (alphabet-declared) order."""
        return product(*self.alphabets)

    def mean(self, obs_id: str) -> float:
        """Expectation of a numeric observable under this table's marginal."""
        marg = marginalize(self, (obs_id,))
        return _maybe_float(sum(v * p for (v,), p in marg.probs.items()))


@lru_cache(maxsize=128)
def _alphabet_product(alphabets: tuple[tuple, ...]) -> frozenset:
    """Every outcome tuple over ``alphabets``; shared by all tables on them."""
    return frozenset(product(*alphabets))


def _accurate_sum(values: Iterable) -> Any:
    """A Fraction for exact values, summed as integer numerators over their
    lcm (no gcd per addition); otherwise ``math.fsum``."""
    values = list(values)
    if all(isinstance(v, (Fraction, int)) for v in values):
        denominator = math.lcm(*(v.denominator for v in values))
        return Fraction(sum(v.numerator * (denominator // v.denominator) for v in values), denominator)
    return math.fsum(values)


def _maybe_float(value: Any) -> Any:
    return value if isinstance(value, Fraction) else float(value)


def estimate_table(dataset: Dataset, setting: Sequence[str]) -> ProbTable:
    """Empirical joint table for one setting: cell counts over matching records.

    Matching is order-insensitive; outcome tuples are canonicalized to the
    scenario's declared observable order, so differently-ordered records
    produce identical tables.  Settings with zero matching records raise
    :class:`UnknownSetting` rather than returning a degenerate table.
    """
    scenario = dataset.scenario
    canonical = scenario.canonical_setting(setting)
    if not scenario.is_compatible(canonical):
        raise IncompatibleSetting(f"setting {tuple(setting)} is not jointly measurable")
    alphabets = scenario.alphabets(canonical)

    offsets = dataset.offsets()
    counts = np.zeros(math.prod(map(len, alphabets)), dtype=np.int64)
    for recorded, start, stop in zip(dataset.recorded, offsets, offsets[1:]):
        if frozenset(recorded) == frozenset(canonical):  # its counts, axes in canonical order
            block = dataset.counts[start:stop].reshape([len(a) for a in scenario.alphabets(recorded)])
            counts += block.transpose(list(map(recorded.index, canonical))).ravel()
    total = int(counts.sum())
    if total == 0:
        raise UnknownSetting(f"no records for setting {tuple(setting)}")

    # nonzero cells enter the table in ascending outcome-value order,
    # numbers before strings
    counted = sorted(
        ((cell, count) for cell, count in zip(product(*alphabets), counts.tolist()) if count),
        key=lambda item: tuple((isinstance(v, str), v) for v in item[0]),
    )
    probs = {cell: count / total for cell, count in counted}
    return ProbTable(
        support=canonical,
        probs=probs,
        alphabets=alphabets,
        sample_size=total,
    )


def marginalize(table: ProbTable, keep: Sequence[str]) -> ProbTable:
    """Sum out every observable not in ``keep``; support order follows ``keep``."""
    keep = tuple(keep)
    if not keep:
        raise NotSubset("keep list must be nonempty")
    if len(set(keep)) != len(keep):
        raise NotSubset("keep list repeats an observable")
    missing = set(keep) - set(table.support)
    if missing:
        raise NotSubset(f"{sorted(missing)} not in table support {table.support}")
    if keep == table.support:
        return table

    positions = [table.support.index(obs) for obs in keep]
    zero = Fraction(0) if table.is_exact else 0.0
    acc: dict[tuple, Any] = {}
    for cell, p in table.probs.items():
        key = tuple(cell[i] for i in positions)
        acc[key] = acc.get(key, zero) + p
    return ProbTable(
        support=keep,
        probs=acc,
        alphabets=tuple(table.alphabets[i] for i in positions),
        sample_size=table.sample_size,
    )


def correlation(table: ProbTable) -> float:
    """Product expectation sum_{a,b} a*b*p(a,b) for a two-observable +-1 table."""
    if len(table.support) != 2:
        raise WrongArity(f"correlation needs a pair table, got support {table.support}")
    for obs, alphabet in zip(table.support, table.alphabets):
        if set(alphabet) != {1, -1}:
            raise NonDichotomous(f"{obs} has alphabet {alphabet}, need (+1, -1)")
    value = sum(a * b * p for (a, b), p in table.probs.items())
    if isinstance(value, Fraction):
        return value
    return float(min(max(value, -1.0), 1.0))


def pair_key(a: str, b: str) -> frozenset:
    if a == b:
        raise ContexcertError(f"correlation pair must join two distinct observables, got {a!r} twice")
    return frozenset((a, b))


@dataclass(frozen=True)
class CorrelationSet:
    """Pairwise +-1 correlations plus per-observable means.

    ``means`` keeps the first marginal encountered per observable;
    ``mean_candidates`` keeps every (pair table, mean) candidate, so that
    :meth:`max_abs_mean` checks the zero-mean precondition in every context
    an observable was measured in, not only the first.  The signaling test
    does not read them; it estimates its own marginals from the dataset.
    """

    entries: Mapping[frozenset, float]
    means: Mapping[str, float] = field(default_factory=dict)
    sample_sizes: Mapping[frozenset, int] = field(default_factory=dict)
    mean_candidates: Mapping[str, tuple] = field(default_factory=dict)

    def __post_init__(self) -> None:
        entries = {frozenset(k): v for k, v in dict(self.entries).items()}
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "means", dict(self.means))
        object.__setattr__(self, "sample_sizes", {frozenset(k): int(v) for k, v in dict(self.sample_sizes).items()})
        object.__setattr__(self, "mean_candidates", {k: tuple(v) for k, v in dict(self.mean_candidates).items()})
        # written as "not <=" so that NaN, which compares false, is refused too
        for key, value in entries.items():
            if len(key) != 2:
                raise ContexcertError(f"correlation key {set(key)} must contain two observables")
            if not abs(value) <= 1 + 1e-12:
                raise ContexcertError(f"correlation {value!r} outside [-1, 1]")
        candidates = [(obs, m) for obs, found in self.mean_candidates.items() for _, m in found]
        for obs, m in [*self.means.items(), *candidates]:
            if not abs(m) <= 1 + 1e-12:
                raise ContexcertError(f"mean {m!r} of {obs} outside [-1, 1]")

    def value(self, a: str, b: str) -> float:
        try:
            return self.entries[pair_key(a, b)]
        except KeyError:
            raise ContexcertError(f"no correlation recorded for pair ({a}, {b})") from None

    def has_pair(self, a: str, b: str) -> bool:
        return pair_key(a, b) in self.entries

    def sample_size(self, a: str, b: str) -> int | None:
        return self.sample_sizes.get(pair_key(a, b))

    def max_abs_mean(self, ids: Iterable[str]) -> float:
        """Largest |mean| of ``ids`` over every context each was measured in.

        Observables without recorded candidates fall back to ``means``.
        """
        worst = 0.0
        for obs in ids:
            candidates = [m for _, m in self.mean_candidates.get(obs, ())]
            for m in candidates or [self.means.get(obs, 0.0)]:
                worst = max(worst, abs(m))
        return worst


def correlation_set(dataset: Dataset, pairs: Sequence[tuple[str, str]]) -> CorrelationSet:
    """Estimate every requested pair correlation from the dataset.

    Means come from single-observable marginals of the pair tables; the first
    table encountered per observable wins, and all candidates are retained for
    the signaling check.
    """
    entries: dict[frozenset, float] = {}
    means: dict[str, float] = {}
    sample_sizes: dict[frozenset, int] = {}
    candidates: dict[str, list] = {}
    for a, b in pairs:
        key = pair_key(a, b)
        table = estimate_table(dataset, (a, b))
        entries[key] = correlation(table)
        sample_sizes[key] = table.sample_size or 0
        for obs in table.support:
            m = table.mean(obs)
            candidates.setdefault(obs, []).append((key, m))
            means.setdefault(obs, m)
    return CorrelationSet(
        entries=entries,
        means=means,
        sample_sizes=sample_sizes,
        mean_candidates={k: tuple(v) for k, v in candidates.items()},
    )
