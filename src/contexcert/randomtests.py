"""Frequency-stability certification of outcome sequences.

A sequence is checked against a battery of place selections: rules that
retain or reject position n using only n and the preceding values.  Each
selection is one randomness test; a sequence fails the battery when some
selection's retained subsequence has label frequencies that deviate from the
whole-sequence frequencies beyond tolerance.  Passing a battery certifies
exactly that - "passes this battery" - never randomness as such: no finite
battery defines randomness.

Built-in selections: prime positions, positions following a fixed pattern,
arithmetic position filters (n mod m == r), and an independent seeded coin
that never reads the data.

Counting never copies the codes.  Up to 8 selections share one ``bincount``:
each mask becomes one bit of a uint8 ``bits`` array as soon as it is built,
and ``(codes << g) | bits`` (g selections), counted in pieces of ``PIECE``
symbols, fills a grid of labels by bit patterns.  A label's row sums to its
overall count, and the columns with bit j set to its count in selection j.
Past 512 labels fewer selections share a count, so that the grid stays
within ``GRID_BINS``.  A stabilization profile counts the label between
consecutive checkpoints.  So the battery costs one pass over the sequence per
group of selections, plus the pass that builds each mask, and a profile one
pass per label, whatever the masks' density or the number of labels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from typing import Any, Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import ContexcertError
from .scenario import alphabet_codes
from .tolerances import (
    StatisticalTolerance,
    TolerancePolicy,
    is_integer,
    require_min_retained,
    require_seed,
    resolve_tolerance,
)


GRID_BINS = 1 << 17  # a shared count's grid of labels by bit patterns stays at 1 MB
# Symbols per piece of a count or coin, so that its buffers stay at 64 KB:
# larger ones grew the heap, and full-suite's peak RSS with it.
PIECE = 1 << 13


class UnknownLabel(ContexcertError):
    """Label not in the sequence alphabet."""


class BadCheckpoints(ContexcertError):
    """Checkpoints must be increasing integers within the sequence length."""


class EmptySelection(ContexcertError):
    """The selection retained no elements."""


class AllSelectionsInconclusive(ContexcertError):
    """Every selection retained fewer than the admissibility minimum."""


class LabelSequence:
    """Finite sequence over a declared label alphabet, held as ``codes``, each
    value's position in ``labels``; a sequence built from codes decodes its
    ``values`` only when they are read."""

    def __init__(self, labels: Sequence, values: Iterable) -> None:
        self.values = tuple(values)
        self._check(labels, self.values)
        unknown = np.flatnonzero(self.codes < 0)
        if len(unknown):
            raise UnknownLabel(f"value {self.values[unknown[0]]!r} not among labels {self.labels}")

    @classmethod
    def from_codes(cls, labels: Sequence, codes: np.ndarray) -> "LabelSequence":
        """The sequence over ``labels`` whose codes are ``codes``, kept as given."""
        seq = cls.__new__(cls)
        seq.codes = codes
        seq._check(labels, codes)
        if codes.min() < 0 or codes.max() >= len(seq.labels):
            raise ContexcertError(f"codes must lie in 0..{len(seq.labels) - 1}")
        return seq

    def _check(self, labels: Sequence, items: Sequence) -> None:
        self.labels = tuple(labels)
        if not self.labels or len(set(self.labels)) != len(self.labels):
            raise ContexcertError("labels must be nonempty and distinct")
        if not len(items):
            raise ContexcertError("sequence must contain at least one value")

    def __len__(self) -> int:
        return len(self.codes)

    @cached_property
    def codes(self) -> np.ndarray:
        return alphabet_codes(self.values, self.labels)

    @cached_property
    def values(self) -> tuple:
        return tuple(map(self.labels.__getitem__, self.codes.tolist()))

    @classmethod
    def from_values(cls, values: Iterable, labels: Sequence | None = None) -> "LabelSequence":
        values = tuple(values)
        if labels is None:
            labels = tuple(dict.fromkeys(values))
        return cls(tuple(labels), values)


@dataclass(frozen=True)
class PlaceSelection:
    """A retain/reject rule for position n using only n and the prefix.

    Decisions never read the value at n or beyond; the built-ins satisfy
    this structurally, custom predicates receive only the prefix, as a
    read-only :class:`Prefix` view.
    """

    kind: str
    pattern: tuple = ()
    modulus: int = 0
    residue: int = 0
    seed: int = 0
    bias: float = 0.5
    predicate: Callable | None = None
    description: str = ""

    @classmethod
    def prime_index(cls) -> "PlaceSelection":
        return cls(kind="prime_index", description="prime positions")

    @classmethod
    def after_pattern(cls, pattern: Sequence) -> "PlaceSelection":
        pattern = tuple(pattern)
        if not pattern:
            raise ContexcertError("pattern must be nonempty")
        text = "".join(str(v) for v in pattern)
        return cls(kind="after_pattern", pattern=pattern, description=f"after pattern {text}")

    @classmethod
    def index_arithmetic(cls, modulus: int, residue: int) -> "PlaceSelection":
        if not is_integer(modulus) or not is_integer(residue):
            raise ContexcertError(
                f"modulus and residue must be integers, got {modulus!r} and {residue!r}"
            )
        modulus, residue = int(modulus), int(residue)  # numpy unsigned residue - 1 would wrap
        if modulus < 1 or not 0 <= residue < modulus:
            raise ContexcertError("need modulus >= 1 and 0 <= residue < modulus")
        return cls(
            kind="index_arithmetic",
            modulus=modulus,
            residue=residue,
            description=f"positions n = {residue} (mod {modulus})",
        )

    @classmethod
    def external_coin(cls, seed: int, bias: float = 0.5) -> "PlaceSelection":
        require_seed(seed)
        if not 0.0 < bias <= 1.0:
            raise ContexcertError("coin bias must be in (0, 1]")
        return cls(
            kind="external_coin",
            seed=int(seed),
            bias=bias,
            description=f"independent coin (seed {seed}, bias {bias:g})",
        )

    @classmethod
    def custom(cls, predicate: Callable, description: str) -> "PlaceSelection":
        return cls(kind="custom", predicate=predicate, description=description)


class Prefix(Sequence):
    """``values[:length]`` as a read-only view, so that a custom selection's
    predicate copies no prefix.  ``len``, indexing, slicing (to a tuple),
    iteration, ``in``, ``count``, ``index``, ``==`` and ``hash`` answer as
    that tuple would; ``tuple(prefix)`` makes the tuple."""

    __slots__ = ("_values", "_length")

    def __init__(self, values: tuple, length: int) -> None:
        self._values, self._length = values, length

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, index):
        positions = range(self._length)[index]  # a negative index counts from the prefix's end
        if isinstance(index, slice):
            return tuple(map(self._values.__getitem__, positions))
        return self._values[positions]

    def __iter__(self):
        return islice(self._values, self._length)

    def __eq__(self, other) -> bool:
        return tuple(self) == tuple(other) if isinstance(other, (tuple, Prefix)) else NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))


def _prime_mask(n: int) -> np.ndarray:
    """Boolean mask over 1-based positions 1..n, True at primes."""
    mask = np.zeros(n + 1, dtype=bool)
    if n >= 2:
        mask[2:] = True
        for p in range(2, int(math.isqrt(n)) + 1):
            if mask[p]:
                mask[p * p :: p] = False
    return mask[1:]


def selection_mask(seq: LabelSequence, sel: PlaceSelection) -> np.ndarray:
    """Retention mask over the sequence; position n's fate never reads x_n."""
    n = len(seq)
    if sel.kind == "prime_index":
        return _prime_mask(n)
    if sel.kind == "index_arithmetic":
        # 1-based position i + 1 = r (mod m) exactly when i = r - 1 (mod m)
        mask = np.zeros(n, dtype=bool)
        mask[(sel.residue - 1) % sel.modulus :: sel.modulus] = True
        return mask
    if sel.kind == "external_coin":
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(sel.seed)))
        # drawn in pieces, the same doubles as rng.random(n) without its n floats
        mask = np.empty(n, dtype=bool)
        for start in range(0, n, PIECE):
            np.less(rng.random(min(PIECE, n - start)), sel.bias, out=mask[start : start + PIECE])
        return mask
    if sel.kind == "after_pattern":
        pattern = alphabet_codes(sel.pattern, seq.labels)
        unknown = np.flatnonzero(pattern < 0)
        if len(unknown):
            raise UnknownLabel(f"pattern value {sel.pattern[unknown[0]]!r} not in alphabet")
        length = len(pattern)
        mask = np.zeros(n, dtype=bool)
        if n > length:
            codes = seq.codes
            window_match = np.ones(n - length, dtype=bool)
            for offset in range(length):
                window_match &= codes[offset : offset + n - length] == pattern[offset]
            # a window ending at position j (0-based j+length-1) retains the next element
            mask[length:] = window_match
        return mask
    if sel.kind == "custom":
        if sel.predicate is None:
            raise ContexcertError("custom selection needs a predicate")
        keep, values = sel.predicate, seq.values
        return np.fromiter((bool(keep(i + 1, Prefix(values, i))) for i in range(n)), bool, n)
    raise ContexcertError(f"unknown selection kind {sel.kind!r}")


def apply_selection(seq: LabelSequence, sel: PlaceSelection) -> LabelSequence:
    """Subsequence of retained elements, original order preserved."""
    mask = selection_mask(seq, sel)
    if not mask.any():
        raise EmptySelection(f"selection '{sel.description}' retained nothing")
    return LabelSequence.from_codes(seq.labels, seq.codes[mask])


def frequency(seq: LabelSequence, label) -> float:
    """Relative frequency of the label over the full sequence."""
    if label not in seq.labels:
        raise UnknownLabel(f"label {label!r} not in alphabet {seq.labels}")
    idx = seq.labels.index(label)
    return float(np.count_nonzero(seq.codes == idx)) / len(seq)


def _selection_counts(
    seq: LabelSequence, selections: Sequence[PlaceSelection]
) -> tuple[np.ndarray, list[np.ndarray]]:
    """The label counts over the whole sequence, and over each selection's
    retained positions, as int64 arrays in label order.

    A group of g selections is counted in one pass: selection j's mask is bit j
    of ``bits``, so ``(codes << g) | bits`` numbers a (label, bit pattern) cell.
    """
    k, n, codes = len(seq.labels), len(seq), seq.codes
    size = max(1, min(8, (GRID_BINS // k).bit_length() - 1))
    counts = []
    for first in range(0, len(selections), size):
        group = selections[first : first + size]
        g = len(group)
        # each mask is a fresh array: it is shifted and merged in place, then dropped
        bits = selection_mask(seq, group[0]).view(np.uint8)
        for j, sel in enumerate(group[1:], 1):
            mask = selection_mask(seq, sel).view(np.uint8)
            mask <<= j
            bits |= mask
        bins = k << g
        piece = max(PIECE, bins)  # a piece's count never costs more than its keys
        grid = np.zeros(bins, dtype=np.int64)
        for start in range(0, n, piece):
            keys = codes[start : start + piece].astype(np.intp)
            keys <<= g
            keys |= bits[start : start + piece]
            grid += np.bincount(keys, minlength=bins)
        grid = grid.reshape(k, 1 << g)
        total = grid.sum(axis=1)  # the same for every group
        # selection j's columns are the patterns with bit j set
        counts += [grid.reshape(k, -1, 2, 1 << j)[:, :, 1].sum(axis=(1, 2)) for j in range(g)]
    return total, counts


def stabilization_profile(
    seq: LabelSequence, label, checkpoints: Sequence[int]
) -> list[tuple[int, float]]:
    """Running frequencies n_N(label)/N at each checkpoint."""
    if label not in seq.labels:
        raise UnknownLabel(f"label {label!r} not in alphabet {seq.labels}")
    checkpoints = list(checkpoints)
    bad = [c for c in checkpoints if not is_integer(c)]
    if bad:
        raise BadCheckpoints(f"checkpoints must be integers, got {bad[0]!r}")
    if not checkpoints or any(c < 1 or c > len(seq) for c in checkpoints):
        raise BadCheckpoints(f"checkpoints must lie in 1..{len(seq)}")
    if any(b <= a for a, b in zip(checkpoints, checkpoints[1:])):
        raise BadCheckpoints("checkpoints must be strictly increasing")
    code = seq.labels.index(label)
    profile, hits, start = [], 0, 0
    for c in checkpoints:
        hits += int(np.count_nonzero(seq.codes[start:c] == code))
        profile.append((c, float(hits) / c))
        start = c
    return profile


@dataclass(frozen=True)
class SelectionResult:
    description: str
    retained: int
    freqs: Mapping[Any, float]
    max_deviation: float
    tolerance: float
    status: str  # "ok" | "deviant" | "inconclusive"


@dataclass(frozen=True)
class RandomnessReport:
    overall_freq: Mapping[Any, float]
    per_selection: tuple[SelectionResult, ...]
    tolerance_policy: str
    min_retained: int
    notes: tuple[str, ...] = ()

    @property
    def verdict(self) -> str:  # "passed" | "failed"
        return "failed" if any(r.status == "deviant" for r in self.per_selection) else "passed"

    def to_json(self) -> dict:
        return {
            "overall_freq": {str(k): v for k, v in self.overall_freq.items()},
            "selections": [
                {
                    "selection": r.description,
                    "retained": r.retained,
                    "freqs": {str(k): v for k, v in r.freqs.items()},
                    "max_deviation": r.max_deviation,
                    "tolerance": r.tolerance,
                    "status": r.status,
                }
                for r in self.per_selection
            ],
            "verdict": self.verdict,
            "tolerance_policy": self.tolerance_policy,
            "min_retained": self.min_retained,
            "notes": list(self.notes),
        }


def randomness_test(
    seq: LabelSequence,
    selections: Sequence[PlaceSelection],
    policy: TolerancePolicy = StatisticalTolerance(4.0),
    min_retained: int = 30,
) -> RandomnessReport:
    """Run the battery; fail when an admissible selection shifts frequencies.

    Selections retaining fewer than ``min_retained`` elements are reported
    inconclusive (the asymptotic infinite-retention requirement has no finite
    counterpart); if every selection is inconclusive the test refuses to
    return a verdict.
    """
    if not selections:
        raise ContexcertError("need at least one selection")
    require_min_retained(min_retained)
    total, per_selection = _selection_counts(seq, selections)
    overall = total / len(seq)
    variance = overall * (1.0 - overall)  # of one symbol's indicator, per label

    results = []
    for sel, counts in zip(selections, per_selection):
        retained = int(counts.sum())
        if retained < min_retained:
            results.append(SelectionResult(sel.description, retained, {}, 0.0, 0.0, "inconclusive"))
            continue
        freqs = counts / retained
        deviations = np.abs(freqs - overall)
        # k times each label's binomial_sigma(overall, retained), or the fixed epsilon as a 0-d
        # array: reduced with the methods, as np.any and np.min raised full-suite's peak RSS by 0.8 MB
        tols = np.asarray(resolve_tolerance(policy, lambda k: k * np.sqrt(variance / retained)))
        status = "deviant" if (deviations > tols).any() else "ok"
        sel_freqs = dict(zip(seq.labels, freqs))
        results.append(
            SelectionResult(sel.description, retained, sel_freqs, deviations.max(), float(tols.min()), status)
        )
    if all(r.status == "inconclusive" for r in results):
        raise AllSelectionsInconclusive(
            f"every selection retained fewer than {min_retained} elements"
        )

    notes = []
    if np.isin(overall, (0.0, 1.0)).any():
        notes.append(
            "degenerate frequencies: some label has frequency 0 or 1; "
            "stabilization holds but the battery cannot discriminate further"
        )
    notes.append("verdict certifies only that this battery was passed, not randomness as such")
    return RandomnessReport(
        overall_freq=dict(zip(seq.labels, overall)),
        per_selection=tuple(results),
        tolerance_policy=policy.describe(),
        min_retained=int(min_retained),  # a numpy integer would not reach JSON
        notes=tuple(notes),
    )
