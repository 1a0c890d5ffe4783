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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import ContexcertError
from .scenario import alphabet_codes
from .tolerances import StatisticalTolerance, TolerancePolicy, binomial_sigma, resolve_tolerance


class UnknownLabel(ContexcertError):
    """Label not in the sequence alphabet."""


class BadCheckpoints(ContexcertError):
    """Checkpoints must be increasing and within the sequence length."""


class EmptySelection(ContexcertError):
    """The selection retained no elements."""


class AllSelectionsInconclusive(ContexcertError):
    """Every selection retained fewer than the admissibility minimum."""


@dataclass(frozen=True)
class LabelSequence:
    """Finite sequence over a declared label alphabet."""

    labels: tuple
    values: tuple

    def __post_init__(self) -> None:
        labels = tuple(self.labels)
        values = tuple(self.values)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "values", values)
        if not labels or len(set(labels)) != len(labels):
            raise ContexcertError("labels must be nonempty and distinct")
        if not values:
            raise ContexcertError("sequence must contain at least one value")
        unknown = np.flatnonzero(self.codes < 0)
        if len(unknown):
            raise UnknownLabel(f"value {values[unknown[0]]!r} not among labels {labels}")

    def __len__(self) -> int:
        return len(self.values)

    @cached_property
    def codes(self) -> np.ndarray:
        return alphabet_codes(self.values, self.labels)

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
    this structurally, custom predicates receive only the prefix.
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
        positions = np.arange(1, n + 1)
        return positions % sel.modulus == sel.residue
    if sel.kind == "external_coin":
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(sel.seed)))
        return rng.random(n) < sel.bias
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
        values = seq.values
        out = np.zeros(n, dtype=bool)
        for i in range(n):
            out[i] = bool(sel.predicate(i + 1, values[:i]))
        return out
    raise ContexcertError(f"unknown selection kind {sel.kind!r}")


def apply_selection(seq: LabelSequence, sel: PlaceSelection) -> LabelSequence:
    """Subsequence of retained elements, original order preserved."""
    mask = selection_mask(seq, sel)
    if not mask.any():
        raise EmptySelection(f"selection '{sel.description}' retained nothing")
    retained = tuple(seq.values[i] for i in np.flatnonzero(mask))
    return LabelSequence(seq.labels, retained)


def frequency(seq: LabelSequence, label) -> float:
    """Relative frequency of the label over the full sequence."""
    if label not in seq.labels:
        raise UnknownLabel(f"label {label!r} not in alphabet {seq.labels}")
    idx = seq.labels.index(label)
    return float(np.count_nonzero(seq.codes == idx)) / len(seq)


def frequencies(seq: LabelSequence) -> dict:
    counts = np.bincount(seq.codes, minlength=len(seq.labels))
    return {label: counts[i] / len(seq) for i, label in enumerate(seq.labels)}


def stabilization_profile(
    seq: LabelSequence, label, checkpoints: Sequence[int]
) -> list[tuple[int, float]]:
    """Running frequencies n_N(label)/N at each checkpoint."""
    if label not in seq.labels:
        raise UnknownLabel(f"label {label!r} not in alphabet {seq.labels}")
    checkpoints = list(checkpoints)
    if not checkpoints or any(c < 1 or c > len(seq) for c in checkpoints):
        raise BadCheckpoints(f"checkpoints must lie in 1..{len(seq)}")
    if any(b <= a for a, b in zip(checkpoints, checkpoints[1:])):
        raise BadCheckpoints("checkpoints must be strictly increasing")
    hits = np.cumsum(seq.codes == seq.labels.index(label))
    return [(c, float(hits[c - 1]) / c) for c in checkpoints]


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
    if min_retained < 30:
        raise ContexcertError("min_retained must be at least 30")
    overall = frequencies(seq)

    results = []
    for sel in selections:
        mask = selection_mask(seq, sel)
        retained = int(mask.sum())
        if retained < min_retained:
            results.append(
                SelectionResult(sel.description, retained, {}, 0.0, 0.0, "inconclusive")
            )
            continue
        counts = np.bincount(seq.codes[mask], minlength=len(seq.labels))
        sel_freqs = {label: counts[i] / retained for i, label in enumerate(seq.labels)}
        deviations = {
            label: abs(sel_freqs[label] - overall[label]) for label in seq.labels
        }
        max_dev = max(deviations.values())
        tols = {
            label: resolve_tolerance(
                policy, lambda k: k * binomial_sigma(overall[label], retained)
            )
            for label in seq.labels
        }
        deviant = any(deviations[l] > tols[l] for l in seq.labels)
        results.append(
            SelectionResult(
                sel.description,
                retained,
                sel_freqs,
                max_dev,
                min(tols.values()),
                "deviant" if deviant else "ok",
            )
        )
    if all(r.status == "inconclusive" for r in results):
        raise AllSelectionsInconclusive(
            f"every selection retained fewer than {min_retained} elements"
        )

    notes = []
    if any(f in (0.0, 1.0) for f in overall.values()):
        notes.append(
            "degenerate frequencies: some label has frequency 0 or 1; "
            "stabilization holds but the battery cannot discriminate further"
        )
    notes.append("verdict certifies only that this battery was passed, not randomness as such")
    return RandomnessReport(
        overall_freq=overall,
        per_selection=tuple(results),
        tolerance_policy=policy.describe(),
        min_retained=min_retained,
        notes=tuple(notes),
    )
