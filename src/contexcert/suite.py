"""Batch execution of the full certification pipeline over one dataset.

Order of operations: marginal-consistency check, applicable inequality tests
(detected from the dataset's measured pairs), direct feasibility
cross-checks, then the per-stream frequency-stability battery.  Tests whose
settings are absent produce explicit skip entries instead of aborting.

Verdicts are data: the suite always completes with exit status success as
long as the inputs parse.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Any, Mapping

from . import __version__
from .belltests import (
    ChshInput,
    CorrelationConstraintUnmet,
    Outcome,
    TripleInput,
    ZeroMeanViolated,
    chsh_ksigma,
    chsh_test,
    jsonable,
    original_bell_ksigma,
    original_bell_test,
    sz_ksigma,
    sz_test,
)
from .errors import ContexcertError
from .jpdoracle import quadrupole_system_from_chsh, jpd_feasible, triple_jpd_feasible
from .quantumgen import PRNG_NAME
from .randomtests import (
    LabelSequence,
    PlaceSelection,
    randomness_test,
    stabilization_profile,
)
from .scenario import Dataset, correlation_set
from .signaling import NoSharedObservables, no_signaling_test
from .tolerances import StatisticalTolerance, TolerancePolicy, resolve_tolerance


class MissingSettings(ContexcertError):
    """A requested test needs pairs the dataset does not contain."""


@dataclass(frozen=True)
class RunConfig:
    """Everything needed to reproduce one suite run byte for byte."""

    tolerance_policy: TolerancePolicy = StatisticalTolerance(3.0)
    randomness_policy: TolerancePolicy = StatisticalTolerance(4.0)
    seed: int = 0
    delta: float = 0.01
    zero_mean_tolerance: float = 0.05
    min_retained: int = 30

    def to_json(self) -> dict:
        return {
            "tolerance_policy": self.tolerance_policy.describe(),
            "randomness_policy": self.randomness_policy.describe(),
            "seed": self.seed,
            "delta": self.delta,
            "zero_mean_tolerance": self.zero_mean_tolerance,
            "min_retained": self.min_retained,
        }


@dataclass(frozen=True)
class CertReport:
    provenance: Mapping[str, Any]
    signaling: Mapping[str, Any]
    verdicts: tuple
    oracle: tuple
    randomness: Mapping[str, Any]
    summary: Mapping[str, Any]

    def to_json(self) -> dict:
        return {
            "tool": {"name": "contexcert", "version": __version__, "prng": PRNG_NAME},
            "provenance": dict(self.provenance),
            "signaling": dict(self.signaling),
            "tests": [dict(v) for v in self.verdicts],
            "oracle": [dict(o) for o in self.oracle],
            "randomness": {k: dict(v) for k, v in sorted(self.randomness.items())},
            "summary": dict(self.summary),
        }


def measured_pairs(dataset: Dataset) -> set[frozenset]:
    return {frozenset(s) for s in dataset.settings() if len(s) == 2}


def find_quadrupole(dataset: Dataset) -> tuple[tuple[str, str], tuple[str, str]] | None:
    """First 2x2 block structure whose four cross pairs are all measured."""
    pairs = measured_pairs(dataset)
    observables = sorted({o for p in pairs for o in p})
    for four in combinations(observables, 4):
        a, b, c, d = four
        for a_block, b_block in (
            ((a, b), (c, d)),
            ((a, c), (b, d)),
            ((a, d), (b, c)),
        ):
            cross = [frozenset((x, y)) for x in a_block for y in b_block]
            if all(p in pairs for p in cross):
                return a_block, b_block
    return None


def find_triangle(dataset: Dataset) -> tuple[str, str, str] | None:
    """First three observables with all three pairwise settings measured."""
    pairs = measured_pairs(dataset)
    observables = sorted({o for p in pairs for o in p})
    for three in combinations(observables, 3):
        if all(frozenset(p) in pairs for p in combinations(three, 2)):
            return three
    return None


def default_battery(seq: LabelSequence, coin_seed: int) -> list[PlaceSelection]:
    pattern = seq.labels[:2] if len(seq.labels) >= 2 else seq.labels[:1] * 2
    return [
        PlaceSelection.prime_index(),
        PlaceSelection.after_pattern(pattern),
        PlaceSelection.index_arithmetic(2, 0),
        PlaceSelection.external_coin(coin_seed),
    ]


def extract_streams(dataset: Dataset) -> dict[str, LabelSequence]:
    """Per-(setting, observable) outcome streams, in acquisition order.

    Streams from different settings stay separate; concatenating across
    contexts is deliberately not offered here.
    """
    columns: dict[str, list] = {}
    for setting, rows in dataset.blocks():
        key_base = "+".join(dataset.scenario.canonical_setting(setting))
        for obs, column in zip(setting, rows.T.tolist()):
            columns.setdefault(f"{obs}@{key_base}", []).extend(column)
    streams = {}
    for key in sorted(columns):
        obs_id = key.split("@", 1)[0]
        alphabet = dataset.scenario.observable(obs_id).alphabet
        streams[key] = LabelSequence(alphabet, tuple(columns[key]))
    return streams


def run_full_suite(dataset: Dataset, config: RunConfig) -> CertReport:
    verdicts: list[dict] = []
    oracle: list[dict] = []
    summary: dict[str, Any] = {}

    try:
        sig_report = no_signaling_test(dataset, config.tolerance_policy)
        signaling = sig_report.to_json()
        summary["signaling"] = sig_report.verdict
    except NoSharedObservables as exc:
        signaling = {"status": "skipped", "reason": str(exc)}
        summary["signaling"] = "skipped"

    quadrupole = find_quadrupole(dataset)
    if quadrupole is None:
        verdicts.append(
            {"test": "chsh", "status": "skipped",
             "reason": "no four observables with all cross pairs measured"}
        )
        verdicts.append(
            {"test": "bell-original", "status": "skipped",
             "reason": "no four observables with all cross pairs measured"}
        )
    else:
        a_block, b_block = quadrupole
        cross = [(x, y) for x in a_block for y in b_block]
        corr = correlation_set(dataset, cross)
        chsh_input = ChshInput(correlations=corr, a_block=a_block, b_block=b_block)
        tol = resolve_tolerance(config.tolerance_policy, lambda k: chsh_ksigma(chsh_input, k))
        verdict = chsh_test(chsh_input, tol)
        entry = verdict.to_json()
        entry["status"] = "run"
        entry["blocks"] = {"a": list(a_block), "b": list(b_block)}
        verdicts.append(entry)
        summary["chsh"] = verdict.outcome.value

        feas = jpd_feasible(quadrupole_system_from_chsh(chsh_input))
        oracle.append(
            {
                "system": "quadrupole",
                "variables": list(a_block + b_block),
                "status": feas.status,
                "slack": feas.slack,
                "agrees_with_chsh": feas.feasible
                == (verdict.outcome is Outcome.REJECTED_NONCONTEXTUAL),
            }
        )

        _run_original_bell(verdicts, summary, corr, a_block, b_block, config)

    triangle = find_triangle(dataset)
    if triangle is None:
        verdicts.append(
            {"test": "suppes-zanotti", "status": "skipped",
             "reason": "no three observables with all pairwise settings measured"}
        )
    else:
        tri_pairs = list(combinations(triangle, 2))
        tri_corr = correlation_set(dataset, tri_pairs)
        triple_input = TripleInput(
            correlations=tri_corr,
            triple=triangle,
            zero_mean_tolerance=config.zero_mean_tolerance,
        )
        try:
            tol = resolve_tolerance(config.tolerance_policy, lambda k: sz_ksigma(triple_input, k))
            verdict = sz_test(triple_input, tol)
            entry = verdict.to_json()
            entry["status"] = "run"
            entry["triple"] = list(triangle)
            verdicts.append(entry)
            summary["suppes-zanotti"] = verdict.outcome.value
            feas = triple_jpd_feasible(triple_input)
            oracle.append(
                {
                    "system": "triple",
                    "variables": list(triangle),
                    "status": feas.status,
                    "slack": feas.slack,
                    "agrees_with_sz": feas.feasible
                    == (verdict.outcome is Outcome.REJECTED_NONCONTEXTUAL),
                }
            )
        except ZeroMeanViolated as exc:
            verdicts.append(
                {"test": "suppes-zanotti", "status": "skipped", "reason": str(exc)}
            )
            summary["suppes-zanotti"] = "skipped"

    randomness = {}
    rand_summary = {}
    for index, (key, seq) in enumerate(sorted(extract_streams(dataset).items())):
        battery = default_battery(seq, coin_seed=config.seed + index)
        try:
            report = randomness_test(
                seq, battery, config.randomness_policy, config.min_retained
            )
            entry = report.to_json()
            rand_summary[key] = report.verdict
        except ContexcertError as exc:
            entry = {"status": "skipped", "reason": str(exc)}
            rand_summary[key] = "skipped"
        # no plotting in-core: the report carries the running-frequency
        # arrays so external tools can draw the stabilization curves
        checkpoints = _profile_checkpoints(len(seq))
        entry["stabilization"] = {
            str(label): [[n, f] for n, f in stabilization_profile(seq, label, checkpoints)]
            for label in seq.labels
        }
        randomness[key] = entry
    summary["randomness"] = rand_summary

    provenance = {
        "dataset_meta": jsonable(dataset.meta),
        "record_count": len(dataset),
        "settings": ["+".join(s) for s in dataset.settings()],
        "config": config.to_json(),
    }
    return CertReport(
        provenance=provenance,
        signaling=signaling,
        verdicts=tuple(verdicts),
        oracle=tuple(oracle),
        randomness=randomness,
        summary=summary,
    )


def _run_original_bell(verdicts, summary, corr, a_block, b_block, config) -> None:
    # The constraint pair is the cross pair closest to precise
    # (anti)correlation; roles are then fixed so that pair plays (A2, B1).
    cross = [(x, y) for x in a_block for y in b_block]
    (a2, b1) = max(cross, key=lambda p: (abs(corr.value(*p)), p))
    a1 = a_block[0] if a_block[1] == a2 else a_block[1]
    b2 = b_block[0] if b_block[1] == b1 else b_block[1]
    try:
        tol = resolve_tolerance(
            config.tolerance_policy,
            lambda k: original_bell_ksigma(corr, a1, a2, b1, b2, k),
        )
        verdict = original_bell_test(
            corr, a1=a1, a2=a2, b1=b1, b2=b2, delta=config.delta, tolerance=tol
        )
        entry = verdict.to_json()
        entry["status"] = "run"
        entry["roles"] = {"a1": a1, "a2": a2, "b1": b1, "b2": b2}
        verdicts.append(entry)
        summary["bell-original"] = verdict.outcome.value
    except CorrelationConstraintUnmet as exc:
        verdicts.append({"test": "bell-original", "status": "skipped", "reason": str(exc)})
        summary["bell-original"] = "skipped"


def _profile_checkpoints(n: int) -> list[int]:
    fractions = (0.01, 0.03, 0.1, 0.3, 0.5, 0.75, 1.0)
    points = sorted({max(1, int(n * f)) for f in fractions})
    return [p for p in points if p <= n]
