"""Batch execution of the full certification pipeline over one dataset.

Order of operations: marginal-consistency check, applicable inequality tests
(detected from the dataset's measured pairs), direct feasibility
cross-checks, then the per-stream frequency-stability battery.  Tests whose
settings are absent, or whose data miss a precondition (zero means, the
original Bell constraint, +-1 alphabets), produce explicit skip entries
instead of aborting.
Each inequality test runs through :func:`run_inequality_test`, which the
``test`` command calls as well.

Verdicts are data: the suite always completes with exit status success as
long as the inputs parse.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Any, Mapping

import numpy as np

from . import __version__
from ._simplex import SimplexFailure
from .belltests import (
    ChshInput,
    CorrelationConstraintUnmet,
    Outcome,
    TestVerdict,
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
from .jpdoracle import (
    FEASIBILITY_TOL, FeasibilityResult, MarginalConstraintSystem, jpd_feasible, zero_mean_system
)
from .randomtests import (
    LabelSequence,
    PlaceSelection,
    randomness_test,
    stabilization_profile,
)
from .scenario import PRNG_NAME, Dataset, NonDichotomous, code_dtype, correlation_set
from .signaling import NoSharedObservables, no_signaling_test
from .tolerances import RunConfig, resolve_tolerance


class MissingSettings(ContexcertError):
    """A requested test needs pairs the dataset does not contain."""


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


INEQUALITY_TESTS = ("chsh", "bell-original", "suppes-zanotti")


@dataclass(frozen=True)
class InequalityRun:
    """One inequality test's verdict, its input and the roles it was run with.

    ``placement`` names the detected structure for the suite report:
    ``blocks`` for CHSH, ``roles`` for the original Bell test, ``triple``
    for Suppes-Zanotti.
    """

    verdict: TestVerdict
    test_input: ChshInput | TripleInput | None
    placement: Mapping[str, Any]

    def to_json(self) -> dict:
        return {**self.verdict.to_json(), "status": "run", **self.placement}


def run_inequality_test(
    dataset: Dataset,
    which: str,
    config: RunConfig,
    constraint_pair: str | None = None,
) -> InequalityRun:
    """Detect the structure ``which`` needs, pick its roles and run it.

    ``which`` is one of :data:`INEQUALITY_TESTS`.  The original Bell test's
    constraint pair is ``constraint_pair`` ("A2+B1", either order, one
    observable from each detected block), or else the cross pair with the
    largest |correlation|; the other tests refuse a ``constraint_pair``.
    Each call estimates its correlations afresh; the dataset counts its cells
    once, so a repeated estimate only reads those counts.

    Raises :class:`MissingSettings` when the dataset lacks the structure,
    and :class:`ZeroMeanViolated` or :class:`CorrelationConstraintUnmet`
    when a precondition of the test fails.
    """
    if which not in INEQUALITY_TESTS:
        raise ContexcertError(f"unknown inequality test {which!r}")
    if constraint_pair is not None and which != "bell-original":
        raise ContexcertError(
            f"--constraint-pair applies only to bell-original; {which} does not read it"
        )
    if which == "suppes-zanotti":
        triangle = find_triangle(dataset)
        if triangle is None:
            raise MissingSettings("no three observables with all pairwise settings measured")
        corr = correlation_set(dataset, list(combinations(triangle, 2)))
        triple_input = TripleInput(corr, triangle, config.zero_mean_tolerance)
        tol = resolve_tolerance(config.tolerance_policy, lambda k: sz_ksigma(triple_input, k))
        verdict = sz_test(triple_input, tol)
        return InequalityRun(verdict, triple_input, {"triple": list(triangle)})

    quadrupole = find_quadrupole(dataset)
    if quadrupole is None:
        raise MissingSettings("no four observables with all cross pairs measured")
    a_block, b_block = quadrupole
    cross = [(x, y) for x in a_block for y in b_block]
    corr = correlation_set(dataset, cross)
    if which == "chsh":
        chsh_input = ChshInput(corr, a_block, b_block)
        tol = resolve_tolerance(config.tolerance_policy, lambda k: chsh_ksigma(chsh_input, k))
        verdict = chsh_test(chsh_input, tol)
        return InequalityRun(
            verdict, chsh_input, {"blocks": {"a": list(a_block), "b": list(b_block)}}
        )

    # bell-original: the constraint pair plays (A2, B1)
    if constraint_pair:
        a2, _, b1 = constraint_pair.partition("+")
        if a2 in b_block:  # accept either order
            a2, b1 = b1, a2
        if a2 not in a_block or b1 not in b_block:
            raise ContexcertError(
                f"--constraint-pair {constraint_pair} does not name one "
                f"observable from each detected block {a_block} / {b_block}"
            )
    else:
        a2, b1 = max(cross, key=lambda p: (abs(corr.value(*p)), p))
    a1 = a_block[0] if a_block[1] == a2 else a_block[1]
    b2 = b_block[0] if b_block[1] == b1 else b_block[1]
    tol = resolve_tolerance(
        config.tolerance_policy, lambda k: original_bell_ksigma(corr, a1, a2, b1, b2, k)
    )
    verdict = original_bell_test(
        corr, a1=a1, a2=a2, b1=b1, b2=b2, delta=config.delta, tolerance=tol
    )
    return InequalityRun(verdict, None, {"roles": {"a1": a1, "a2": a2, "b1": b1, "b2": b2}})


def default_battery(seq: LabelSequence, coin_seed: int) -> list[PlaceSelection]:
    pattern = seq.labels[:2] if len(seq.labels) >= 2 else seq.labels[:1] * 2
    return [
        PlaceSelection.prime_index(),
        PlaceSelection.after_pattern(pattern),
        PlaceSelection.index_arithmetic(2, 0),
        PlaceSelection.external_coin(coin_seed),
    ]


def stream_key(observable: str, canonical_setting: tuple[str, ...]) -> str:
    """``"X@A+B"``: observable X's stream in the canonical setting (A, B)."""
    return f"{observable}@{'+'.join(canonical_setting)}"


def extract_streams(dataset: Dataset) -> dict[str, LabelSequence]:
    """Per-(setting, observable) outcome streams, in acquisition order.

    Streams from different settings stay separate; concatenating across
    contexts is deliberately not offered here.
    """
    scenario, cells, offsets = dataset.scenario, dataset.cells, dataset.offsets()
    streams = {}
    for canonical in dataset.settings():
        alphabets = scenario.alphabets(canonical)
        member = np.zeros(len(cells), bool)  # the records of this setting
        codes = np.zeros((len(canonical), offsets[-1]), code_dtype(map(len, alphabets)))  # each cell's codes
        for setting, start, stop in zip(dataset.recorded, offsets, offsets[1:]):
            if scenario.canonical_setting(setting) == canonical:
                member |= (start <= cells) & (cells < stop)
                grid = np.indices([len(a) for a in scenario.alphabets(setting)]).reshape(len(setting), -1)
                codes[:, start:stop] = grid[list(map(setting.index, canonical))]
        picked = np.compress(member, cells)  # indexed with below: take would copy it as intp
        for obs, alphabet, column in zip(canonical, alphabets, codes):
            streams[stream_key(obs, canonical)] = LabelSequence.from_codes(alphabet, column[picked])
    return dict(sorted(streams.items()))


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

    for which in INEQUALITY_TESTS:
        try:
            run = run_inequality_test(dataset, which, config)
        except (
            MissingSettings, ZeroMeanViolated, CorrelationConstraintUnmet, NonDichotomous
        ) as exc:
            verdicts.append({"test": which, "status": "skipped", "reason": str(exc)})
            if not isinstance(exc, MissingSettings):
                summary[which] = "skipped"
            continue
        verdicts.append(run.to_json())
        summary[which] = run.verdict.outcome.value
        cross_check = _oracle_cross_check(which, run)
        if cross_check is not None:
            oracle.append(cross_check)

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


def quadrupole_system_from_chsh(
    chsh: ChshInput, exact: bool = False
) -> MarginalConstraintSystem:
    """Zero-mean pair tables induced from the four CHSH correlations."""
    return zero_mean_system(
        chsh.a_block + chsh.b_block, chsh.term_pairs, chsh.term_values(), exact
    )


def triple_jpd_feasible(
    triple: TripleInput,
    feasibility_tol: float = FEASIBILITY_TOL,
    exact: bool = False,
) -> FeasibilityResult:
    """JPD existence for a zero-mean correlation triple via the induced tables."""
    triple.require_zero_mean()
    system = zero_mean_system(triple.triple, triple.pairs, triple.pair_values(), exact)
    return jpd_feasible(system, feasibility_tol=feasibility_tol, exact=exact)


def oracle_agrees(feasibility: FeasibilityResult, verdict: TestVerdict) -> bool:
    """The agreement rule: the oracle is feasible exactly where the test rejects contextuality."""
    return feasibility.feasible == (verdict.outcome is Outcome.REJECTED_NONCONTEXTUAL)


def fine_equivalence_check(chsh: ChshInput, tolerance: float = FEASIBILITY_TOL) -> bool:
    """True iff LP feasibility and the permutation-maximum inequality agree."""
    result = jpd_feasible(quadrupole_system_from_chsh(chsh), feasibility_tol=tolerance)
    return oracle_agrees(result, chsh_test(chsh, tolerance))


def _oracle_cross_check(which: str, run: InequalityRun) -> dict | None:
    """The LP oracle on the tables behind a CHSH or Suppes-Zanotti verdict."""
    if which == "chsh":
        system, agrees = "quadrupole", "agrees_with_chsh"
        solve, problem = jpd_feasible, quadrupole_system_from_chsh(run.test_input)
        variables = run.test_input.a_block + run.test_input.b_block
    elif which == "suppes-zanotti":
        system, agrees = "triple", "agrees_with_sz"
        solve, problem = triple_jpd_feasible, run.test_input
        variables = run.test_input.triple
    else:
        return None
    entry = {"system": system, "variables": list(variables)}
    try:
        feas = solve(problem)
    except SimplexFailure as exc:
        # a solver limit is a result of the run, not a reason to lose the report
        return {**entry, "status": "solver_failed", "reason": str(exc)}
    return {
        **entry,
        "status": feas.status,
        "slack": feas.slack,
        agrees: oracle_agrees(feas, run.verdict),
    }


def _profile_checkpoints(n: int) -> list[int]:
    fractions = (0.01, 0.03, 0.1, 0.3, 0.5, 0.75, 1.0)
    points = sorted({max(1, int(n * f)) for f in fractions})
    return [p for p in points if p <= n]
