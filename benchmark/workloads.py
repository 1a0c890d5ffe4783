"""The three benchmark workloads: inputs, timed steps and referee checks.

There are three paths: the CLI suite (generate, then full-suite), the cycle
LP oracle sweep and the randomness battery over label streams.  A workload
runs its own path for most of the run and a fixed few steps of the other two.
Every workload is a closed loop with one client: operations run one after
another in a single process (the suite path starts one CLI child at a time).
A run takes about ``seconds`` and reports medians over steps.  Inputs depend
only on the seed.

Import this module only after ``src`` is on ``sys.path`` (``run.py`` does so).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

import referees
from contexcert import cli, jpdoracle, randomtests, suite
from contexcert.errors import ContexcertError
from contexcert.tolerances import StatisticalTolerance

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

# Tsirelson angles: the four correlations are -cos(a - b) = +-1/sqrt(2).
ANGLES = {"A1": 0.0, "A2": math.pi / 2, "B1": math.pi / 4, "B2": 3 * math.pi / 4}
RECORDS_PER_SETTING = 100_000
CORRELATION_K = 6.0  # k-sigma band for the sampled correlations (false alarm ~2e-9)

FLOAT_CYCLES_PER_N = 100  # n = 3, 4, 5
EXACT_CYCLES_PER_N = 10  # n = 3, 4; half of them on the s_odd = n - 2 boundary
# Float mode decides with a 1e-9 tolerance, so draws this close to the
# boundary are redrawn: on them only exact mode has a defined answer.
BOUNDARY_MARGIN = 1e-6

STREAM_LENGTH = 100_000
FAIR_COIN_STREAMS = 6
STRING_STREAMS = 2
STRING_ALPHABET = ("a", "b", "c")
MARKOV_REPEAT = 0.7
RANDOMNESS_POLICY = StatisticalTolerance(4.0)
PROFILE_FRACTIONS = (0.01, 0.03, 0.1, 0.3, 0.5, 0.75, 1.0)

# The machine this benchmark runs on is shared, and its speed drifts: a fixed
# interpreter loop timed in 3 s windows over 90 s ranged from 64 to 93 ms, and
# unscaled oracle rates spread by 26-38% between runs.  In-process batches
# (oracle and stream rounds) track a fixed calibration loop: correlation 0.75
# per batch, against 0.2 for a CLI process.  So each such batch runs between
# two calibration loops and its time is scaled by CALIBRATION_REFERENCE_S /
# (mean of the two loop times): seconds at the speed where the loop takes
# CALIBRATION_REFERENCE_S.  Scaling CLI times the same way widened their
# spread.  A CLI child tracks another child process better: next to a fixed
# gauge child (``probe.py gauge``: interpreter start, numpy import, csv
# parsing, imports nothing of contexcert) the correlation is 0.7 per step.
# So each CLI step runs between two gauges and its time is scaled by
# GAUGE_REFERENCE_S / (mean of the two gauge times); over 45 s blocks of
# steps this halved the spread of full-suite and generate medians (8.8% and
# 10.7% unscaled, 4.2% and 3.1% scaled).
CALIBRATION_REFERENCE_S = 0.09
GAUGE_REFERENCE_S = 0.45


def calibration_loop_seconds() -> float:
    start = time.perf_counter()
    table = {}
    total = 0
    for i in range(320_000):
        total += i * i
        table[i & 1023] = (i, total & 0xFFFF)
    return time.perf_counter() - start


def timed(fn, *args):
    """Run fn(*args); returns (wall seconds, result)."""
    start = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - start, out


def timed_at_reference_speed(fn, *args):
    """Run fn(*args) between two calibration loops; returns (seconds at the
    reference speed, result)."""
    before = calibration_loop_seconds()
    seconds, out = timed(fn, *args)
    after = calibration_loop_seconds()
    return seconds * 2 * CALIBRATION_REFERENCE_S / (before + after), out


@dataclass
class Outcome:
    """Operations attempted and failed, and referee mismatches found."""

    attempted: int = 0
    failed: int = 0
    mismatches: int = 0

    def op(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += 0 if ok else 1

    def check(self, fn, *args) -> None:
        """Run one referee check; a mismatch makes the run incorrect."""
        try:
            fn(*args)
        except referees.Mismatch as exc:
            self.mismatches += 1
            if self.mismatches <= 5:
                print(f"referee: {exc}", file=sys.stderr)


def result(outcome: Outcome, metrics: dict) -> dict:
    return {
        "correct": outcome.mismatches == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def run_child(argv: list, cwd: Path, log) -> dict:
    """Run one command to completion through ``probe.py run``; returns its
    wall ``seconds``, ``peak_rss_mb`` and exit ``code``."""
    result_file = cwd / "child.json"
    subprocess.run(
        [sys.executable, str(BENCH_DIR / "probe.py"), "run", str(result_file), *argv],
        cwd=cwd, env=child_env(), stdout=log, stderr=log, check=True,
    )
    return json.loads(result_file.read_text())


def setup_seconds(workload: str, work: Path, repeats: int = 5) -> float:
    """Median wall time of a fresh interpreter doing the workload's set-up."""
    times = []
    with open(work / "probe.log", "ab") as log:
        for _ in range(repeats):
            child = run_child(
                [sys.executable, str(BENCH_DIR / "probe.py"), "setup", workload], work, log
            )
            if child["code"] != 0:
                raise RuntimeError(f"set-up probe for {workload} exited with {child['code']}")
            times.append(child["seconds"])
    return statistics.median(times)


# ------------------------------------------------------------ suite-singlet-400k


def generate_argv(seed: int) -> list:
    angles = ",".join(repr(ANGLES[k]) for k in ("A1", "A2", "B1", "B2"))
    return ["generate", "singlet", "--angles", angles, "--n", str(RECORDS_PER_SETTING),
            "--seed", str(seed), "--out", "data.csv"]


def full_suite_argv(seed: int, out: str) -> list:
    return ["full-suite", "--data", "data.csv", "--scenario", "data.scenario.json",
            "--seed", str(seed), "--out", out]


def check_suite_outputs(work: Path, report_file: str, outcome: Outcome) -> None:
    """Referee checks on one generated dataset and a report made from it."""
    recount = referees.CsvRecount((work / "data.csv").read_text())
    scenario = json.loads((work / "data.scenario.json").read_text())
    labels = scenario["observables"][0]["alphabet"]
    report = json.loads((work / report_file).read_text())
    outcome.check(referees.check_singlet_correlations, recount, ANGLES, RECORDS_PER_SETTING,
                  CORRELATION_K)
    outcome.check(referees.check_suite_report, report, recount)
    outcome.check(referees.check_suite_streams, report, recount, labels)


def suite_in_process(seed: int, work: Path) -> None:
    """The same two commands through ``cli.main`` in this process (traced run)."""
    with contextlib.chdir(work), contextlib.redirect_stdout(io.StringIO()):
        for argv in (generate_argv(seed), full_suite_argv(seed, "report.json")):
            code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"contexcert {argv[0]} exited with {code}")


# ---------------------------------------------------------------- oracle-cycles


def build_cycle_system(correlations, exact: bool):
    """Zero-mean pair tables on the cycle X1-X2-...-Xn-X1."""
    ids = tuple(f"X{i + 1}" for i in range(len(correlations)))
    constraints = []
    for (i, j), corr in zip(referees.cycle_pairs(len(ids)), correlations):
        pair = (ids[i], ids[j])
        constraints.append((pair, jpdoracle.pair_table_from_correlation(pair, corr, exact)))
    return jpdoracle.MarginalConstraintSystem(variables=ids, constraints=tuple(constraints))


def float_cycle(rng: random.Random, n: int) -> tuple[float, ...]:
    while True:
        corr = tuple(rng.uniform(-1.0, 1.0) for _ in range(n))
        if abs(referees.s_odd(corr) - (n - 2)) > BOUNDARY_MARGIN:
            return corr


def grid_value(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-10, 10), 10)


def boundary_cycle(rng: random.Random, n: int) -> tuple[Fraction, ...]:
    """A 1/10-grid cycle with s_odd exactly n - 2: the last correlation is
    solved from the others under a random odd sign pattern."""
    while True:
        signs = [rng.choice((1, -1)) for _ in range(n - 1)]
        signs.append(-1 if signs.count(-1) % 2 == 0 else 1)
        head = [grid_value(rng) for _ in range(n - 1)]
        last = signs[-1] * ((n - 2) - sum(s * c for s, c in zip(signs, head)))
        corr = tuple(head) + (last,)
        if abs(last) <= 1 and referees.s_odd(corr) == n - 2:
            return corr


def oracle_instances(rng: random.Random) -> tuple[list, list]:
    """One round: float 3-, 4- and 5-cycles, then exact 3- and 4-cycles."""
    floats = [float_cycle(rng, n) for n in (3, 4, 5) for _ in range(FLOAT_CYCLES_PER_N)]
    exacts = [
        boundary_cycle(rng, n) if k % 2 else tuple(grid_value(rng) for _ in range(n))
        for n in (3, 4)
        for k in range(EXACT_CYCLES_PER_N)
    ]
    return floats, exacts


def decide_all(instances: list, exact: bool) -> list:
    """Build each system and decide it; None marks a failed decision."""
    results = []
    for corr in instances:
        try:
            results.append(jpdoracle.jpd_feasible(build_cycle_system(corr, exact), exact=exact))
        except ContexcertError:
            results.append(None)
    return results


def check_decision(corr, result, exact: bool) -> None:
    if referees.check_cycle_decision(corr, result.status):
        referees.check_witness(corr, dict(result.witness.probs), 0 if exact else 1e-9)
    else:
        cert = result.certificate
        referees.check_certificate(corr, cert.normalization_coeff, cert.cell_coeffs)


def oracle_round(rng: random.Random, outcome: Outcome) -> tuple[float, float, list]:
    """One round of decisions, then its checks.

    Returns (float seconds, exact seconds, results) for 3 * FLOAT_CYCLES_PER_N
    float and 2 * EXACT_CYCLES_PER_N exact decisions, seconds at the
    reference speed.
    """
    floats, exacts = oracle_instances(rng)
    float_s, float_results = timed_at_reference_speed(decide_all, floats, False)
    exact_s, exact_results = timed_at_reference_speed(decide_all, exacts, True)
    for instances, results, exact in ((floats, float_results, False),
                                      (exacts, exact_results, True)):
        for corr, res in zip(instances, results):
            outcome.op(res is not None)
            if res is not None:
                outcome.check(check_decision, corr, res, exact)
    return float_s, exact_s, float_results + exact_results


# ---------------------------------------------------------- randomness-streams


@dataclass(frozen=True)
class Stream:
    kind: str  # "fair" | "strings" | "alternating" | "markov"
    values: list
    labels: tuple


def make_streams(rng: np.random.Generator) -> list[Stream]:
    n = STREAM_LENGTH
    streams = [
        Stream("fair", np.where(rng.random(n) < 0.5, 1, -1).tolist(), (1, -1))
        for _ in range(FAIR_COIN_STREAMS)
    ]
    for _ in range(STRING_STREAMS):
        idx = rng.integers(0, len(STRING_ALPHABET), n).tolist()
        streams.append(Stream("strings", [STRING_ALPHABET[i] for i in idx], STRING_ALPHABET))
    streams.append(Stream("alternating", [1, -1] * (n // 2), (1, -1)))
    markov, current = [], 1
    for repeat in (rng.random(n) < MARKOV_REPEAT).tolist():
        current = current if repeat else -current
        markov.append(current)
    streams.append(Stream("markov", markov, (1, -1)))
    return streams


def profile_checkpoints(n: int) -> list[int]:
    return sorted({max(1, int(n * f)) for f in PROFILE_FRACTIONS})


def analyse_all(streams: list[Stream], seed: int) -> list:
    """The suite's four-selection battery plus per-label profiles, per stream;
    None marks a failed analysis."""
    results = []
    for index, stream in enumerate(streams):
        try:
            seq = randomtests.LabelSequence.from_values(stream.values, stream.labels)
            report = randomtests.randomness_test(
                seq, suite.default_battery(seq, seed + index), RANDOMNESS_POLICY
            )
            checkpoints = profile_checkpoints(len(seq))
            profiles = {
                label: randomtests.stabilization_profile(seq, label, checkpoints)
                for label in seq.labels
            }
            results.append((report, profiles))
        except ContexcertError:
            results.append(None)
    return results


def check_stream(stream: Stream, report, profiles) -> None:
    entry = report.to_json()
    labels = list(stream.labels)
    referees.check_battery(entry, stream.values, labels, tuple(labels[:2]), RANDOMNESS_POLICY.k)
    checkpoints = profile_checkpoints(len(stream.values))
    for label in labels:
        referees.check_profile(profiles[label], stream.values, label, checkpoints)
    after = entry["selections"][1]
    if stream.kind == "alternating":
        referees.require(entry["verdict"] == "failed", "strict alternation passed the battery")
        referees.require(after["max_deviation"] == 0.5,
                         f"strict alternation: after-pattern deviation {after['max_deviation']}")
    if stream.kind == "markov":
        referees.require(after["status"] == "deviant",
                         "repeat-biased Markov stream passed the after-pattern selection")


def streams_round(streams: list[Stream], seed: int, outcome: Outcome) -> float:
    """Analyse then check every stream; returns the seconds of the analyses
    at the reference speed."""
    seconds, results = timed_at_reference_speed(analyse_all, streams, seed)
    for stream, res in zip(streams, results):
        outcome.op(res is not None)
        if res is not None:
            outcome.check(check_stream, stream, *res)
    return seconds


# --------------------------------------------------------------------- runs

# end-to-end metrics other than setup_s, with their units
UNITS = {
    "generate_s": "s", "full_suite_s": "s", "full_suite_peak_rss_mb": "MB",
    "lp_per_s": "decisions/s", "exact_lp_per_s": "decisions/s", "symbols_per_s": "symbols/s",
}


class Run:
    """Samples of every end-to-end metric from steps of the three paths.

    Suite steps are single CLI children: ``generate``, or ``full-suite`` on
    the dataset the last ``generate`` wrote.  Every generate must write the
    same dataset and every full-suite the same report, byte for byte, so the
    referees read them once, at the end.
    """

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.work = work
        self.outcome = Outcome()
        self.samples: dict[str, list] = {name: [] for name in UNITS}
        self.first_bytes: dict[str, bytes] = {}
        self.reports = 0
        self.gauge_s: float | None = None  # the last gauge, while no other step ran after it
        self.oracle_rng = random.Random(seed)
        self.streams_rng = np.random.Generator(np.random.PCG64(seed))

    def _gauge(self) -> float:
        with open(self.work / "cli.log", "ab") as log:
            child = run_child([sys.executable, str(BENCH_DIR / "probe.py"), "gauge"], self.work, log)
        if child["code"] != 0:
            raise RuntimeError(f"speed gauge exited with {child['code']}")
        return child["seconds"]

    def _cli(self, argv: list, produced: str) -> dict | None:
        """One CLI child between two gauges; its seconds at the reference speed."""
        before = self.gauge_s if self.gauge_s is not None else self._gauge()
        with open(self.work / "cli.log", "ab") as log:
            child = run_child([sys.executable, "-m", "contexcert.cli", *argv], self.work, log)
        self.gauge_s = self._gauge()
        child["seconds"] *= 2 * GAUGE_REFERENCE_S / (before + self.gauge_s)
        self.outcome.op(child["code"] == 0)
        if child["code"] != 0:
            return None
        data = (self.work / produced).read_bytes()
        first = self.first_bytes.setdefault(produced, data)
        self.outcome.check(referees.require, data == first,
                           f"{produced} differs between two runs of one command and seed")
        return child

    def generate(self) -> None:
        child = self._cli(generate_argv(self.seed), "data.csv")
        if child:
            self.samples["generate_s"].append(child["seconds"])

    def full_suite(self) -> None:
        child = self._cli(full_suite_argv(self.seed, "report.json"), "report.json")
        if child:
            self.reports += 1
            self.samples["full_suite_s"].append(child["seconds"])
            self.samples["full_suite_peak_rss_mb"].append(child["peak_rss_mb"])

    def suite_cycle(self) -> None:
        self.generate()
        self.full_suite()

    def oracle_round(self) -> None:
        self.gauge_s = None
        float_s, exact_s, _ = oracle_round(self.oracle_rng, self.outcome)
        self.samples["lp_per_s"].append(3 * FLOAT_CYCLES_PER_N / float_s)
        self.samples["exact_lp_per_s"].append(2 * EXACT_CYCLES_PER_N / exact_s)

    def streams_round(self) -> None:
        self.gauge_s = None
        streams = make_streams(self.streams_rng)
        seconds = streams_round(streams, self.seed, self.outcome)
        self.samples["symbols_per_s"].append(sum(len(s.values) for s in streams) / seconds)

    def result(self, setup_s: float) -> dict:
        """Referee checks on the suite files, then medians over steps."""
        self.outcome.check(referees.require, self.reports >= 2,
                           f"{self.reports} full-suite reports; two are needed to compare")
        if self.reports:
            check_suite_outputs(self.work, "report.json", self.outcome)
        metrics = {
            name: metric(statistics.median(values), UNITS[name])
            for name, values in self.samples.items() if values
        }
        metrics["setup_s"] = metric(setup_s, "s")
        return result(self.outcome, metrics)


# A workload runs its own path for most of the run.  Every run reports every
# end-to-end metric, so the other two paths run a fixed number of steps too,
# spread evenly over the run: the machine's speed drifts over seconds, and
# steps taken at one moment would all share that moment's speed.
# A side suite step is one generate-then-full-suite cycle, so that its two CLI
# children share the gauge between them.
PATHS = {
    "suite-singlet-400k": "suite",
    "oracle-cycles": "oracle",
    "randomness-streams": "streams",
}
PRIMARY = {
    "suite": ("generate", "full_suite"),
    "oracle": ("oracle_round",),
    "streams": ("streams_round",),
}
SIDE_STEPS = {
    "suite": ("suite_cycle",) * 3,
    "oracle": ("oracle_round",) * 8,
    "streams": ("streams_round",) * 6,
}


def side_steps(workload: str) -> list[str]:
    """The other paths' steps, merged so that each path's steps are spread
    evenly over the sequence."""
    placed = []
    for path, steps in SIDE_STEPS.items():
        if path != PATHS[workload]:
            placed += [((i + 0.5) / len(steps), step) for i, step in enumerate(steps)]
    return [step for _, step in sorted(placed)]


def run_workload(workload: str, seed: int, seconds: float, work: Path) -> dict:
    """Side steps keep pace with the elapsed share of ``seconds``; primary
    steps fill the rest while the next one should end in time (at least two
    cycles of them run, so that the suite path always has two reports)."""
    setup_s = setup_seconds(workload, work)
    run = Run(seed, work)
    side = side_steps(workload)
    primary = PRIMARY[PATHS[workload]]
    done_side = done_primary = 0
    primary_s = 0.0
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        on_pace = done_side < len(side) and done_side / len(side) <= elapsed / seconds
        fits = done_primary < 2 * len(primary) or (
            elapsed + primary_s / done_primary <= seconds
        )
        if not on_pace and fits:
            step_start = time.perf_counter()
            getattr(run, primary[done_primary % len(primary)])()
            primary_s += time.perf_counter() - step_start
            done_primary += 1
        elif done_side < len(side):
            getattr(run, side[done_side])()
            done_side += 1
        else:
            return run.result(setup_s)
