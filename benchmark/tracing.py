"""Traced run: spans around the calls into each contexcert layer.

The tracer replaces public functions by name in the module that calls them
(``contexcert.suite.no_signaling_test``, ``contexcert.scenario.estimate_table``
...) with wrappers that record a span: name, start, end and parent.  Nothing
in ``src`` changes; the originals are put back when the traced pass ends.
Spans stay in memory and are written out once, at the end of the run.

One traced pass runs all three workload paths once (the suite path in-process
through ``cli.main``), so every per-layer metric is measured in every traced
run.  The same pass without tracing gives the tracing overhead.
"""

from __future__ import annotations

import contextlib
import functools
import json
import random
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import workloads
from contexcert import _simplex, cli, dataio, jpdoracle, randomtests, scenario, signaling, suite


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, str, int | None, float, float]] = []
        self._stack: list[int] = []
        self._next_id = 0

    def wrap(self, fn, name):
        """``name`` is a span name, or a function of the call's arguments giving one."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name(*args, **kwargs) if callable(name) else name
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans.append((span_id, span_name, parent, start, end))

        return traced

    def totals(self) -> tuple[dict, dict, dict]:
        """Per span name: inclusive seconds, self seconds, call count."""
        child_time: dict[int, float] = defaultdict(float)
        for _, _, parent, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        inclusive: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for span_id, name, _, start, end in self.spans:
            inclusive[name] += end - start
            own[name] += end - start - child_time[span_id]
            calls[name] += 1
        return inclusive, own, calls


def _n_name(system, **kwargs) -> str:
    if kwargs.get("exact"):
        return "jpdoracle.jpd_feasible_exact"
    return f"jpdoracle.jpd_feasible.n{len(system.variables)}"


def _mask_name(seq, sel) -> str:
    return f"randomtests.selection_mask.{sel.kind}"


# (module or class, attribute, span name): each public function is wrapped
# where its caller looks it up, so one function may appear under two callers.
PLAN = [
    (cli, "main", "cli.main"),
    (cli, "sample_quantum_dataset", "quantumgen.sample_quantum_dataset"),
    (cli, "write_dataset_csv", "dataio.write_dataset_csv"),
    (cli, "write_scenario_json", "dataio.write_scenario_json"),
    (cli, "ingest", "dataio.ingest"),
    (dataio, "read_dataset_csv", "dataio.read_dataset_csv"),
    (cli, "run_full_suite", "suite.run_full_suite"),
    (cli, "dumps_json", "dataio.dumps_json"),
    (suite, "no_signaling_test", "signaling.no_signaling_test"),
    (signaling, "estimate_table", "scenario.estimate_table"),
    (scenario, "estimate_table", "scenario.estimate_table"),
    (suite, "correlation_set", "scenario.correlation_set"),
    (suite, "find_quadrupole", "suite.find_quadrupole"),
    (suite, "find_triangle", "suite.find_triangle"),
    (suite, "chsh_test", "belltests.chsh_test"),
    (suite, "chsh_ksigma", "belltests.chsh_ksigma"),
    (suite, "original_bell_test", "belltests.original_bell_test"),
    (suite, "original_bell_ksigma", "belltests.original_bell_ksigma"),
    (suite, "sz_test", "belltests.sz_test"),
    (suite, "sz_ksigma", "belltests.sz_ksigma"),
    (suite, "quadrupole_system_from_chsh", "jpdoracle.quadrupole_system_from_chsh"),
    (suite, "jpd_feasible", "jpdoracle.jpd_feasible"),
    (suite, "triple_jpd_feasible", "jpdoracle.triple_jpd_feasible"),
    (suite, "extract_streams", "suite.extract_streams"),
    (suite, "default_battery", "suite.default_battery"),
    (suite, "randomness_test", "randomtests.randomness_test"),
    (randomtests, "randomness_test", "randomtests.randomness_test"),
    (suite, "stabilization_profile", "randomtests.stabilization_profile"),
    (randomtests, "stabilization_profile", "randomtests.stabilization_profile"),
    (randomtests, "selection_mask", _mask_name),
    (randomtests.LabelSequence, "__init__", "randomtests.label_sequence"),
    (jpdoracle, "jpd_feasible", _n_name),
    (workloads, "build_cycle_system", "jpdoracle.build_system"),
    (_simplex, "phase1_dense", "simplex.phase1_dense"),
    (_simplex, "phase1_exact", "simplex.phase1_exact"),
]


class installed:
    """Context manager: the PLAN's wrappers (and a traced ``codes``) in place."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.saved: list[tuple[object, str, object]] = []

    def _replace(self, owner, attr: str, value) -> None:
        self.saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self) -> Tracer:
        for owner, attr, name in PLAN:
            self._replace(owner, attr, self.tracer.wrap(getattr(owner, attr), name))
        # ``codes`` is a cached_property: wrap the function it caches
        label_sequence = randomtests.LabelSequence
        codes = functools.cached_property(
            self.tracer.wrap(label_sequence.codes.func, "randomtests.codes")
        )
        codes.__set_name__(label_sequence, "codes")
        self._replace(label_sequence, "codes", codes)
        return self.tracer

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self.saved):
            setattr(owner, attr, original)
        self.saved.clear()


def one_pass(seed: int, work: Path, outcome: workloads.Outcome, traced: bool):
    """All three paths once, each checked by its referees.

    Returns (seconds per path and in total, excluding the checks, the oracle
    and stream paths' at the reference speed; one tracer per path, or none;
    the oracle results).
    """
    jpdoracle._lp_pattern.cache_clear()
    streams = workloads.make_streams(np.random.Generator(np.random.PCG64(seed)))
    tracers = [Tracer() for _ in range(3)] if traced else []
    scopes = [installed(t) for t in tracers] or [contextlib.nullcontext()] * 3
    walls = {}
    with scopes[0]:
        walls["suite"], _ = workloads.timed(workloads.suite_in_process, seed, work)
    workloads.check_suite_outputs(work, "report.json", outcome)
    with scopes[1]:
        float_s, exact_s, results = workloads.oracle_round(random.Random(seed), outcome)
    walls["oracle"] = float_s + exact_s
    with scopes[2]:
        walls["streams"] = workloads.streams_round(streams, seed, outcome)
    walls["total"] = sum(walls.values())
    return walls, tracers, results


def import_seconds(work: Path) -> float:
    """Seconds a fresh interpreter spends importing contexcert.cli."""
    out = subprocess.run(
        [sys.executable, str(workloads.BENCH_DIR / "probe.py"), "import-time"],
        cwd=work, env=workloads.child_env(), capture_output=True, text=True, check=True,
    )
    return float(out.stdout)


def layer_metrics(tracers: list, walls: dict, plain: dict, results: list, work: Path) -> dict:
    inclusive: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for tracer in tracers:
        for merged, part in zip((inclusive, own, calls), tracer.totals()):
            for name, value in part.items():
                merged[name] += value
    lp_cache = jpdoracle._lp_pattern.cache_info()
    rows = 4 * workloads.RECORDS_PER_SETTING
    values = {
        "dataio.read_dataset_csv_s": inclusive["dataio.read_dataset_csv"],
        "dataio.csv_rows_per_s": rows / inclusive["dataio.read_dataset_csv"],
        "dataio.write_dataset_csv_s": inclusive["dataio.write_dataset_csv"],
        "quantumgen.sample_quantum_dataset_s": inclusive["quantumgen.sample_quantum_dataset"],
        "scenario.estimate_table_s": inclusive["scenario.estimate_table"],
        "scenario.estimate_table_calls": calls["scenario.estimate_table"],
        "scenario.correlation_set_s": inclusive["scenario.correlation_set"],
        "signaling.no_signaling_test_s": inclusive["signaling.no_signaling_test"],
        "belltests.tests_s": sum(v for k, v in inclusive.items() if k.startswith("belltests.")),
        "jpdoracle.jpd_feasible_s": inclusive["jpdoracle.jpd_feasible"],
        "suite.extract_streams_s": inclusive["suite.extract_streams"],
        "randomtests.randomness_test_s": inclusive["randomtests.randomness_test"],
        "randomtests.stabilization_profile_s": inclusive["randomtests.stabilization_profile"],
        "suite.run_full_suite_self_s": own["suite.run_full_suite"],
        "dataio.dumps_json_s": inclusive["dataio.dumps_json"],
        "dataio.report_bytes": (work / "report.json").stat().st_size,
        "jpdoracle.build_system_s": inclusive["jpdoracle.build_system"],
        "jpdoracle.jpd_feasible_s.n3": inclusive["jpdoracle.jpd_feasible.n3"],
        "jpdoracle.jpd_feasible_s.n4": inclusive["jpdoracle.jpd_feasible.n4"],
        "jpdoracle.jpd_feasible_s.n5": inclusive["jpdoracle.jpd_feasible.n5"],
        "simplex.phase1_dense_s": inclusive["simplex.phase1_dense"],
        "simplex.phase1_exact_s": inclusive["simplex.phase1_exact"],
        "jpdoracle.lp_pattern_hits": lp_cache.hits,
        "jpdoracle.lp_pattern_misses": lp_cache.misses,
        "jpdoracle.feasible_count": sum(1 for r in results if r is not None and r.feasible),
        "jpdoracle.infeasible_count": sum(1 for r in results if r is not None and not r.feasible),
        "randomtests.label_sequence_s": inclusive["randomtests.label_sequence"],
        "randomtests.codes_s": inclusive["randomtests.codes"],
        "trace.untraced_s": plain["total"],
        "trace.traced_s": walls["total"],
        "trace.overhead_s": walls["total"] - plain["total"],
    }
    for kind in ("prime_index", "after_pattern", "index_arithmetic", "external_coin"):
        values[f"randomtests.selection_mask_s.{kind}"] = inclusive[
            f"randomtests.selection_mask.{kind}"
        ]
    return values


def unit_of(name: str) -> str:
    if name.endswith(("_calls", "_hits", "_misses", "_count")):
        return "count"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_per_s"):
        return "rows/s"
    return "s"


def rounds(seconds: float):
    """Round numbers for as long as the next round should end within
    ``seconds``, judged by the mean round so far; always at least one."""
    start = time.perf_counter()
    done = 0
    while True:
        yield done
        done += 1
        elapsed = time.perf_counter() - start
        if elapsed * (done + 1) / done > seconds:
            return


def trace_run(seed: int, seconds: float, work: Path) -> dict:
    """Pairs of untraced and traced passes for about ``seconds``; per-layer
    metrics are medians over the traced passes."""
    outcome = workloads.Outcome()
    samples: dict[str, list] = defaultdict(list)
    samples["cli.import_s"] = [import_seconds(work) for _ in range(3)]
    # the first in-process suite run pays one-off costs (allocator arenas,
    # lazy imports) that would otherwise land on the untraced pass
    workloads.suite_in_process(seed, work)
    for _ in rounds(seconds):
        plain, _, _ = one_pass(seed, work, outcome, traced=False)
        walls, tracers, results = one_pass(seed, work, outcome, traced=True)
        for name, value in layer_metrics(tracers, walls, plain, results, work).items():
            samples[name].append(value)
    spans = [
        {"path": path, "id": i, "name": name, "parent": parent, "start": s, "end": e}
        for path, tracer in zip(("suite", "oracle", "streams"), tracers)
        for i, name, parent, s, e in sorted(tracer.spans)
    ]
    traces = work.parent / "traces"
    traces.mkdir(exist_ok=True)
    (traces / f"trace-seed{seed}.json").write_text(json.dumps(spans))
    return workloads.result(outcome, {
        name: workloads.metric(statistics.median(v), unit_of(name))
        for name, v in sorted(samples.items())
    })
