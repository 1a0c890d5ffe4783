"""The benchmark's traced run wraps contexcert functions by name.

``benchmark/tracing.py`` replaces each ``(owner, attr)`` of its ``PLAN``
with a wrapper and rewraps ``LabelSequence.codes`` as a cached property, so
renaming or dropping one of these names breaks only ``--trace 1``.  These
checks catch that here.
"""

import functools
import importlib
from pathlib import Path

import pytest

BENCHMARK_DIR = Path(__file__).resolve().parent.parent / "benchmark"


@pytest.fixture(scope="module")
def tracing():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCHMARK_DIR))
        yield importlib.import_module("tracing")


def test_every_plan_name_resolves(tracing):
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _ in tracing.PLAN
        if not callable(getattr(owner, attr, None))
    ]
    assert not missing


def test_codes_is_a_cached_property():
    from contexcert.randomtests import LabelSequence

    assert isinstance(vars(LabelSequence).get("codes"), functools.cached_property)


@pytest.fixture(scope="module")
def singlet_files(tmp_path_factory):
    from contexcert import cli

    work = tmp_path_factory.mktemp("traced")
    csv = work / "d.csv"
    argv = ["generate", "singlet", "--angles", "0,1.5707963,0.7853982,2.3561945",
            "--n", "3000", "--seed", "5", "--out", str(csv)]
    assert cli.main(argv) == 0
    return work, csv, work / "d.scenario.json"


def test_traced_full_suite_writes_the_untraced_report(tracing, singlet_files):
    from contexcert import cli

    work, csv, scenario = singlet_files
    argv = ["full-suite", "--data", str(csv), "--scenario", str(scenario), "--seed", "2"]
    assert cli.main([*argv, "--out", str(work / "plain.json")]) == 0
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        assert cli.main([*argv, "--out", str(work / "traced.json")]) == 0
    names = {name for _, name, _, _, _ in tracer.spans}
    assert {"cli.main", "suite.run_full_suite", "suite.extract_streams"} <= names
    assert (work / "traced.json").read_bytes() == (work / "plain.json").read_bytes()


def test_dataset_streams_never_call_the_traced_codes(tracing, singlet_files):
    from contexcert import dataio, suite

    _, csv, scenario = singlet_files
    dataset = dataio.ingest(csv, scenario)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        streams = suite.extract_streams(dataset)
        assert all(len(seq.codes) == 3000 for seq in streams.values())
        suite.run_full_suite(dataset, suite.RunConfig(seed=2))
    names = [name for _, name, _, _, _ in tracer.spans]
    assert "suite.extract_streams" in names
    assert "randomtests.codes" not in names
