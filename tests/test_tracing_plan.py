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
