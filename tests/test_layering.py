"""A CLI process loads only the modules its subcommand runs.

``import contexcert`` resolves its exports on first use, and ``cli`` imports
the sampler, the oracle, the randomness battery and the suite only for the
subcommands that call them.  Each case runs ``cli.main`` in a fresh
interpreter and compares the ``contexcert`` modules it loaded with the set
that subcommand needs, so that an eager import cannot creep back.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import contexcert
from contexcert import cli

SRC = str(Path(contexcert.__file__).resolve().parent.parent)
BASE = {"cli", "dataio", "errors", "scenario", "tolerances"}
SUITE = BASE | {"_simplex", "belltests", "jpdoracle", "randomtests", "signaling", "suite"}
ANGLES = "0,1.5707963,0.7853982,2.3561945"


def loaded_modules(code: str, cwd: Path) -> list[str]:
    """The ``contexcert`` submodules a fresh interpreter holds after ``code``."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    report = "import json, sys; print(json.dumps(sorted(m for m in sys.modules if m.startswith('contexcert.'))))"
    out = subprocess.run(
        [sys.executable, "-c", f"{code}\n{report}"], cwd=cwd, env=env, capture_output=True, text=True, check=True
    )
    return json.loads(out.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    work = tmp_path_factory.mktemp("layering")
    argv = ["generate", "singlet", "--angles", ANGLES, "--n", "200", "--seed", "5", "--out", str(work / "d.csv")]
    assert cli.main(argv) == 0
    (work / "seq.txt").write_text("1\n-1\n-1\n" * 100)
    half = {"1,1": 0.25, "1,-1": 0.25, "-1,1": 0.25, "-1,-1": 0.25}
    system = {"variables": ["A", "B"], "constraints": [{"support": ["A", "B"], "probs": half}]}
    (work / "system.json").write_text(json.dumps(system))
    return work


def test_importing_the_package_loads_no_submodule(tmp_path):
    assert loaded_modules("import contexcert; assert contexcert.__version__", tmp_path) == []


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["generate", "singlet", "--angles", ANGLES, "--n", "20", "--seed", "1", "--out", "g.csv"],
         BASE | {"quantumgen"}),
        (["oracle", "--constraints", "system.json"], BASE | {"_simplex", "jpdoracle"}),
        (["randomness", "--stream", "seq.txt", "--seed", "1"], BASE | {"randomtests"}),
        (["test", "chsh", "--data", "d.csv", "--scenario", "d.scenario.json"], SUITE),
        (["full-suite", "--data", "d.csv", "--scenario", "d.scenario.json", "--seed", "1"], SUITE),
    ],
    ids=["generate", "oracle", "randomness", "test", "full-suite"],
)
def test_a_subcommand_loads_only_the_modules_it_runs(argv, expected, work):
    code = f"import contexcert.cli; assert contexcert.cli.main({argv!r}) == 0, 'exit status'"
    assert loaded_modules(code, work) == sorted(f"contexcert.{name}" for name in expected)
