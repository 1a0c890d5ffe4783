"""Child-process helpers for the benchmark.

    python3 benchmark/probe.py setup <workload>   # import plus one small warm-up call
    python3 benchmark/probe.py import-time        # prints seconds to import contexcert.cli
    python3 benchmark/probe.py gauge              # a fixed job that imports nothing of contexcert
    python3 benchmark/probe.py run <result.json> <argv...>

``run`` starts argv, waits for it and writes its wall seconds, peak RSS and
exit code to result.json.  Linux carries a process's RSS at exec into its
ru_maxrss, so a command started straight from the (large) benchmark process
would report at least the benchmark's own RSS; started from this small
process, it reports its own peak.  Run with ``src`` on PYTHONPATH.

``gauge`` is the speed gauge that CLI times are scaled by (``Run._cli`` in
``workloads.py``): a fresh interpreter imports numpy, builds a fixed
dataset-like text, parses it with the csv module and counts its cells, about
0.45 s of work that does not change with the program.
"""

from __future__ import annotations

import csv
import io
import json
import random
import resource
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction

GAUGE_ROWS = 70_000


def warm_up(workload: str) -> None:
    if workload == "suite-singlet-400k":
        import contexcert.cli  # noqa: F401  every CLI process pays exactly this
    elif workload == "oracle-cycles":
        from contexcert import jpdoracle

        for n, exact in ((3, False), (4, False), (5, False), (3, True), (4, True)):
            ids = tuple(f"X{i + 1}" for i in range(n))
            corr = Fraction(-1, 2) if exact else -0.5
            constraints = tuple(
                ((ids[i], ids[(i + 1) % n]),
                 jpdoracle.pair_table_from_correlation((ids[i], ids[(i + 1) % n]), corr, exact))
                for i in range(n)
            )
            system = jpdoracle.MarginalConstraintSystem(variables=ids, constraints=constraints)
            jpdoracle.jpd_feasible(system, exact=exact)
    elif workload == "randomness-streams":
        from contexcert import randomtests, suite

        seq = randomtests.LabelSequence.from_values([1, -1, -1, 1] * 250, (1, -1))
        randomtests.randomness_test(seq, suite.default_battery(seq, 0))
        randomtests.stabilization_profile(seq, 1, [10, 100, 1000])
    else:
        raise SystemExit(f"unknown workload {workload!r}")


def gauge() -> None:
    import numpy  # noqa: F401  every CLI process imports it

    rng = random.Random(0)
    settings = ("A1+B1", "A1+B2", "A2+B1", "A2+B2")
    text = "setting;outcomes\n" + "".join(
        f"{rng.choice(settings)};{rng.choice('+-')}1,{rng.choice('+-')}1\n"
        for _ in range(GAUGE_ROWS)
    )
    reader = csv.reader(io.StringIO(text), delimiter=";")
    next(reader)
    cells = Counter(
        (setting, tuple(int(v) for v in outcomes.split(","))) for setting, outcomes in reader
    )
    json.dumps(sorted((setting, values, n) for (setting, values), n in cells.items()))


if __name__ == "__main__":
    if sys.argv[1:2] == ["import-time"]:
        start = time.perf_counter()
        import contexcert.cli  # noqa: F401

        print(time.perf_counter() - start)
    elif sys.argv[1:] == ["gauge"]:
        gauge()
    elif sys.argv[1:2] == ["setup"] and len(sys.argv) == 3:
        warm_up(sys.argv[2])
    elif sys.argv[1:2] == ["run"] and len(sys.argv) > 3:
        start = time.perf_counter()
        code = subprocess.run(sys.argv[3:]).returncode
        seconds = time.perf_counter() - start
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        with open(sys.argv[2], "w") as out:
            json.dump({"seconds": seconds, "peak_rss_mb": peak_kb / 1024.0, "code": code}, out)
    else:
        raise SystemExit(__doc__)
