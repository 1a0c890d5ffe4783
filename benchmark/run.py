"""contexcert benchmark: one command, three workloads, a traced per-layer run.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src``, nothing is installed.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are every end-to-end metric; with ``--trace 1``
they are the per-layer ones from traced passes over all three paths.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
WORKLOADS = ("suite-singlet-400k", "oracle-cycles", "randomness-streams")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "contexcert" / "__init__.py").is_file():
        print(f"benchmark: no contexcert sources under {SRC}", file=sys.stderr)
        return 2
    # the program under test is the checkout's own source, never an installed copy
    sys.path[:0] = [str(BENCH_DIR), str(SRC)]
    import contexcert

    if Path(contexcert.__file__).resolve().parent != SRC / "contexcert":
        print(f"benchmark: imported contexcert from {contexcert.__file__}", file=sys.stderr)
        return 2
    import workloads

    # on SIGTERM, unwind so that children are killed and the work directory goes
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    work = BENCH_DIR / "_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.trace:
            import tracing

            result = tracing.trace_run(args.seed, args.seconds, work)
        else:
            result = workloads.run_workload(args.workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
