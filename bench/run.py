"""Run one dirh2 benchmark workload and print its result as one JSON line.

From the repository root:

    python3 bench/run.py --workload apply-dir2048 --seed 1 --seconds 60 --trace 0

The library is imported from ``src/`` next to this directory.  The last
line of standard output is ``{"correct", "attempted", "failed", "metrics"}``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1`` (which also writes the spans to ``bench/out/``).  An operation
that raises ends the run with exit code 1 and no result line.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="time within which rounds after the third must end")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # One BLAS thread: on two cores it compressed at n = 8192
    # faster than two (69 s against 78 s), and it leaves the second core to
    # the system instead of spinning beside the Python-bound loops.  BLAS
    # reads the count when it is loaded, so this precedes importing numpy.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import workloads
    except ImportError as exc:
        print(f"error: cannot import the library from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    result = workloads.run(
        args.workload,
        workloads.WORKLOADS[args.workload],
        args.seed,
        args.seconds,
        bool(args.trace),
        BENCH_DIR / "out",
    )
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
