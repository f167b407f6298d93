#!/usr/bin/env python3
"""isocg benchmark: SS-CG time-to-solution at two sizes and a CLI round.

Run from the root of a checkout::

    python3 perfbench/run.py --workload ss-spectrum-512 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --pin    # re-pin every operation's output digest

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer ones from a separate traced run.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# One BLAS thread (nproc is 2): the generators' BLAS calls stay steady and reproducible.
BLAS_THREADS = "1"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", help="a workload name from BENCHMARK.json")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--pin", action="store_true", help="re-pin the output digests and exit")
    args = p.parse_args(argv)
    if not args.pin and args.workload is None:
        p.error("--workload is required")
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    needed = [ROOT / "src" / "isocg" / "__init__.py", ROOT / "tests" / "oracles.py",
              ROOT / "BENCHMARK.json"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"perfbench: not a checkout of isocg, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    src = str(ROOT / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    sys.path[:0] = [src, str(ROOT / "tests")]

    import bench  # numpy is first imported here, after the thread count is set

    if args.pin:
        return bench.pin()
    if args.workload not in bench.wl_mod.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(bench.wl_mod.WORKLOADS)}", file=sys.stderr)
        return 2
    return bench.main(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
