"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of dense-small, dense-large, tree-model, white-noise-mc, or
``all`` to run each in turn in its own process.  Run it from anywhere; it
benchmarks the package under ``src/`` of the checkout it sits in.  The last
line of standard output is the result as one JSON object; a full record per
run is written under ``.perfbench/``.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import harness  # noqa: E402  (needs the path set above)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*harness.WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "noisespectra" / "__init__.py").is_file():
        print(f"error: no noisespectra package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return harness.main_all(__file__, args.seed, args.seconds, bool(args.trace))
    return harness.main_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
