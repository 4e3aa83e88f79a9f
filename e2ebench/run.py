"""Benchmark of record: run one workload, print every metric.

Usage, from the root of a checkout::

    python3 e2ebench/run.py --workload paper-eval --seed 1 --seconds 45

``--trace 0`` (the default) prints the end-to-end metrics; ``--trace 1``
prints the per-layer metrics of a separate traced measurement. A
human-readable table goes first; the last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. Scratch files live in ``.e2ebench_work/`` under the
checkout and are removed on exit. See ``e2ebench/README.md`` for the
workloads and the metric definitions.
"""

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure for at most about this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: one timed set-up, run in a fresh interpreter.
    parser.add_argument("--setup-into", type=Path, default=None,
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"e2ebench: {src / 'repro'} is missing; run from the root of "
              "a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT)]
    if args.setup_into is not None:
        from e2ebench import suite
        suite.setup(suite.WORKLOADS[args.workload], args.seed,
                    args.setup_into)
        return 0
    from e2ebench import harness
    return harness.run(args.workload, args.seed, args.seconds,
                       bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
