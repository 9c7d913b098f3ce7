"""Run one benchmark workload and print its result as the last output line.

Usage, from the repository root:

    python3 perfbench/run.py --workload train --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the same
workload with every layer's public functions wrapped in spans and reports
the per-layer metrics instead.  The lines before the last one are for
people: the checks, and the workload's metrics under their own names.  The
last line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when every output check passed.

The package is imported from ``src/`` of the same checkout, so the program
measured is the one next to this file, not an installed copy.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Pinned before numpy is imported.  The matrices are tiny, and on a 2-core
# machine training ran faster with one BLAS thread than with two.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "shieldrl" / "__init__.py").is_file():
        print(f"error: no shieldrl sources under {src}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(src), str(ROOT)]

    from perfbench import workloads

    outcome, metrics = workloads.run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, ok, detail in outcome.checks:
        print(f"  check {'ok  ' if ok else 'FAIL'} {name}" + (f"  ({detail})" if detail else ""))
    print(f"  operations attempted {outcome.attempted}  failed {outcome.failed}")
    # Workload metrics under their own names; traced, they show the overhead.
    shown = {**outcome.named, **metrics} if args.trace else outcome.named
    for name, (value, unit) in shown.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    result = {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
