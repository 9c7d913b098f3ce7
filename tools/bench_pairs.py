"""Run one benchmark workload on two checkouts in alternating pairs and compare them.

Usage, from anywhere:

    python tools/bench_pairs.py PARENT CHANGE --workload train --pairs 10 \\
        [--seed 0] [--out BENCH_<label>.json]

``PARENT`` and ``CHANGE`` are two checkouts of the repository.  Each pair
runs ``python3 perfbench/run.py --workload W --seed S --seconds T --trace 0``
once in each checkout, where ``T`` is the ``run_seconds`` of
``BENCHMARK.json``, which both checkouts must agree on.  The parent runs
first in even pairs and second in odd ones, so a drift over the session
weighs on both sides alike.  Only ``run.py``'s last output line, its JSON
result, is read: nothing under ``perfbench/`` is imported.

For every end-to-end metric the script prints each side's median and
quartiles, the ratio of the medians and how many pairs each side read
lower in, and applies two rules, with the ``better`` direction and
``bound`` of that metric in the change's ``BENCHMARK.json``:

  * ``claim_rule_met``: the change is better in at least 9 of every 10
    pairs (a tie counts for neither side), and its median is better than
    the parent's by more than the parent's interquartile range;
  * ``within_bound``: the change's median is no worse than the parent's
    by more than ``bound``, a fraction of the parent's median.
  With ``--out`` it also writes the comparison as a ``BENCH_*.json``
file, labelled by its name (``BENCH_<label>.json``): one entry per
``(workload, seed)`` under ``workloads``, with every
run's value, the median and the quartiles (``statistics.quantiles``,
exclusive method) and the operations attempted and failed, summed over the
runs.  An existing file keeps its other entries and its notes, so a
multi-workload comparison is built one call at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout measured as the parent")
    parser.add_argument("change", type=Path, help="checkout measured as the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path, help="BENCH_<label>.json file to write or update")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if args.out is not None and not args.out.stem.startswith("BENCH_"):
        parser.error("--out must be named BENCH_<label>.json")
    seconds = set()
    for side in SIDES:
        checkout = getattr(args, side)
        if not (checkout / "perfbench" / "run.py").is_file():
            parser.error(f"{checkout} has no perfbench/run.py")
        seconds.add(json.loads((checkout / "BENCHMARK.json").read_text())["run_seconds"])
    if len(seconds) != 1:
        parser.error(f"the checkouts' BENCHMARK.json disagree on run_seconds: {sorted(seconds)}")
    args.seconds = seconds.pop()
    return args


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """``run.py``'s JSON result for one run in ``checkout``."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{checkout}: run.py exited {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        print(f"  warning: {checkout}: a workload check failed", file=sys.stderr)
    return result


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "runs": [round(v, 4) for v in values]}


def rules(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """``claim_rule_met`` and ``within_bound`` (see the module docstring) for
    one metric's paired runs; ``better`` is ``"lower"`` or ``"higher"``."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    p, c = summary(parent), summary(change)
    gap = sign * (p["median"] - c["median"])
    return {
        "claim_rule_met": 10 * wins >= 9 * len(parent) and gap > p["q3"] - p["q1"],
        "within_bound": -gap <= bound * abs(p["median"]),
    }


def compare(results: dict[str, list[dict]], end_to_end: dict[str, dict]) -> tuple[dict, dict]:
    """The metrics entry of one workload from both sides' run results, and
    the number of pairs in which the parent read lower, per metric.
    ``end_to_end`` maps a metric's name to its ``BENCHMARK.json`` entry; the
    metrics it names also get the results of :func:`rules`."""
    pairs = len(results["parent"])
    metrics, parent_lower = {}, {}
    for name, first in results["parent"][0]["metrics"].items():
        values = {side: [r["metrics"][name]["value"] for r in results[side]] for side in SIDES}
        entry = {"unit": first["unit"], **{side: summary(values[side]) for side in SIDES}}
        entry["ratio_of_medians"] = entry["change"]["median"] / entry["parent"]["median"]
        lower = sum(c < p for p, c in zip(values["parent"], values["change"]))
        entry["change_lower_in_pairs"] = f"{lower}/{pairs}"
        if name in end_to_end:
            spec = end_to_end[name]
            entry.update(rules(values["parent"], values["change"], spec["better"], spec["bound"]))
        metrics[name] = entry
        parent_lower[name] = sum(p < c for p, c in zip(values["parent"], values["change"]))
    return metrics, parent_lower


def machine() -> dict:
    import numpy as np

    cpu = platform.processor() or "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        names = [ln.split(":", 1)[1].strip() for ln in cpuinfo.read_text().splitlines()
                 if ln.startswith("model name")]
        cpu = names[0] if names else cpu
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu": cpu,
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": 1,  # run.py pins it before numpy loads
    }


def write_bench(path: Path, seconds: float, entry: dict) -> None:
    bench = json.loads(path.read_text()) if path.is_file() else {"notes": []}
    bench.update(
        label=path.stem.removeprefix("BENCH_"),
        command=f"python3 perfbench/run.py --workload <w> --seed <s> --seconds {seconds:g} "
        "--trace 0",
        order="parent and change alternate which runs first, pair by pair",
        machine=machine(),
    )
    key = (entry["workload"], entry["seed"])
    kept = [w for w in bench.get("workloads", []) if (w["workload"], w["seed"]) != key]
    bench["workloads"] = [*kept, entry]
    # Key order of the earlier BENCH files: notes last.
    bench["notes"] = bench.pop("notes", [])
    path.write_text(json.dumps(bench, indent=1) + "\n")


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    results: dict[str, list[dict]] = {side: [] for side in SIDES}
    for i in range(args.pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for side in order:
            result = run_once(getattr(args, side), args.workload, args.seed, args.seconds)
            results[side].append(result)
            shown = "  ".join(f"{k} {v['value']:.4g}" for k, v in result["metrics"].items())
            print(f"pair {i + 1}/{args.pairs} {side:6s} {shown}", file=sys.stderr, flush=True)

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics, parent_lower = compare(results, {m["name"]: m for m in spec["end_to_end"]})
    print(f"{args.workload}  seed {args.seed}  {args.pairs} pairs  --seconds {args.seconds:g}")
    for name, m in metrics.items():
        p, c = m["parent"], m["change"]
        print(
            f"  {name:12s} parent {p['median']:.4g} [{p['q1']:.4g}, {p['q3']:.4g}]"
            f"  change {c['median']:.4g} [{c['q1']:.4g}, {c['q3']:.4g}] {m['unit']}"
            f"  ratio {m['ratio_of_medians']:.3f}"
            f"  lower in pairs: change {m['change_lower_in_pairs']},"
            f" parent {parent_lower[name]}/{args.pairs}"
        )
        if "claim_rule_met" in m:
            print(f"  {'':12s} claim rule met: {m['claim_rule_met']}"
                  f"  within bound: {m['within_bound']}")
    operations = {
        side: {key: sum(r[key] for r in results[side]) for key in ("attempted", "failed")}
        for side in SIDES
    }
    for side in SIDES:
        print(f"  operations {side}: attempted {operations[side]['attempted']}"
              f"  failed {operations[side]['failed']}")
    if args.out is not None:
        entry = {
            "workload": args.workload, "seed": args.seed, "pairs": args.pairs,
            "operations": operations, "metrics": metrics,
        }
        write_bench(args.out, args.seconds, entry)
        print(f"  wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
