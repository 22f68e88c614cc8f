"""Alternate the benchmark between two checkouts, one seed per pair.

Usage:

    python3 tools/bench_pairs.py DIR_A DIR_B --workload W --pairs N [--first-seed S] [--seconds T] [--trace 0|1]

DIR_A is the base (say, the parent commit) and DIR_B the change.  Pair i
runs ``perfbench/run.py --workload W --seed S+i --seconds T`` once in each
checkout, one after the other; which checkout goes first swaps from pair to
pair, so that a drift of the machine over the session falls on both sides
alike.  Each run leaves its result file in its checkout's
``.perfbench_work/results/``, and each pair prints its end-to-end metrics.
Summarise the pairs from DIR_B with

    python3 tools/bench_record.py --pr N --parent DIR_A

which writes BENCH_<N>.json and prints, per metric, both sides' medians
and quartiles and the pairs the change wins.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path


def run(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run's end-to-end metrics, from the last line that run.py prints."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{checkout}: run.py exited {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{checkout}: {result['failed']} of {result['attempted']} ops failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path, help="checkout A, the base")
    parser.add_argument("change", type=Path, help="checkout B, the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for i in range(args.pairs):
        seed, sides = args.first_seed + i, [("A", args.base), ("B", args.change)]
        if i % 2:
            sides.reverse()
        got = {side: run(checkout, args.workload, seed, args.seconds, args.trace) for side, checkout in sides}
        print(f"pair {i + 1}/{args.pairs} seed {seed} ({sides[0][0]} first): "
              + "  ".join(f"{name} {a:.4g} -> {got['B'][name]:.4g}" for name, a in got["A"].items() if name in got["B"]),
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
