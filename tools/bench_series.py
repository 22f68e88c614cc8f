"""Measure the series walks and add them to BENCH_<pr>.json.

Usage, from the root of a checkout:

    python3 tools/bench_series.py --pr N [--parent DIR] [--repeats R] [--warm W]

Times, per checkout (this one, and ``--parent DIR`` if given), one call of
each walk in ``WALKS``: the long series that the envelope predicts, the
pinned ``moment-table`` query ``ll-q2-long-series``, and two exponential
series that fail early.  Each repeat is a fresh child process per checkout,
the two run one after the other, and which goes first swaps from repeat to
repeat.  A child times each walk's first call (``cold``: the stream and its
kept prefix are formed in it) and then W more (``warm``: their median, as a
workload with warm caches sees it).  The section records the median over R
repeats of each, in microseconds per call.

The result goes under ``series_layer`` in BENCH_<N>.json, which
``tools/bench_record.py`` keeps when it rewrites the file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# name: (call, a, r); the moment calls pin method="series_at_zero"
WALKS = {
    "ll-2000-series-at-zero": ("ll", [2000.0, 0.5], 0.5),
    "series-at-one-2-2-1.95": ("at_one", [2.0, 2.0, 1.95], None),
    "series-at-zero-2000-0.5-0.5": ("at_zero", [2000.0, 0.5, 0.5], None),
    "ll-q2-long-series": ("ll", [200.0, 0.5], 0.5),
    "series-at-zero-200-0.5": ("at_zero", [200.0, 0.5], None),
    "exp-20-fails": ("exp", [20.0, 0.5], 1.5),
    "exp-2.2-r170-fails": ("exp", [2.2, 0.5, 0.5], 170.0),
}

# the child: each walk once cold, then W times warm
CHILD = r"""
import json, statistics, sys, time
from moq import Exponential, LogLogistic, Nonconvergence, moment, series_at_one, series_at_zero, validate_params

walks, warm = json.loads(sys.argv[1]), int(sys.argv[2])
calls = {
    "ll": lambda pv, r: moment(LogLogistic(1.0, 1.0), pv, r, method="series_at_zero"),
    "exp": lambda pv, r: moment(Exponential(1.0), pv, r, method="series_at_zero"),
    "at_zero": lambda pv, r: series_at_zero(pv),
    "at_one": lambda pv, r: series_at_one(pv),
}
out = {}
for name, (call, a, r) in walks.items():
    pv = validate_params(len(a), a)
    times = []
    for _ in range(1 + warm):
        t0 = time.perf_counter()
        try:
            calls[call](pv, r)
        except Nonconvergence:
            pass
        times.append(time.perf_counter() - t0)
    out[name] = {"cold": 1e6 * times[0], "warm": 1e6 * statistics.median(times[1:])}
print(json.dumps(out))
"""


def child(checkout: Path, warm: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    proc = subprocess.run([sys.executable, "-c", CHILD, json.dumps(WALKS), str(warm)], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, required=True, help="number in the output file name")
    parser.add_argument("--parent", type=Path, help="checkout measured as the 'parent'")
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--warm", type=int, default=9)
    args = parser.parse_args(argv)
    sides = {"change": ROOT} if args.parent is None else {"parent": args.parent.resolve(), "change": ROOT}
    runs: dict[str, list[dict]] = {side: [] for side in sides}
    for i in range(args.repeats):
        order = list(sides) if i % 2 == 0 else list(reversed(sides))
        for side in order:
            runs[side].append(child(sides[side], args.warm))
    section = {"repeats": args.repeats, "warm_calls": args.warm, "unit": "us per call",
               "walks": {name: {"call": call, "a": a, "r": r} for name, (call, a, r) in WALKS.items()}}
    for side, got in runs.items():
        section[side] = {name: {mode: statistics.median(run[name][mode] for run in got) for mode in ("cold", "warm")}
                         for name in WALKS}
    for name in WALKS:
        print(f"{name:30s} " + "  ".join(
            f"{side} cold {section[side][name]['cold']:9.1f} warm {section[side][name]['warm']:9.1f}" for side in runs))
    path = ROOT / f"BENCH_{args.pr}.json"
    record = json.loads(path.read_text()) if path.exists() else {"pr": args.pr}
    record["series_layer"] = section
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote series_layer to {path.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
