"""Measure the series walks and the moment quadrature, and add them to BENCH_<pr>.json.

Usage, from the root of a checkout:

    python3 tools/bench_series.py --pr N [--parent DIR] [--repeats R] [--warm W]

Times, per checkout (this one, and ``--parent DIR`` if given), one call of
each walk in ``WALKS``: the long series that the envelope predicts, the
pinned ``moment-table`` query ``ll-q2-long-series``, and two exponential
series that fail early; and one ``moment()`` call of each query in
``QUADRATURES``, which the tanh-sinh rule answers at 193, 385 and 769
nodes (the last through the mask of overflowed powers), and the
``moment-table`` query ``gw-q2-binomial``.  Each repeat is a fresh child
process per checkout, the two run one after the other, and which goes
first swaps from repeat to repeat.  A child times each call's first run
(``cold``: the stream and its kept prefix, or the quadrature's nodes,
abscissae and T', are formed in it) and then W more (``warm``: their
median, as a workload with warm caches sees it).  Each section records
the median over R repeats of each, in microseconds per call.

The first child of each checkout also runs ``SWEEP`` seeded ``auto``
queries (four families, q 1 to 8) and counts the nodes at which each
quadrature stops, or raises ToleranceNotMet: the traffic for which the
rule's first call is sized.

The results go under ``series_layer`` and ``quadrature_layer`` in
BENCH_<N>.json, which ``tools/bench_record.py`` keeps when it rewrites the
file.
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

# name: (baseline, a, r); moment(method="auto"), the rule's nodes in the comment
QUADRATURES = {
    "weib-q4-scaling": (["weibull", 1.0, 0.8], [2.2, 0.6, 0.7, 0.9], 0.5),  # 193
    "exp-q5-series": (["exponential", 1.0], [3.0, 0.3, 0.4, 0.9, 0.6], 2.0),  # 385
    "exp-r120-masked": (["exponential", 1.0], [1.5, 0.5], 120.0),  # 769, the outer powers overflow
    "gw-q2-binomial": (["generalized_weibull", 1.0, 0.5, 2.0], [1.5, 0.5], 3.0),  # 385
}
SWEEP = 1000

# the child: each walk and quadrature once cold, then W times warm; the
# sweep's stop nodes where asked
CHILD = r"""
import collections, json, statistics, sys, time
import numpy as np
from moq import (Exponential, GeneralizedWeibull, LogLogistic, MoqError, Nonconvergence, ToleranceNotMet, Weibull,
                 moment, moments, series_at_one, series_at_zero, validate_params)

walks, quads, warm, sweep = json.loads(sys.argv[1]), json.loads(sys.argv[2]), int(sys.argv[3]), int(sys.argv[4])
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
families = {"exponential": Exponential, "weibull": Weibull, "generalized_weibull": GeneralizedWeibull}
quad_out = {}
for name, ((family, *params), a, r) in quads.items():
    baseline, pv = families[family](*params), validate_params(len(a), a)
    for cache in (moments._de_level, moments._de_abscissae, moments._de_deriv):
        cache.cache_clear()
    times = []
    for _ in range(1 + warm):
        t0 = time.perf_counter()
        res = moment(baseline, pv, r)
        times.append(time.perf_counter() - t0)
    quad_out[name] = {"cold": 1e6 * times[0], "warm": 1e6 * statistics.median(times[1:]),
                      "nodes": res.terms_used, "method_used": res.method_used}
stops = collections.Counter()
quadrature = moments._moment_quadrature

def counted(*args):
    try:
        res = quadrature(*args)
    except ToleranceNotMet as exc:
        stops[str(exc).split("after ")[1].split()[0] + " raised"] += 1
        raise
    stops[str(res.terms_used)] += 1
    return res

moments._moment_quadrature = counted
rng = np.random.default_rng(31)
for i in range(sweep):
    q = int(rng.integers(1, 9))
    a = tuple(float(v) for v in np.exp(rng.uniform(-2.0, 2.0, q)))
    scale, shape, shape2 = (float(v) for v in np.exp(rng.uniform(-1.0, 1.0, 3)))
    baseline = (Exponential(scale), Weibull(scale, shape), GeneralizedWeibull(scale, shape, shape2),
                LogLogistic(scale, shape))[i % 4]
    r = shape * float(rng.uniform(-0.9, 0.9)) if i % 4 == 3 else float(rng.uniform(-0.5, 3.0))
    try:
        moment(baseline, validate_params(q, a), r)
    except MoqError:  # ToleranceNotMet, counted above, or an order that does not exist
        pass
print(json.dumps({"walks": out, "quadratures": quad_out, "stops": dict(stops)}))
"""


def child(checkout: Path, warm: int, sweep: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    argv = [sys.executable, "-c", CHILD, json.dumps(WALKS), json.dumps(QUADRATURES), str(warm), str(sweep)]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def _section(runs: dict[str, list[dict]], table: str, names) -> dict:
    """Per side, the median over the repeats of each call's cold and warm time."""
    return {side: {name: {mode: statistics.median(run[table][name][mode] for run in got) for mode in ("cold", "warm")}
                   for name in names} for side, got in runs.items()}


def _print(section: dict, names) -> None:
    for name in names:
        print(f"{name:30s} " + "  ".join(
            f"{side} cold {section[side][name]['cold']:9.1f} warm {section[side][name]['warm']:9.1f}"
            for side in ("parent", "change") if side in section))


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
            runs[side].append(child(sides[side], args.warm, SWEEP if i == 0 else 0))
    series = {"repeats": args.repeats, "warm_calls": args.warm, "unit": "us per call",
              "walks": {name: {"call": call, "a": a, "r": r} for name, (call, a, r) in WALKS.items()},
              **_section(runs, "walks", WALKS)}
    quad = {"repeats": args.repeats, "warm_calls": args.warm, "unit": "us per call",
            "queries": {name: {"baseline": b, "a": a, "r": r, "method": "auto",
                               **{k: runs["change"][0]["quadratures"][name][k] for k in ("nodes", "method_used")}}
                        for name, (b, a, r) in QUADRATURES.items()},
            **_section(runs, "quadratures", QUADRATURES),
            "sweep": {"queries": SWEEP, "seed": 31, "method": "auto", "tol": 1e-10,
                      **{f"stop_nodes_{side}": dict(sorted(got[0]["stops"].items(), key=lambda kv: int(kv[0].split()[0])))
                         for side, got in runs.items()}}}
    _print(series, WALKS)
    _print(quad, QUADRATURES)
    print("stop nodes of the sweep:", quad["sweep"])
    path = ROOT / f"BENCH_{args.pr}.json"
    record = json.loads(path.read_text()) if path.exists() else {"pr": args.pr}
    record["series_layer"], record["quadrature_layer"] = series, quad
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote series_layer and quadrature_layer to {path.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
