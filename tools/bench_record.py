"""Write BENCH_<pr>.json at the repo root from the benchmark's result files.

Usage, from the root of a checkout:

    python3 tools/bench_record.py --pr N [--parent DIR]

``perfbench/run.py`` leaves one result file per workload, seed and trace
mode in ``.perfbench_work/results/``.  This reads the full-size ones (and
names each file of another size on stderr: a smaller run of the same seed,
as the benchmark's self-test makes, overwrites a full-size one) and
writes, per workload, the median of each metric over the seeds, with every
run's value in seed order, the ops attempted and failed and the probes that
failed, and the median latency of each op kind (``op_median_ms``, over
every op of every run, and ``op_median_ms_runs``, per run): the end-to-end
metrics of the untraced runs under ``workloads``, the per-layer metrics of
the traced runs under ``layers``.  It adds the environment line of the
runs and the line count of ``src/moq``.
``--parent DIR`` adds the same summary made from the results of another
checkout (the parent commit, run on the same machine), so that the file
holds a before/after pair, and under ``pairs`` compares the untraced runs
of the seeds that both sides ran, as ``tools/bench_pairs.py`` makes them:
per workload and end-to-end metric of BENCHMARK.json, each side's
quartiles (q1, median, q3) and the pairs that the change wins, better in
the metric's own direction; and, under ``op_median_ms``, the same for each
op kind's median latency per run (``op_median_ms_runs``), where lower is
better.  It prints the comparison too.
``--control DIR_A DIR_B`` adds, under ``control_pairs``, the same comparison
between two checkouts of one commit (an A/A batch of ``tools/bench_pairs.py``
with seeds of its own): how far the pairs spread with no code changed, the
scale against which a no-move verdict of the change is read.
Every section of an existing file that this run does not write is kept:
``format_layer`` from ``tools/bench_format.py``, ``series_layer`` from
``tools/bench_series.py``, and ``control_pairs`` when ``--control`` is not
given.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def src_loc(checkout: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((checkout / "src" / "moq").glob("*.py")))


def _records(checkout: Path, trace: int) -> dict[str, list[dict]]:
    """Full-size result records of one trace mode, per workload, in seed order."""
    runs: dict[str, list[dict]] = {}
    for path in sorted((checkout / ".perfbench_work" / "results").glob(f"*-trace{trace}.json")):
        record = json.loads(path.read_text())
        if record["size"] == "full":
            runs.setdefault(record["workload"], []).append(record)
        else:
            print(f"skipped {path.name}: {record['workload']} seed {record['seed']} is size {record['size']!r}",
                  file=sys.stderr)
    return {name: sorted(records, key=lambda r: r["seed"]) for name, records in sorted(runs.items())}


def _medians(records: list[dict]) -> dict:
    metrics = {}
    for metric in dict.fromkeys(m for r in records for m in r["metrics"]):
        runs_with = [r["metrics"][metric] for r in records if metric in r["metrics"]]
        values = [entry["value"] for entry in runs_with]
        metrics[metric] = {"median": statistics.median(values), "unit": runs_with[0]["unit"], "runs": values}
    return {
        "seeds": [r["seed"] for r in records],
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "failed_probes": sorted({p["name"] for r in records for p in r["probes"] if not p["passed"]}),
        "metrics": metrics,
        "op_median_ms": _op_medians(records),
        "op_median_ms_runs": _op_median_runs(records),
    }


def _op_medians(records: list[dict]) -> dict[str, float]:
    """Median latency in ms of each op kind, over every op of every run."""
    latencies: dict[str, list[float]] = {}
    for record in records:
        ops = record.get("ops", {})
        for kind, seconds in zip(ops.get("kind", []), ops.get("latency_s", [])):
            latencies.setdefault(kind, []).append(seconds)
    return {kind: 1e3 * statistics.median(values) for kind, values in sorted(latencies.items())}


def _op_median_runs(records: list[dict]) -> dict[str, list[float | None]]:
    """Each op kind's median latency in ms per run, in seed order (None
    where a run has no op of that kind)."""
    per_run = [_op_medians([record]) for record in records]
    kinds = sorted({kind for medians in per_run for kind in medians})
    return {kind: [medians.get(kind) for medians in per_run] for kind in kinds}


def summarize(checkout: Path) -> dict:
    """Medians per workload over the untraced and the traced result files of ``checkout``."""
    untraced, traced = _records(checkout, 0), _records(checkout, 1)
    if not untraced:
        raise SystemExit(f"no untraced results under {checkout / '.perfbench_work' / 'results'}")
    envs = []
    for records in [*untraced.values(), *traced.values()]:
        for record in records:
            if record["env"] not in envs:
                envs.append(record["env"])
    return {
        "src_loc": src_loc(checkout),
        "env": envs,
        "workloads": {name: _medians(records) for name, records in untraced.items()},
        "layers": {name: _medians(records) for name, records in traced.items()},
    }


def _paired(old: dict, new: dict, lower: bool) -> dict | None:
    """Quartiles (q1, median, q3) of each side over the seeds both ran, and
    the pairs the change wins; None for fewer than two pairs.  ``old`` and
    ``new`` map seeds to values."""
    pairs = [(old[seed], new[seed]) for seed in old if seed in new and None not in (old[seed], new[seed])]
    if len(pairs) < 2:
        return None
    return {
        "parent": statistics.quantiles([x for x, _ in pairs], n=4, method="inclusive"),
        "change": statistics.quantiles([y for _, y in pairs], n=4, method="inclusive"),
        "wins": sum((y < x) if lower else (y > x) for x, y in pairs),
        "pairs": len(pairs),
    }


def _print_row(name: str, label: str, row: dict) -> None:
    pq, cq = row["parent"], row["change"]
    print(f"{name:12s} {label:24s} parent {pq[1]:.4g} [{pq[0]:.4g}, {pq[2]:.4g}]  "
          f"change {cq[1]:.4g} [{cq[0]:.4g}, {cq[2]:.4g}]  {cq[1] / pq[1] - 1.0:+.1%}  "
          f"wins {row['wins']}/{row['pairs']}")


def compare(change: dict, parent: dict) -> dict:
    """Untraced runs paired by seed: per workload, for each end-to-end
    metric and, under ``op_median_ms``, for each op kind's median latency
    (lower is better), the quartiles of each side and the pairs the change
    wins."""
    better = {m["name"]: m["better"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    out = {}
    for name, new in change["workloads"].items():
        old = parent["workloads"].get(name)
        if old is None:
            continue
        rows = {}
        for metric, direction in better.items():
            if metric in new["metrics"] and metric in old["metrics"]:
                row = _paired(dict(zip(old["seeds"], old["metrics"][metric]["runs"])),
                              dict(zip(new["seeds"], new["metrics"][metric]["runs"])), direction == "lower")
                if row is not None:
                    rows[metric] = row
                    _print_row(name, metric, row)
        ops = {}
        for kind, runs in new["op_median_ms_runs"].items():
            row = _paired(dict(zip(old["seeds"], old["op_median_ms_runs"].get(kind, []))),
                          dict(zip(new["seeds"], runs)), True)
            if row is not None:
                ops[kind] = row
                _print_row(name, f"op {kind}", row)
        out[name] = {**rows, "op_median_ms": ops}
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, required=True, help="number in the output file name")
    parser.add_argument("--parent", type=Path, help="checkout whose results make the 'parent' summary")
    parser.add_argument("--control", type=Path, nargs=2, metavar=("DIR_A", "DIR_B"),
                        help="two checkouts of one commit whose pairs make the A/A 'control_pairs'")
    args = parser.parse_args(argv)
    out = {"pr": args.pr, "change": summarize(ROOT)}
    if args.parent is not None:
        out["parent"] = summarize(args.parent.resolve())
        out["pairs"] = compare(out["change"], out["parent"])
    if args.control is not None:
        print("control (A/A):")
        base, other = (summarize(d.resolve()) for d in args.control)
        out["control_pairs"] = compare(other, base)
    path = ROOT / f"BENCH_{args.pr}.json"
    if path.exists():  # keep what other tools wrote, and what this run does not rewrite
        out.update((name, section) for name, section in json.loads(path.read_text()).items() if name not in out)
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
