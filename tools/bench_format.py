"""Measure the CLI's output layer and add it to BENCH_<pr>.json.

Usage, from the root of a checkout:

    python3 tools/bench_format.py --pr N [--parent DIR] [--repeats R]

Two numbers per checkout (this one, and ``--parent DIR`` if given):

* ``ns_per_value``: the time ``moq sample`` spends after its sampler
  returns -- formatting the body and writing the file -- per value, at
  n = 10^3, 10^5 and 10^6.  Each run is a fresh child process, which stubs
  the sampler with a batch of the benchmark's ``draw`` spec drawn once, and
  times from the stub's return to the return of ``moq.cli.main``: ``cold``
  is that first call, as every CLI run pays it, ``warm`` a second call in
  the same process.  Medians over R runs.
* ``peak_rss_mb``: the peak RSS of a ``python -m moq.cli sample --n 1000000``
  child per sampler, from ``os.wait4``; median over R runs.  (The
  ``cli-export`` workload's ``peak_rss_mb`` is that of the runner itself.)

The result goes under ``format_layer`` in BENCH_<N>.json, which
``tools/bench_record.py`` keeps when it rewrites the file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIZES = (1_000, 100_000, 1_000_000)
SAMPLERS = ("inverse-cdf", "accept-reject", "random-maxima")
SPEC = {"baseline": {"family": "weibull", "scale": 1.0, "shape": 1.5}, "a": [2.0, 0.3, 0.9]}

# the child: one cold and one warm CLI call with the sampler stubbed
CHILD = r"""
import json, sys, time
import moq.cli as cli
from moq import ExtendedDistribution, load_spec
from moq.sampling import RandomSource, sample_inverse_cdf

spec, out, n = sys.argv[1], sys.argv[2], int(sys.argv[3])
loaded = load_spec(spec)
batch = sample_inverse_cdf(ExtendedDistribution(loaded.baseline, loaded.pv), RandomSource(1), n)
returned = []

def stub(ed, rng, size):
    returned.append(time.perf_counter())
    return batch

cli.sample_inverse_cdf = stub
times = []
for _ in range(2):
    assert cli.main(["sample", "--spec", spec, "--n", str(n), "--seed", "1", "--out", out]) == 0
    times.append(time.perf_counter() - returned[-1])
print(json.dumps(times))
"""


def _env(checkout: Path) -> dict:
    env = dict(os.environ)
    env.pop("MOQ_SEED", None)
    env["PYTHONPATH"] = str(checkout / "src")
    return env


def output_layer(checkout: Path, spec: str, out: str, repeats: int) -> dict:
    """Median ns per value of the cold and the warm call, per n."""
    result = {}
    for n in SIZES:
        runs = []
        for _ in range(repeats):
            proc = subprocess.run([sys.executable, "-c", CHILD, spec, out, str(n)], env=_env(checkout),
                                  capture_output=True, text=True, check=True)
            runs.append(json.loads(proc.stdout))
        result[str(n)] = {
            "cold": 1e9 * statistics.median(r[0] for r in runs) / n,
            "warm": 1e9 * statistics.median(r[1] for r in runs) / n,
        }
    return result


def peak_rss(checkout: Path, spec: str, out: str, repeats: int) -> dict:
    """Median peak RSS in MB of ``moq sample --n 1000000`` per sampler."""
    result = {}
    for sampler in SAMPLERS:
        runs = []
        for seed in range(1, repeats + 1):
            argv = [sys.executable, "-m", "moq.cli", "sample", "--spec", spec, "--sampler", sampler,
                    "--n", "1000000", "--seed", str(seed), "--out", out]
            proc = subprocess.Popen(argv, env=_env(checkout))
            _, status, usage = os.wait4(proc.pid, 0)
            if os.waitstatus_to_exitcode(status) != 0:
                sys.exit(f"{checkout}: {' '.join(argv[1:])} failed")
            runs.append(usage.ru_maxrss / 1024)
        result[sampler] = statistics.median(runs)
    return result


def measure(checkout: Path, repeats: int) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        spec, out = str(Path(tmp) / "spec.json"), str(Path(tmp) / "draws.txt")
        Path(spec).write_text(json.dumps(SPEC))
        layer = {"ns_per_value": output_layer(checkout, spec, out, repeats),
                 "peak_rss_mb": peak_rss(checkout, spec, out, repeats)}
    for n, row in layer["ns_per_value"].items():
        print(f"{checkout.name:12s} n={n:>8s} cold {row['cold']:7.1f} ns/value  warm {row['warm']:7.1f} ns/value")
    for sampler, mb in layer["peak_rss_mb"].items():
        print(f"{checkout.name:12s} sample --n 1000000 --sampler {sampler}: peak RSS {mb:.1f} MB")
    return layer


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, required=True, help="number in the output file name")
    parser.add_argument("--parent", type=Path, help="checkout measured as the 'parent'")
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)
    section = {"sizes": list(SIZES), "repeats": args.repeats, "spec": SPEC}
    if args.parent is not None:
        section["parent"] = measure(args.parent.resolve(), args.repeats)
    section["change"] = measure(ROOT, args.repeats)
    path = ROOT / f"BENCH_{args.pr}.json"
    record = json.loads(path.read_text()) if path.exists() else {"pr": args.pr}
    record["format_layer"] = section
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote format_layer to {path.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
