"""The moq benchmark: closed-loop workloads, untraced or traced.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

``--trace 0`` runs the workload as a user would and reports the
end-to-end metrics of BENCHMARK.json; ``--trace 1`` runs a fixed amount
of the same work with spans around every moq layer and reports the
per-layer metrics.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines above it give the same numbers for people, with the run's
environment, the outcome of every probe and the error rate.  Each result
is also written to ``.perfbench_work/results/`` in the checkout.

Ops are timed one at a time; their checks, the probes and the set-up
measurement happen outside the timed region.  ``--seconds`` sets how many
passes over the workload's mix the untraced run makes: as many as take
that long at seed on the reference machine, whatever the speed of the
code under test.
"""

from __future__ import annotations

import os

# one compute thread, set before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 7
TAIL_BEYOND = 10


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def environment() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    versions = {}
    for pkg in ("numpy", "scipy", "mpmath"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = "absent"
    src_loc = sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src" / "moq").glob("*.py")))
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(), **versions,
            "src_loc": src_loc}


def _python(*args: str) -> str:
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, check=True).stdout


class SetupTimer:
    """Seconds from spawn to exit of a fresh interpreter that sets the workload up."""

    def __init__(self, wl, size: str):
        self.argv = [str(HERE / "setup_child.py"), wl.name, str(wl.seed), size, str(wl.workdir), str(ROOT)]
        self.times: list[float] = []
        _python(*self.argv)  # compiles the bytecode caches, which users do not pay per run

    def measure(self) -> None:
        start = time.perf_counter()
        _python(*self.argv)
        self.times.append(time.perf_counter() - start)


def measure_import(repeats: int) -> list[float]:
    """Seconds that ``import moq`` takes in a fresh interpreter."""
    code = (f"import sys, time; sys.path.insert(0, {str(ROOT / 'src')!r}); "
            "start = time.perf_counter(); import moq; print(time.perf_counter() - start)")
    return [float(_python("-c", code)) for _ in range(repeats)]


class Loop:
    """A closed loop with one client: the next op starts when the last has ended."""

    def __init__(self, wl, tracer=None):
        self.wl = wl
        self.tracer = tracer
        self.latencies: list[float] = []
        self.kinds: list[str] = []
        self.passes: list[int] = []
        self.values: list[int] = []
        self.failures: dict[int, str] = {}

    def run_rotation(self, r: int, inproc: bool = False, check: bool = True) -> float:
        busy = 0.0
        for op in self.wl.rotation(r, inproc=inproc):
            op_id = len(self.latencies)
            if self.tracer is not None:
                self.tracer.op_id = op_id
            start = time.perf_counter()
            try:
                out = op.run()
            except Exception as exc:  # an op that raises counts as failed
                elapsed = time.perf_counter() - start
                self.failures[op_id] = f"{type(exc).__name__}: {exc}"
                out = None
            else:
                elapsed = time.perf_counter() - start
            busy += elapsed
            self.latencies.append(elapsed)
            self.kinds.append(op.kind)
            self.passes.append(r)
            self.values.append(0 if out is None else op.values(out))
            if out is not None and check:
                why = self.wl.record(op_id, op, out)
                if why is not None:
                    self.failures[op_id] = why
        return busy


def _percentile_tail(latencies: list[float]) -> tuple[float, float] | None:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples above it."""
    n = len(latencies)
    if n <= TAIL_BEYOND:
        return None
    ordered = sorted(latencies)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def rotations_for(wl, seconds: float) -> int:
    """Passes over the mix that take about ``seconds`` of op time at seed.

    The count is fixed by ``seconds`` alone, not by how fast moq runs, so
    that every run times the same ops and the tail latency always falls
    on the same rank of the same op kinds.
    """
    if wl.tiny:
        return 2  # enough ops to define the tail latency
    return max(1, round(seconds / wl.rotation_s))


def untraced(wl, seconds: float, size: str) -> tuple[dict, dict]:
    setup = SetupTimer(wl, size)
    wl.setup()
    loop = Loop(wl)
    if wl.warm:
        Loop(wl).run_rotation(0, check=False)
    rotations = rotations_for(wl, seconds)
    # set-up samples are spread over the run, so they see the same drift
    # in machine speed as the ops do
    repeats = 1 if wl.tiny else SETUP_REPEATS
    setup_before = [i * rotations // repeats for i in range(repeats)]
    busy = 0.0
    for r in range(rotations):
        for _ in range(setup_before.count(r)):
            setup.measure()
        busy += loop.run_rotation(r)
    rss = wl.peak_rss_mb()
    loop.failures.update(wl.finish())
    ok = [i for i in range(len(loop.latencies)) if i not in loop.failures]
    metrics = {
        "setup_s": (statistics.median(setup.times), "s"),
        "ops_per_s": (len(ok) / busy, "1/s"),
        "values_per_s": (sum(loop.values[i] for i in ok) / busy, "1/s"),
        "latency_p50_ms": (statistics.median(loop.latencies) * 1e3, "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    tail = _percentile_tail(loop.latencies)
    notes = {"rotations": rotations, "busy_s": busy, "setup_runs": setup.times}
    if tail is not None:
        metrics["latency_tail_ms"] = (tail[0] * 1e3, "ms")
        notes["latency_tail"] = f"p{tail[1]:.2f} of {len(loop.latencies)} ops, {TAIL_BEYOND} beyond"
    return metrics, {"loop": loop, **notes}


def traced(wl, workload_metrics: list[dict]) -> tuple[dict, dict]:
    from tracing import Tracer

    import_s = statistics.median(measure_import(1 if wl.tiny else 3))
    tracer = Tracer()
    tracer.install()
    try:
        wl.setup()
    finally:
        tracer.uninstall()
    inproc = wl.name == "cli-export"
    loop = Loop(wl)
    # warm in-process caches in every workload, so that neither pass below
    # is the cold one; the plain pass is unchecked, so that its draws do
    # not enter the KS pools a second time
    Loop(wl).run_rotation(0, inproc=inproc, check=False)
    plain = sum(Loop(wl).run_rotation(r, inproc=inproc, check=False) for r in range(wl.trace_rotations))
    loop.tracer = tracer
    tracer.install()
    try:
        with_spans = sum(loop.run_rotation(r, inproc=inproc) for r in range(wl.trace_rotations))
    finally:
        tracer.uninstall()
    loop.failures.update(wl.finish())
    found = tracer.metrics()
    found["startup.import_s"] = import_s
    found["trace.overhead_ratio"] = with_spans / plain
    WORK.mkdir(exist_ok=True)
    tracer.write(WORK / f"trace-{wl.name}.jsonl")
    metrics = {m["name"]: (float(found.get(m["name"], 0.0)), m["unit"]) for m in workload_metrics}
    return metrics, {"loop": loop, "spans": len(tracer.spans), "trace_file": str(WORK / f"trace-{wl.name}.jsonl")}


def run_one(args, bench: dict) -> int:
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        return _fail(f"unknown workload {args.workload!r} (known: {', '.join(WORKLOADS)}, all)")
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, args.size, workdir, ROOT)
        wl.prepare()
        if args.trace:
            metrics, notes = traced(wl, bench["per_layer"])
        else:
            metrics, notes = untraced(wl, args.seconds, args.size)
        probes = wl.probes()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    loop = notes.pop("loop")
    attempted, failed = len(loop.latencies), len(loop.failures)
    probe_failed = sum(not p.passed for p in probes)
    error_rate = (failed + probe_failed) / (attempted + len(probes))
    env = environment()

    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  size {args.size}")
    why = next(w["why"] for w in bench["workloads"] if w["name"] == wl.name)
    print(f"why {why}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, (value, unit) in metrics.items():
        extra = f"  ({notes['latency_tail']})" if name == "latency_tail_ms" else ""
        print(f"metric {name} {value:.6g} {unit}{extra}")
    print(f"metric error_rate {error_rate:.6g} ratio  ({failed} of {attempted} ops, "
          f"{probe_failed} of {len(probes)} probes failed)")
    for key, value in notes.items():
        if key != "latency_tail":
            print(f"note {key} {value}")
    by_kind: dict[str, list[float]] = {}
    for kind, latency in zip(loop.kinds, loop.latencies):
        by_kind.setdefault(kind, []).append(latency)
    for kind, lats in by_kind.items():
        print(f"op {kind} n={len(lats)} median_ms={statistics.median(lats) * 1e3:.4g} max_ms={max(lats) * 1e3:.4g}")
    for op_id, reason in sorted(loop.failures.items())[:20]:
        print(f"failed op {op_id}: {reason}")
    for p in probes:
        print(f"probe {p.name} {'pass' if p.passed else 'fail'} {p.outcome}  {p.detail}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {**result, "workload": wl.name, "seed": args.seed, "trace": args.trace, "size": args.size,
              "why": why, "env": env, "error_rate": error_rate,
              "probes": [vars(p) for p in probes], "notes": {k: str(v) for k, v in notes.items()},
              "ops": {"kind": loop.kinds, "pass": loop.passes, "latency_s": loop.latencies}}
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    (WORK / "results" / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


def run_all(args, bench: dict) -> int:
    """Every workload in turn, each in its own process; the last line combines their results."""
    summary = {}
    for w in bench["workloads"]:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", w["name"], "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(argv, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        summary[w["name"]] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in summary.values()),
        "attempted": sum(r["attempted"] for r in summary.values()),
        "failed": sum(r["failed"] for r in summary.values()),
        "metrics": {f"{name}.{m}": v for name, r in summary.items() for m, v in r["metrics"].items()},
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every input, for the harness self-test")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "moq" / "__init__.py").is_file():
        return _fail(f"no moq sources under {ROOT / 'src'}; run from a checkout of the repository")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args, bench)
    return run_one(args, bench)


if __name__ == "__main__":
    sys.exit(main())
