"""The benchmark workloads: inputs from a seed, timed ops, checks, probes.

A workload is a closed loop run by one client.  ``rotation(r)`` returns
the ops of the r-th pass over the workload's fixed mix; ops are timed one
by one, and ``record`` (called after each op, outside its timing) checks
the output or stashes what a pooled check needs.  ``finish`` runs the
pooled checks and returns the ids of the ops that failed them.  ``probes``
runs the edge cases that keep known defects visible; they count toward
``error_rate`` only and are never timed.

Every check compares against :mod:`reference`, which shares no code with
``moq``.  This module imports ``moq`` lazily, in ``setup``, so that the
set-up child measures the import.
"""

from __future__ import annotations

import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

# Relative tolerances of the reference checks.
CURVE_RTOL = 1e-5  # correctness of curve values (curve-tail-precision probes accuracy)
PRECISION_RTOL = 1e-10
MOMENT_RTOL = 1e-8
QUANTILE_RTOL = 1e-6

CURVE_ROWS_CHECKED = 12
KS_PREFIX = 20_000  # draws per op that join the pooled KS test
KS_POOL_CAP = 200_000

Spec = dict  # {"baseline": {"family": ..., ...}, "a": [...]}


def spec(family: str, a, **params) -> Spec:
    return {"baseline": {"family": family, **params}, "a": list(a)}


def family_params(sp: Spec) -> tuple[str, dict]:
    base = dict(sp["baseline"])
    return base.pop("family"), base


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    values: Callable[[Any], int]
    meta: dict = field(default_factory=dict)


@dataclass
class ProbeResult:
    name: str
    passed: bool
    outcome: str  # "ok", "exit-<code>", "raises-<Exception>" or "wrong-value"
    detail: str


class Workload:
    name = ""
    # run one untimed pass first so per-parameter caches are warm
    warm = True
    # passes of the traced run; fixed so that its counts repeat exactly
    trace_rotations = 1
    # op seconds of one pass at seed, which turns --seconds into a fixed
    # number of passes (measured on a 2-vCPU Intel Xeon virtual machine)
    rotation_s = 1.0

    def __init__(self, seed: int, size: str, workdir: Path, root: Path):
        self.seed = seed
        self.tiny = size == "tiny"
        self.workdir = workdir
        self.root = root
        self.define()

    def rng_for(self, *key: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, _index(self.name), *key])

    def spec_path(self, key: str) -> Path:
        return self.workdir / f"{key}.json"

    def define(self) -> None:
        """Derive the inputs from the seed: ``self.specs`` and the rest."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Write the inputs the set-up reads."""
        for key, sp in self.specs.items():
            self.spec_path(key).write_text(json.dumps(sp))

    def setup(self) -> None:
        """Import moq, parse the specs and build the distributions."""
        import moq

        self.moq = moq
        self.loaded = {key: moq.load_spec(self.spec_path(key)) for key in self.specs}
        self.dists = {
            key: moq.ExtendedDistribution(sp.baseline, sp.pv) for key, sp in self.loaded.items()
        }

    def rotation(self, r: int, inproc: bool = False) -> list[Op]:
        raise NotImplementedError

    def record(self, op_id: int, op: Op, out) -> str | None:
        return None

    def finish(self) -> dict[int, str]:
        return {}

    def probes(self) -> list[ProbeResult]:
        return []

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _index(name: str) -> int:
    return list(WORKLOADS).index(name)


def _rel(value: float, ref: float) -> float:
    if value == ref:
        return 0.0
    return abs(value - ref) / max(abs(ref), 1e-300)


def _classify_exception(exc: BaseException) -> str:
    return f"raises-{type(exc).__name__}"


# --- cli-export -------------------------------------------------------------


@dataclass
class CliResult:
    rc: int
    stdout: str
    stderr: str
    maxrss_kb: int = 0


class CliExport(Workload):
    name = "cli-export"
    warm = False
    rotation_s = 5.6

    def define(self) -> None:
        self.specs = {
            "wave": spec("weibull", [1e-6, 0.15], scale=2.0, shape=2.0),
            "tail": spec("exponential", [1.5, 0.5], scale=1.0),
            "draw": spec("weibull", [2.0, 0.3, 0.9], scale=1.0, shape=1.5),
        }
        self.env = dict(os.environ)
        self.env.pop("MOQ_SEED", None)
        self.env["PYTHONPATH"] = str(self.root / "src")
        self.child_rss_kb: dict[str, list[int]] = {}
        self.pools = KsPools(self.workdir)

    # how an op reaches the CLI: a fresh process (timed run) or main(argv)
    def _subprocess(self, argv: list[str]) -> CliResult:
        out_path = self.workdir / "stdout.txt"
        err_path = self.workdir / "stderr.txt"
        with open(out_path, "w") as out, open(err_path, "w") as err:
            proc = subprocess.Popen(
                [sys.executable, "-m", "moq.cli", *argv],
                stdout=out, stderr=err, cwd=self.workdir, env=self.env,
            )
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        return CliResult(proc.returncode, out_path.read_text(), err_path.read_text(), usage.ru_maxrss)

    def _inproc(self, argv: list[str]) -> CliResult:
        buf = io.StringIO()
        try:
            with redirect_stdout(buf):
                rc = self.moq.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        return CliResult(rc, buf.getvalue(), "")

    def setup(self) -> None:
        super().setup()
        import moq.cli  # noqa: F401

    def _op(self, kind: str, argv: list[str], inproc: bool, values, **meta) -> Op:
        call = self._inproc if inproc else self._subprocess
        return Op(kind, lambda: call(argv), values, {"argv": argv, **meta})

    def _curve_argv(self, key: str, quantity: str, lo: float, step: float, count: int, out: str):
        hi = lo + step * (count - 0.5)
        return ["curve", "--spec", str(self.spec_path(key)), "--quantity", quantity,
                "--lo", repr(lo), "--hi", repr(hi), "--step", repr(step), "--out", str(self.workdir / out)]

    def rotation(self, r: int, inproc: bool = False) -> list[Op]:
        rng = self.rng_for(r)
        n_curve = 600 if self.tiny else 6000
        n_tail = 300 if self.tiny else 3000
        sizes = (2_000, 2_000, 10_000) if self.tiny else (100_000, 200_000, 1_000_000)
        budget = 2_000 if self.tiny else 20_000
        ops = []
        lo = round(float(rng.uniform(0.001, 0.002)), 6)
        ops.append(self._op(
            "curve-hazard", self._curve_argv("wave", "hazard", lo, 0.001, n_curve, "curve.csv"),
            inproc, lambda res: n_curve, key="wave", quantity="hazard", count=n_curve, out="curve.csv"))
        lo = round(float(rng.uniform(0.05, 0.1)), 6)
        ops.append(self._op(
            "curve-sf", self._curve_argv("tail", "sf", lo, 0.2, n_tail, "curve.csv"),
            inproc, lambda res: n_tail, key="tail", quantity="sf", count=n_tail, out="curve.csv"))
        for sampler, n in zip(("inverse-cdf", "accept-reject", "random-maxima"), sizes):
            seed = int(rng.integers(1, 2**31))
            argv = ["sample", "--spec", str(self.spec_path("draw")), "--n", str(n),
                    "--seed", str(seed), "--out", str(self.workdir / "draws.txt")]
            if sampler != "inverse-cdf":  # inverse-cdf is the CLI default
                argv[1:1] = ["--sampler", sampler]
            ops.append(self._op(f"sample-{sampler}", argv, inproc, lambda res, n=n: n,
                                key="draw", sampler=sampler, n=n, out="draws.txt"))
        rr = round(float(rng.uniform(1.0, 2.0)), 4)
        ops.append(self._op(
            "moment", ["moment", "--spec", str(self.spec_path("tail")), "--r", repr(rr)],
            inproc, lambda res: 1, key="tail", r=rr))
        # the battery uses its own fixed seed, so every run executes the same checks
        ops.append(self._op("verify", ["verify", "--budget", str(budget)], inproc,
                            lambda res: len(res.stdout.splitlines())))
        return ops

    def record(self, op_id: int, op: Op, res: CliResult) -> str | None:
        self.child_rss_kb.setdefault(op.kind, []).append(res.maxrss_kb)
        if res.rc != 0:
            return f"exit {res.rc}: {res.stderr.strip()[-200:]}"
        meta = op.meta
        if op.kind.startswith("curve"):
            return self._check_curve(meta, CURVE_RTOL, CURVE_ROWS_CHECKED, self.rng_for(10**6, op_id))
        if op.kind.startswith("sample"):
            return self._check_sample(op_id, meta)
        if op.kind == "moment":
            return self._check_moment_line(res.stdout, meta["key"], meta["r"])
        rows = [line.split("\t") for line in res.stdout.splitlines()]
        if len(rows) != 8 or any(len(row) != 3 or row[1] != "PASS" for row in rows):
            return f"verify table not all PASS: {res.stdout[:200]!r}"
        return None

    def _check_curve(self, meta, rtol, n_rows, rng) -> str | None:
        from reference import mp_quantity

        path = self.workdir / meta["out"]
        lines = path.read_text().splitlines()
        path.unlink()
        if lines[0] != f"x,{meta['quantity']}" or len(lines) != meta["count"] + 1:
            return f"curve file has header {lines[0]!r} and {len(lines) - 1} rows"
        rows = range(1, len(lines)) if n_rows is None else rng.choice(np.arange(1, len(lines)), n_rows, replace=False)
        family, params = family_params(self.specs[meta["key"]])
        a = self.specs[meta["key"]]["a"]
        for i in rows:
            x, v = (float(t) for t in lines[i].split(","))
            ref = mp_quantity(meta["quantity"], family, params, a, x)
            if _rel(v, ref) > rtol:
                return f"{meta['quantity']}({x!r}) = {v!r}, reference {ref!r}"
        return None

    def _check_sample(self, op_id: int, meta) -> str | None:
        path = self.workdir / meta["out"]
        text = path.read_text()
        path.unlink()
        header, _, body = text.partition("\n")
        values = np.array(body.split(), dtype=float)
        if not header.startswith(f"# sampler={meta['sampler']} ") or values.size != meta["n"]:
            return f"sample file has header {header!r} and {values.size} values"
        if not np.all(np.isfinite(values)) or np.any(values < 0):
            return "draws outside [0, inf)"
        self.pools.add((meta["sampler"],), op_id, values)
        return None

    def _check_moment_line(self, stdout: str, key: str, r: float) -> str | None:
        from reference import mp_moment

        fields = dict(item.split("=", 1) for item in stdout.split())
        family, params = family_params(self.specs[key])
        ref = mp_moment(family, params, self.specs[key]["a"], r)
        value = float(fields["value"])
        if _rel(value, ref) > MOMENT_RTOL:
            return f"moment r={r} = {value!r}, reference {ref!r}"
        return None

    def finish(self) -> dict[int, str]:
        family, params = family_params(self.specs["draw"])
        return self.pools.check(lambda pool: (family, params, self.specs["draw"]["a"]))

    def peak_rss_mb(self) -> float:
        # each op is its own process: the heaviest kind of op, by its median
        # peak, so that the figure does not grow with the number of passes
        return max(statistics.median(kb) for kb in self.child_rss_kb.values()) / 1024.0

    def probes(self) -> list[ProbeResult]:
        out = []
        wave = str(self.spec_path("wave"))
        res = self._subprocess(["curve", "--spec", wave, "--quantity", "hazard",
                                "--lo", "0.01", "--hi", "60", "--step", "0.01", "--out", str(self.workdir / "probe.csv")])
        count = int((60 - 0.01) / 0.01 + 1e-9) + 1  # the grid lo, lo + step, ... up to hi
        out.append(self._probe_curve("curve-hi-60", res, count=count, rtol=CURVE_RTOL, rows=CURVE_ROWS_CHECKED))
        res = self._subprocess(["moment", "--spec", wave, "--r", "1"])
        if res.rc != 0:
            out.append(ProbeResult("moment-auto-wave", False, f"exit-{res.rc}", res.stderr.strip()[-200:]))
        else:
            why = self._check_moment_line(res.stdout, "wave", 1.0)
            out.append(ProbeResult("moment-auto-wave", why is None, "ok" if why is None else "wrong-value", why or ""))
        res = self._subprocess(["curve", "--spec", wave, "--quantity", "hazard",
                                "--lo", "5.9", "--hi", "6.0005", "--step", "0.001", "--out", str(self.workdir / "probe.csv")])
        out.append(self._probe_curve("curve-tail-precision", res, count=101, rtol=PRECISION_RTOL, rows=None))
        return out

    def _probe_curve(self, name, res, count, rtol, rows) -> ProbeResult:
        if res.rc != 0:
            (self.workdir / "probe.csv").unlink(missing_ok=True)
            return ProbeResult(name, False, f"exit-{res.rc}", res.stderr.strip()[-200:])
        meta = {"out": "probe.csv", "quantity": "hazard", "count": count, "key": "wave"}
        why = self._check_curve(meta, rtol, rows, self.rng_for(10**7))
        return ProbeResult(name, why is None, "ok" if why is None else "wrong-value", why or "")


class KsPools:
    """Draws pooled per (spec, sampler) for one-sample KS tests.

    The draws go to files in the workdir, not to memory, so that the
    pools do not count toward the peak resident memory of the process
    under measurement.
    """

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.files: dict[tuple, Path] = {}
        self.sizes: dict[tuple, int] = {}
        self.ops: dict[tuple, list[int]] = {}

    def add(self, pool: tuple, op_id: int, values: np.ndarray) -> None:
        self.ops.setdefault(pool, []).append(op_id)
        path = self.files.setdefault(pool, self.workdir / f"pool-{len(self.files)}.f64")
        have = self.sizes.get(pool, 0)
        if have < KS_POOL_CAP:
            chunk = np.ascontiguousarray(values[: min(KS_PREFIX, KS_POOL_CAP - have)], dtype=np.float64)
            with open(path, "ab") as fh:
                fh.write(chunk.tobytes())
            self.sizes[pool] = have + chunk.size

    def check(self, target) -> dict[int, str]:
        """One-sample KS per pool; a pool that fails fails every op in it."""
        from reference import dkw_threshold, extended_cdf, ks_distance

        failed = {}
        for pool, path in self.files.items():
            values = np.sort(np.fromfile(path, dtype=np.float64))
            family, params, a = target(pool)
            stat = ks_distance(values, extended_cdf(family, params, a, values))
            limit = dkw_threshold(values.size)
            if stat > limit:
                for op_id in self.ops[pool]:
                    failed[op_id] = f"pooled KS for {pool}: {stat:.4g} > {limit:.4g} (n = {values.size})"
        return failed


# --- simulate -----------------------------------------------------------------

# spec key -> (spec, samplers that apply).  random-maxima needs the pmf
# regime; accept-reject is left out where its constant makes it impractical
# (about 4.7e3 proposals per draw for the multi-wave spec).
_SIM_SPECS = {
    "exp-q2-pmf": (spec("exponential", [1.5, 0.5], scale=1.0),
                   ("inverse-cdf", "accept-reject", "random-maxima")),
    "weib-q2-wave": (spec("weibull", [1e-6, 0.15], scale=2.0, shape=2.0), ("inverse-cdf",)),
    "ll-q5-pmf": (spec("loglogistic", [3.0, 0.3, 0.4, 0.9, 0.6], scale=1.0, shape=1.0),
                  ("inverse-cdf", "accept-reject", "random-maxima")),
    "gw-q3-pmf": (spec("generalized_weibull", [2.5, 0.5, 0.8], scale=1.0, shape=0.5, shape2=2.0),
                  ("inverse-cdf", "accept-reject", "random-maxima")),
    "weib-q4-mixed": (spec("weibull", [0.8, 1.3, 0.6, 1.4], scale=1.0, shape=1.5),
                      ("inverse-cdf", "accept-reject")),
    "exp-q8-mixed": (spec("exponential", [0.5, 1.2, 0.8, 2.0, 0.6, 1.5, 0.9, 0.7], scale=2.0),
                     ("inverse-cdf", "accept-reject")),
}


class Simulate(Workload):
    name = "simulate"
    rotation_s = 1.73

    def define(self) -> None:
        self.specs = {key: sp for key, (sp, _) in _SIM_SPECS.items()}
        self.pools = KsPools(self.workdir)

    def rotation(self, r: int, inproc: bool = False) -> list[Op]:
        rng = self.rng_for(r)
        large = 2_000 if self.tiny else 100_000
        small = (100, 1_000)
        ops = []
        for key, (_, samplers) in _SIM_SPECS.items():
            ed = self.dists[key]
            for sampler in samplers:
                # small batches twice as often as large ones, so that the
                # median op is a small batch and not the boundary between
                # them; the sizes are fixed so that the seed changes the
                # draws but not the amount of work
                for n in (small[0], large, small[1]):
                    src = self.moq.RandomSource(int(rng.integers(1, 2**63)))
                    fn = "sample_" + sampler.replace("-", "_")
                    ops.append(Op(
                        f"{sampler}-{'large' if n == large else 'small'}",
                        lambda fn=fn, ed=ed, src=src, n=n: getattr(self.moq, fn)(ed, src, n),
                        lambda batch: batch.values.size,
                        {"key": key, "sampler": sampler, "n": n},
                    ))
        return ops

    def record(self, op_id: int, op: Op, batch) -> str | None:
        values = np.asarray(batch.values)
        if values.size != op.meta["n"] or not np.all(np.isfinite(values)) or np.any(values < 0):
            return f"{values.size} draws, want {op.meta['n']} finite values in [0, inf)"
        self.pools.add((op.meta["key"], op.meta["sampler"]), op_id, values)
        return None

    def finish(self) -> dict[int, str]:
        def target(pool):
            family, params = family_params(self.specs[pool[0]])
            return family, params, self.specs[pool[0]]["a"]

        return self.pools.check(target)

    def probes(self) -> list[ProbeResult]:
        from reference import mp_quantity

        ed = self.dists["exp-q2-pmf"]
        family, params = family_params(self.specs["exp-q2-pmf"])
        a = self.specs["exp-q2-pmf"]["a"]
        out = []
        for name, p, quantity, target in (
            ("quantile-lower-1e-13", 1e-13, "cdf", 1e-13),
            ("quantile-upper-1e-13", 1.0 - 1e-13, "sf", 1.0 - (1.0 - 1e-13)),
        ):
            try:
                x = ed.quantile(p)
            except Exception as exc:  # a probe classifies whatever escapes
                out.append(ProbeResult(name, False, _classify_exception(exc), str(exc)[:200]))
                continue
            got = mp_quantity(quantity, family, params, a, x)
            err = _rel(got, target)
            ok = err <= QUANTILE_RTOL
            out.append(ProbeResult(name, ok, "ok" if ok else "wrong-value",
                                   f"{quantity}(quantile({p!r})) = {got:.6g}, relative error {err:.3g}"))
        out.append(self._probe_q150())
        return out

    def _probe_q150(self) -> ProbeResult:
        """Survival of a 150-parameter extension at a few points."""
        from reference import mp_quantity

        a = [1.0 + 0.5 * math.sin(i) for i in range(150)]
        xs = [0.1, 0.5, 1.0, 2.0, 5.0, 10.0]
        m = self.moq
        try:
            ed = m.ExtendedDistribution(m.Exponential(1.0), m.validate_params(len(a), a))
            got = [ed.sf(x) for x in xs]
        except Exception as exc:  # a probe classifies whatever escapes
            return ProbeResult("sf-q150", False, _classify_exception(exc), str(exc)[:200])
        for x, value in zip(xs, got):
            ref = mp_quantity("sf", "exponential", {"scale": 1.0}, a, x)
            if not _rel(value, ref) <= CURVE_RTOL:
                return ProbeResult("sf-q150", False, "wrong-value", f"sf({x}) = {value!r}, reference {ref!r}")
        return ProbeResult("sf-q150", True, "ok", "")


# --- moment-table -------------------------------------------------------------

# (spec, r, method, whether r is jittered by the seed)
_MOMENT_GRID = {
    "ll-q2-closed": (spec("loglogistic", [2.0, 0.5], scale=1.5, shape=2.0), 0.5, "auto", True),
    "ll-q2-closed-neg": (spec("loglogistic", [2.0, 0.5], scale=1.5, shape=2.0), -0.5, "auto", True),
    "ll-q2-long-series": (spec("loglogistic", [200.0, 0.5], scale=1.0, shape=1.0), 0.5, "series_at_zero", False),
    "ll-q3-series": (spec("loglogistic", [3.0, 0.5, 0.5], scale=1.0, shape=1.0), 0.3, "auto", True),
    "exp-a20-fallback": (spec("exponential", [20.0, 0.5], scale=1.0), 1.5, "auto", True),
    "exp-q5-series": (spec("exponential", [3.0, 0.3, 0.4, 0.9, 0.6], scale=1.0), 2.0, "auto", True),
    "exp-q3-at-one": (spec("exponential", [2.5, 0.5, 0.8], scale=1.0), 1.0, "series_at_one", True),
    "weib-q2-scaling": (spec("weibull", [1.5, 0.5], scale=2.0, shape=1.5), 1.0, "auto", True),
    "weib-q4-scaling": (spec("weibull", [2.2, 0.6, 0.7, 0.9], scale=1.0, shape=0.8), 0.5, "auto", True),
    "gw-q2-binomial": (spec("generalized_weibull", [1.5, 0.5], scale=1.0, shape=0.5, shape2=2.0), 3.0, "auto", False),
    "gw-q2-quadrature": (spec("generalized_weibull", [2.0, 0.5], scale=1.0, shape=1.0, shape2=1.5), 1.5, "auto", True),
    "ll-q3-quadrature": (spec("loglogistic", [2.0, 0.5, 0.5], scale=1.0, shape=3.0), 1.5, "quadrature", True),
    "weib-wave-quadrature": (spec("weibull", [1e-6, 0.15], scale=2.0, shape=2.0), 1.0, "quadrature", True),
}


class MomentTable(Workload):
    name = "moment-table"
    trace_rotations = 20
    rotation_s = 0.037

    def define(self) -> None:
        grid = dict(_MOMENT_GRID)
        grid["probe-gw-r2.5"] = (grid["gw-q2-binomial"][0], 2.5, "auto", False)
        self.specs = {key: sp for key, (sp, *_) in grid.items()}
        rng = self.rng_for(0)
        self.queries = {}
        for key, (_, r, method, jitter) in grid.items():
            if jitter:
                r = round(r * float(rng.uniform(0.98, 1.02)), 6)
            self.queries[key] = (r, method)
        self.order = [key for key in _MOMENT_GRID]
        rng.shuffle(self.order)
        self.results: dict[str, list[tuple[int, float]]] = {}

    def _op(self, key: str) -> Op:
        r, method = self.queries[key]
        sp = self.loaded[key]
        return Op(key, lambda: self.moq.moment(sp.baseline, sp.pv, r, method=method), lambda res: 1, {"key": key})

    def rotation(self, r: int, inproc: bool = False) -> list[Op]:
        return [self._op(key) for key in self.order]

    def record(self, op_id: int, op: Op, res) -> str | None:
        if not math.isfinite(res.value):
            return f"{op.kind}: value {res.value!r}"
        self.results.setdefault(op.kind, []).append((op_id, res.value))
        return None

    def _reference(self, key: str) -> float:
        from reference import mp_moment

        family, params = family_params(self.specs[key])
        return mp_moment(family, params, self.specs[key]["a"], self.queries[key][0])

    def finish(self) -> dict[int, str]:
        failed = {}
        for key, results in self.results.items():
            ref = self._reference(key)
            for op_id, value in results:
                if _rel(value, ref) > MOMENT_RTOL:
                    failed[op_id] = f"{key}: {value!r}, reference {ref!r}"
        return failed

    def probes(self) -> list[ProbeResult]:
        try:
            res = self._op("probe-gw-r2.5").run()
        except Exception as exc:  # a probe classifies whatever escapes
            return [ProbeResult("gw-r2.5", False, _classify_exception(exc), str(exc)[:200])]
        ref = self._reference("probe-gw-r2.5")
        ok = _rel(res.value, ref) <= MOMENT_RTOL
        return [ProbeResult("gw-r2.5", ok, "ok" if ok else "wrong-value",
                            f"{res.value!r} ({res.method_used}), reference {ref!r}")]


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (CliExport, Simulate, MomentTable)
}
