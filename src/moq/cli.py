"""Command-line interface.

Subcommands::

    moq curve   --spec spec.json --quantity hazard --lo 0.01 --hi 6 --step 0.01 --out curve.csv
    moq sample  --spec spec.json --sampler accept-reject --n 100000 --seed 42 --out draws.txt
    moq moment  --spec spec.json --r 0.5 --method auto --tol 1e-10
    moq verify  [all | check names ...] [--spec spec.json] [--budget N] [--seed N]

Exit codes: 0 success; 1 a verify check failed; 2 bad usage, a bad
numeric argument or seed, or a spec parse failure (also unknown check
names); 3 evaluation error while writing a curve, naming its x (a hazard
has no survival in it, so none comes from an underflowing tail); 4 a
parameter-regime or domain condition was violated; 5 a series failed to
converge, or quadrature could not meet its tolerance.  ``main`` maps the
package's errors to these codes in one table, ``_EXIT_CODES``.

``MOQ_SEED`` provides a default seed; an explicit ``--seed`` wins, then
the spec file's ``seed`` field, then 0.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from .config import DistributionSpec, load_spec
from .errors import (
    ConditionViolated,
    DomainError,
    MoqError,
    Nonconvergence,
    SpecError,
    ToleranceNotMet,
)
from .extended import ExtendedDistribution
from .moments import moment
from .sampling import (
    RandomSource,
    sample_accept_reject,
    sample_inverse_cdf,
    sample_random_maxima,
)
from .verify import CHECKS, run_checks

_QUANTITIES = ("cdf", "sf", "pdf", "hazard")
_SAMPLERS = ("accept-reject", "random-maxima", "inverse-cdf")
_METHODS = ("auto", "closed_form", "series_at_zero", "series_at_one", "scaling", "quadrature")
# The exit code of each error a command lets through, after one "error:" line.
_EXIT_CODES = {
    SpecError: 2,
    ConditionViolated: 4,
    DomainError: 4,
    Nonconvergence: 5,
    ToleranceNotMet: 5,
}


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _resolve_seed(cli_seed: int | None, spec: DistributionSpec) -> int:
    if cli_seed is not None:
        return cli_seed
    env = os.environ.get("MOQ_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise SpecError(f"MOQ_SEED={env!r} is not an integer")
    if spec.seed is not None:
        return spec.seed
    return 0


def _cmd_curve(args, parser) -> int:
    if not all(map(math.isfinite, (args.lo, args.hi, args.step))):
        parser.error("--lo, --hi and --step must be finite")
    if args.lo >= args.hi:
        parser.error(f"--lo must be below --hi (got {args.lo} >= {args.hi})")
    if args.step <= 0:
        parser.error("--step must be positive")
    spec = load_spec(args.spec)
    ed = ExtendedDistribution(spec.baseline, spec.pv)
    count = int((args.hi - args.lo) / args.step + 1e-9) + 1
    xs = args.lo + args.step * np.arange(count)
    fn = getattr(ed, args.quantity)
    rows = []
    for x in xs:
        try:
            rows.append((x, fn(float(x))))
        except MoqError as exc:
            print(f"error: evaluation failed at x = {_fmt(x)}: {exc}", file=sys.stderr)
            return 3
    lines = [f"x,{args.quantity}"]
    lines += [f"{_fmt(x)},{_fmt(v)}" for x, v in rows]
    _write_out(args.out, "\n".join(lines) + "\n")
    return 0


def _cmd_sample(args, parser) -> int:
    if args.n < 1:
        parser.error("--n must be >= 1")
    spec = load_spec(args.spec)
    seed = _resolve_seed(args.seed, spec)
    if seed < 0:
        # numpy's generators take only non-negative seeds
        raise SpecError(f"seed must be a non-negative integer, got {seed}")
    ed = ExtendedDistribution(spec.baseline, spec.pv)
    rng = RandomSource(seed)
    samplers = {
        "accept-reject": sample_accept_reject,
        "random-maxima": sample_random_maxima,
        "inverse-cdf": sample_inverse_cdf,
    }
    batch = samplers[args.sampler](ed, rng, args.n)
    header = f"# sampler={batch.sampler} seed={batch.seed} n={batch.values.size}"
    if batch.n_proposed is not None:
        header += f" n_proposed={batch.n_proposed} acceptance_rate={_fmt(batch.acceptance_rate)}"
    body = "\n".join(_fmt(v) for v in batch.values)
    _write_out(args.out, header + "\n" + body + "\n")
    return 0


def _cmd_moment(args, parser) -> int:
    spec = load_spec(args.spec)
    res = moment(spec.baseline, spec.pv, args.r, method=args.method, tol=args.tol)
    print(
        f"value={_fmt(res.value)} method={res.method_used} "
        f"terms={res.terms_used} error_estimate={_fmt(res.error_estimate)}"
    )
    return 0


def _cmd_verify(args, parser) -> int:
    if args.budget < 1:
        parser.error("--budget must be >= 1")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    names = None
    targets = args.checks or ["all"]
    if targets != ["all"]:
        names = targets
        for name in names:
            if name not in CHECKS:
                print(f"error: unknown check {name!r} (known: {', '.join(CHECKS)})", file=sys.stderr)
                return 2
    spec = None if args.spec is None else load_spec(args.spec)
    results = run_checks(names, spec=spec, budget=args.budget, seed=args.seed)
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{res.name}\t{status}\t{res.detail}")
    return 0 if all(r.passed for r in results) else 1


def _write_out(out: str | None, text: str) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="moq", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_curve = sub.add_parser("curve", help="write a CSV of cdf/sf/pdf/hazard values on a grid")
    p_curve.add_argument("--spec", required=True)
    p_curve.add_argument("--quantity", choices=_QUANTITIES, default="hazard")
    p_curve.add_argument("--lo", type=float, required=True)
    p_curve.add_argument("--hi", type=float, required=True)
    p_curve.add_argument("--step", type=float, required=True)
    p_curve.add_argument("--out", default=None, help="output path; defaults to stdout")

    p_sample = sub.add_parser("sample", help="draw from the extended distribution")
    p_sample.add_argument("--spec", required=True)
    p_sample.add_argument("--sampler", choices=_SAMPLERS, default="inverse-cdf")
    p_sample.add_argument("--n", type=int, required=True)
    p_sample.add_argument("--seed", type=int, default=None)
    p_sample.add_argument("--out", default=None)

    p_moment = sub.add_parser("moment", help="compute a fractional or integer moment")
    p_moment.add_argument("--spec", required=True)
    p_moment.add_argument("--r", type=float, required=True)
    p_moment.add_argument("--method", choices=_METHODS, default="auto")
    p_moment.add_argument("--tol", type=float, default=1e-10)

    p_verify = sub.add_parser("verify", help="run the cross-check battery")
    p_verify.add_argument("checks", nargs="*", help="check names, or 'all' (default)")
    p_verify.add_argument("--spec", default=None)
    p_verify.add_argument("--budget", type=int, default=50_000, help="sample size per statistical check")
    p_verify.add_argument("--seed", type=int, default=20260810)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "curve": _cmd_curve,
        "sample": _cmd_sample,
        "moment": _cmd_moment,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args, parser)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES.items() if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
