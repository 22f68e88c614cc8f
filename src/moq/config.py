"""Distribution spec files: a small JSON schema mapping to (baseline, parameters).

Example::

    {
      "baseline": {"family": "weibull", "scale": 2.0, "shape": 2.0},
      "a": [1e-6, 0.15],
      "seed": 42
    }

``family`` is one of ``exponential``, ``weibull``, ``generalized_weibull``,
``loglogistic``; each family takes exactly the numeric fields of its
constructor (``scale`` defaults to 1.0 for exponential and log-logistic,
``shape`` to 1.0 for log-logistic).  ``a`` is the list of added parameters,
its length is the parameter count.  Unknown keys are rejected with a
field-precise message; JSON syntax errors keep their line and column.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path

from .baselines import BASELINE_FAMILIES, Baseline
from .errors import MoqError, SpecError
from .family import ParameterVector, validate_params

__all__ = ["DistributionSpec", "parse_spec", "load_spec"]

_OPTIONAL_DEFAULTS = {
    "exponential": {"scale": 1.0},
    "weibull": {},
    "generalized_weibull": {},
    "loglogistic": {"scale": 1.0, "shape": 1.0},
}


@dataclass(frozen=True)
class DistributionSpec:
    baseline: Baseline
    pv: ParameterVector
    seed: int | None = None


def _require_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SpecError(f"{where}: expected a number, got {value!r}")
    return float(value)


def parse_spec(data: dict, source: str = "<spec>") -> DistributionSpec:
    if not isinstance(data, dict):
        raise SpecError(f"{source}: top level must be an object")
    unknown = set(data) - {"baseline", "a", "seed"}
    if unknown:
        raise SpecError(f"{source}: unknown key {sorted(unknown)[0]!r}")
    if "baseline" not in data:
        raise SpecError(f"{source}: missing required key 'baseline'")
    if "a" not in data:
        raise SpecError(f"{source}: missing required key 'a'")

    bl = data["baseline"]
    if not isinstance(bl, dict) or "family" not in bl:
        raise SpecError(f"{source}.baseline: expected an object with a 'family' key")
    family = bl["family"]
    cls = BASELINE_FAMILIES.get(family)
    if cls is None:
        raise SpecError(
            f"{source}.baseline.family: unknown family {family!r} "
            f"(choose from {sorted(BASELINE_FAMILIES)})"
        )
    wanted = {f.name for f in dataclasses.fields(cls)}
    given = set(bl) - {"family"}
    if given - wanted:
        raise SpecError(
            f"{source}.baseline: unknown key {sorted(given - wanted)[0]!r} for {family}"
        )
    params = dict(_OPTIONAL_DEFAULTS[family])
    for key in given:
        params[key] = _require_number(bl[key], f"{source}.baseline.{key}")
    missing = wanted - set(params)
    if missing:
        raise SpecError(f"{source}.baseline: missing key {sorted(missing)[0]!r} for {family}")

    a_list = data["a"]
    if not isinstance(a_list, list) or not a_list:
        raise SpecError(f"{source}.a: expected a non-empty list of positive numbers")
    a_vals = [_require_number(v, f"{source}.a[{i}]") for i, v in enumerate(a_list)]

    seed = data.get("seed")
    if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int)):
        raise SpecError(f"{source}.seed: expected an integer, got {seed!r}")

    try:
        baseline = cls(**params)
        pv = validate_params(len(a_vals), a_vals)
    except MoqError as exc:
        raise SpecError(f"{source}: {exc}") from exc
    return DistributionSpec(baseline=baseline, pv=pv, seed=seed)


def load_spec(path: str | Path) -> DistributionSpec:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise SpecError(f"{path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    return parse_spec(data, source=str(path))
