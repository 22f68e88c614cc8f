"""Spans around the public functions of each moq module, installed from outside.

``Tracer.install`` replaces each traced function, in every ``moq`` module
namespace that holds it, by a wrapper that records one span: name,
start, end, parent span and op id, plus the size of its array argument.
Methods are wrapped on their classes and the ``verify`` battery through
its ``CHECKS`` table.  Spans stay in memory until ``write``; ``metrics``
derives self times (span time minus the time of child spans) and the
counts and ratios of the per-layer table.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

# (module, attribute, span name, index of the array argument or None)
_FUNCTIONS = [
    ("moq.cli", "main", "cli.main", None),
    ("moq.config", "load_spec", "config.load_spec", None),
    ("moq.family", "distortion", "family.distortion", 1),
    ("moq.family", "distortion_deriv", "family.distortion_deriv", 1),
    ("moq.family", "distortion_complement", "family.distortion_complement", 1),
    ("moq.family", "distortion_inverse", "family.distortion_inverse", 1),
    ("moq.sampling", "sample_accept_reject", "sampling.accept_reject", None),
    ("moq.sampling", "sample_random_maxima", "sampling.random_maxima", None),
    ("moq.sampling", "sample_inverse_cdf", "sampling.inverse_cdf", None),
    ("moq.sampling", "envelope_constant", "sampling.envelope_constant", None),
    ("moq.moments", "moment", "moments.moment", None),
    ("moq.oracle", "integrate_semiinfinite", "oracle.integrate_semiinfinite", None),
    ("moq.oracle", "ks_one_sample", "oracle.ks_one_sample", None),
    ("moq.oracle", "ks_two_sample", "oracle.ks_two_sample", None),
]
_BASELINE_METHODS = ("cdf", "sf", "pdf", "quantile")
_EXTENDED_METHODS = ("cdf", "sf", "pdf", "hazard", "quantile")


def _sampler_counts(name: str):
    def count(counters, batch):
        counters[f"{name}.draws"] += batch.values.size
        if batch.n_proposed is not None:
            counters[f"{name}.proposed"] += batch.n_proposed

    return count


def _moment_counts(counters, res):
    # quadrature paths report their evaluations in terms_used; those are
    # counted by oracle.integrate_semiinfinite.evaluations instead
    inner = res.method_used.removeprefix("scaling(").removesuffix(")")
    if inner.startswith("series_at") or inner == "binomial_transform":
        counters["moments.terms_used"] += res.terms_used
    path = res.method_used.replace("(", "-").replace(")", "")
    counters[f"moments.path.{path}"] += 1


def _quadrature_counts(counters, res):
    counters["oracle.integrate_semiinfinite.evaluations"] += res.evaluations


_ON_RESULT = {
    "sampling.accept_reject": _sampler_counts("sampling.accept_reject"),
    "sampling.random_maxima": _sampler_counts("sampling.random_maxima"),
    "sampling.inverse_cdf": _sampler_counts("sampling.inverse_cdf"),
    "moments.moment": _moment_counts,
    "oracle.integrate_semiinfinite": _quadrature_counts,
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple | None] = []
        self.stack: list[int] = []
        self.op_id = -1
        self.counters: dict[str, float] = defaultdict(float)
        self._undo: list[tuple] = []

    def wrap(self, name: str, fn, elem_arg: int | None = None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        on_result = _ON_RESULT.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elements = int(np.size(args[elem_arg])) if elem_arg is not None and elem_arg < len(args) else 0
                spans[idx] = (name, start, end, parent, tracer.op_id, elements)
            if on_result is not None:
                on_result(tracer.counters, result)
            return result

        return traced

    def _set(self, owner, attr: str, value) -> None:
        if isinstance(owner, dict):
            self._undo.append((owner, attr, owner[attr]))
            owner[attr] = value
        else:
            self._undo.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)

    def install(self) -> None:
        import moq.cli  # noqa: F401  (loads every module that holds a traced name)
        from moq import baselines, extended, verify

        modules = [m for key, m in sys.modules.items() if key == "moq" or key.startswith("moq.")]
        for module_name, attr, name, elem_arg in _FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self.wrap(name, original, elem_arg)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, wrapper)
        for cls in baselines.BASELINE_FAMILIES.values():
            for meth in _BASELINE_METHODS:
                self._set(cls, meth, self.wrap(f"baselines.{meth}", cls.__dict__[meth], 1))
        for meth in _EXTENDED_METHODS:
            cls = extended.ExtendedDistribution
            self._set(cls, meth, self.wrap(f"extended.{meth}", cls.__dict__[meth], 1))
        for check, fn in list(verify.CHECKS.items()):
            self._set(verify.CHECKS, check, self.wrap(f"verify.{check}", fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._undo.clear()

    def metrics(self) -> dict[str, float]:
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        inverse_passes = 0
        for idx, (name, start, end, parent, _, elements) in enumerate(spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += (end - start) - child[idx]
            out[f"{name}.elements"] += elements
            if name == "family.distortion" and parent >= 0 and spans[parent][0] == "family.distortion_inverse":
                inverse_passes += 1
        out.update(self.counters)
        inverse_calls = out.get("family.distortion_inverse.calls", 0)
        out["family.inverse_passes"] = inverse_passes / inverse_calls if inverse_calls else 0.0
        proposed = out.get("sampling.accept_reject.proposed", 0)
        draws = out.get("sampling.accept_reject.draws", 0)
        out["sampling.accept_reject.accept_ratio"] = draws / proposed if proposed else 0.0
        return dict(out)

    def write(self, path: Path) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for name, start, end, parent, op_id, elements in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": start - origin, "end": end - origin,
                    "parent": parent, "op": op_id, "elements": elements,
                }) + "\n")
