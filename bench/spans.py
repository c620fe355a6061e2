"""Tracing of metalink's layers from outside, by wrapping module attributes.

A layer is one module of the metalink package. At start-up every public
function of a layer module, and every public classmethod of the classes it
defines, is replaced by a timing shim. The shim is installed under every
name that refers to the original in any metalink module, so calls made
through `from .core import ...` bindings are seen too. Because the set is
enumerated, renamed or deleted functions need no change here.

Spans are kept in memory as (name, start, end, parent, pass_id, out_bytes)
and written out once the run ends. Self time is a span's duration minus the
durations of its direct children; calls are single-threaded, so children
never overlap.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import pkgutil
import sys
import time
from typing import NamedTuple

import numpy as np


class Span(NamedTuple):
    name: str        # "<layer>.<function>"
    start: float
    end: float
    parent: int      # index of the enclosing span, -1 at top level
    pass_id: int
    out_bytes: int   # computed bytes of the arrays returned

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def computed_bytes(value) -> int:
    """Logical bytes of the arrays in a returned value.

    Counts arrays, lists and tuples of them, and the array fields of
    dataclasses such as ComplexEnvelope, CoefficientSchedule and Spectrum.
    Dicts are skipped, so a result that only collects earlier outputs is
    not counted twice. Broadcast views count at their full logical size.
    """
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, (list, tuple)):
        return sum(computed_bytes(v) for v in value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return sum(computed_bytes(getattr(value, f.name))
                   for f in dataclasses.fields(value))
    return 0


class Tracer:
    """Records nested spans; `pass_id` tags the spans of the current pass."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self.pass_id = -1
        self._stack: list = []

    def shim(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(index)
            out = None
            start = self.clock()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                end = self.clock()
                self._stack.pop()
                self.spans[index] = Span(name, start, end, parent, self.pass_id,
                                         computed_bytes(out))
        return traced


# cli only parses arguments on top of scenario.run_scenario
NOT_LAYERS = ("cli",)


def layer_modules(package) -> dict:
    """{layer name: module} for every public module of the package but cli."""
    return {info.name: importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
            if info.name not in NOT_LAYERS and not info.name.startswith("_")}


def _targets(layers: dict):
    """Yield (span name, owner, attribute, original) for every traced callable."""
    for layer, module in layers.items():
        for attr, obj in vars(module).items():
            if attr.startswith("_") or (
                    getattr(obj, "__module__", None) != module.__name__):
                continue
            if inspect.isfunction(obj):
                yield f"{layer}.{attr}", module, attr, obj
            elif inspect.isclass(obj):
                for method, raw in vars(obj).items():
                    if isinstance(raw, classmethod) and not method.startswith("_"):
                        yield f"{layer}.{method}", obj, method, raw


def instrument(tracer: Tracer, package, layers: dict) -> list:
    """Install shims; return the (owner, attribute, original) list to undo them."""
    modules = [m for name, m in list(sys.modules.items())
               if name == package.__name__ or name.startswith(package.__name__ + ".")]
    undo = []
    seen = set()
    for name, owner, attr, original in _targets(layers):
        if name in seen:
            raise ValueError(f"two traced callables share the span name {name!r}")
        seen.add(name)
        if isinstance(original, classmethod):
            undo.append((owner, attr, original))
            setattr(owner, attr, classmethod(tracer.shim(name, original.__func__)))
            continue
        shim = tracer.shim(name, original)
        for module in modules:
            for binding, value in list(vars(module).items()):
                if value is original:
                    undo.append((module, binding, original))
                    setattr(module, binding, shim)
    return undo


def uninstrument(undo: list) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


def self_times(spans: list, first: int = 0) -> list:
    """Per span: its duration minus the durations of its direct children.

    `spans` are consecutive recorded spans, the first of them recorded at
    index `first`, that hold every child of each span they hold.
    """
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= first:
            out[s.parent - first] -= s.end - s.start
    return out


def pass_metrics(spans: list, first: int, pass_seconds: float, layers, named) -> dict:
    """Per-layer and named-function metrics of one pass's spans.

    `spans` are the spans of one pass, recorded from index `first` on.
    """
    metrics = {}
    for layer in layers:
        metrics.update({f"{layer}.calls": 0, f"{layer}.self_s": 0.0,
                        f"{layer}.out_mb": 0.0})
    for name in named:
        metrics.update({f"{name}.calls": 0, f"{name}.s": 0.0})
    for span, own in zip(spans, self_times(spans, first)):
        if span.layer in layers:
            metrics[f"{span.layer}.calls"] += 1
            metrics[f"{span.layer}.self_s"] += own
            metrics[f"{span.layer}.out_mb"] += span.out_bytes / 1e6
        if span.name in named:
            metrics[f"{span.name}.calls"] += 1
            metrics[f"{span.name}.s"] += span.end - span.start
    covered = sum(s.end - s.start for s in spans if s.parent < 0)
    metrics["trace.unattributed_s"] = pass_seconds - covered
    return metrics
