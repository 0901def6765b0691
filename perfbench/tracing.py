"""Span tracing of the wishartmix layers from outside the package.

:class:`Tracer` rebinds every public function of the package modules, in
every package namespace that holds it, to a timing wrapper, so that calls
such as ``design_io.mc_pvalue`` or ``closure.sample_wishart`` each record a
span: name, start, end, parent span, op id and whether it raised.
``RngStream.generator`` is wrapped on the class so that child streams are
counted.  Spans stay in memory; :func:`op_metrics` reduces the spans of one
operation to per-layer metrics, and :meth:`Tracer.write` stores them.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
import time
from collections import defaultdict
from dataclasses import asdict, dataclass

PACKAGE = "wishartmix"
LAYERS = ("cli", "design_io", "manova", "mc", "distributions", "closure", "symmat", "rng")


def _size_arg(position: int):
    def count(args, kwargs, result) -> int:
        size = kwargs.get("size", args[position] if len(args) > position else None)
        return 1 if size is None else int(size)

    return count


# Work counts recorded on a span, by span name.
_COUNTERS = {
    "design_io.load_design_csv": lambda args, kwargs, result: result.n_rows,
    "distributions.beta2_eigenvalues": _size_arg(2),
    "distributions.sample_wishart": _size_arg(2),
}


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    op: int
    error: bool
    count: int

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Installs and removes the timing wrappers; owns the recorded spans."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = 0
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        count = _COUNTERS.get(name)
        stack, spans, ids = self._stack, self.spans, self._ids

        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            result, error = None, True
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                error = False
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                n = count(args, kwargs, result) if count and not error else 0
                spans.append(Span(sid, parent, name, start, end, self.op, error, n))

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Rebind the public functions of every layer in every package namespace."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [importlib.import_module(PACKAGE)]
        modules += [importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS]
        wrappers = {}
        for layer, mod in zip(LAYERS, modules[1:]):
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])
        rng_stream = modules[1 + LAYERS.index("rng")].RngStream
        self._patches.append((rng_stream, "generator", rng_stream.generator))
        rng_stream.generator = self._wrap("rng.RngStream.generator", rng_stream.generator)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")


def op_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one operation's spans.

    For each span name ``N``: ``N_s`` (total time), ``N_self_s`` (time minus
    child spans), ``N_calls`` and ``N_count`` (recorded work).  For each layer
    ``L``: ``L.s`` and ``L.calls`` over the spans entered from another layer,
    ``L.self_s`` and ``L.errors`` over all of its spans.
    """
    by_id = {s.id: s for s in spans}
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        dur = s.end - s.start
        self_time = dur - child_time[s.id]
        out[f"{s.name}_s"] += dur
        out[f"{s.name}_self_s"] += self_time
        out[f"{s.name}_calls"] += 1
        out[f"{s.name}_count"] += s.count
        out[f"{s.layer}.self_s"] += self_time
        out[f"{s.layer}.errors"] += s.error
        parent = by_id.get(s.parent)
        if parent is None or parent.layer != s.layer:
            out[f"{s.layer}.s"] += dur
            out[f"{s.layer}.calls"] += 1
    return dict(out)


def derived_metrics(m: dict[str, float]) -> dict[str, float]:
    """Named per-layer metrics built from :func:`op_metrics` of one operation."""

    def rate(count_key: str, time_key: str) -> float:
        t = m.get(time_key, 0.0)
        return m.get(count_key, 0.0) / t if t > 0 else 0.0

    return {
        "design_io.rows_per_s": rate("design_io.load_design_csv_count", "design_io.load_design_csv_s"),
        "distributions.beta2_calls": m.get("distributions.beta2_eigenvalues_calls", 0.0),
        "distributions.beta2_draws_per_s": rate(
            "distributions.beta2_eigenvalues_count", "distributions.beta2_eigenvalues_s"
        ),
        "distributions.wishart_draws": m.get("distributions.sample_wishart_count", 0.0),
        "rng.generators": m.get("rng.RngStream.generator_calls", 0.0),
    }
