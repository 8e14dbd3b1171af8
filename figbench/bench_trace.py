"""The traced run: spans around the calls into each layer, recorded from
the benchmark's own files.

Proxies enter through ``ExperimentContext``'s public ``trace_cache=``,
``store=`` and ``journal=`` arguments (and a context subclass counting
cell requests); the public ``simulate`` as the runner calls it,
``WorkloadSpec.generate`` and ``telemetry.manifest.write_cell_artifacts``
are wrapped only while :func:`installed` is active.  Spans carry their
parent's id, stay in memory, and are written out once the run ends.
"""

from __future__ import annotations

import functools
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional

import repro.experiments.runner as runner
import repro.telemetry.manifest as manifest
from repro.experiments.journal import RunJournal
from repro.experiments.runner import ExperimentContext
from repro.experiments.store import ResultStore
from repro.trace.cache import TraceCache
from repro.trace.generator import WorkloadSpec

from bench_workloads import Hooks

#: Layers a span may belong to, in the order they are reported.
LAYERS = ("trace", "engine", "experiments", "telemetry", "analysis")


@dataclass
class Span:
    id: int
    parent: Optional[int]
    layer: str
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder.  Records only inside :meth:`driver`, so
    set-up and result collection around the driver call stay untraced."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []

    @contextmanager
    def _record(self, layer: str, name: str, attrs: dict):
        parent = self._stack[-1].id if self._stack else None
        record = Span(len(self.spans), parent, layer, name,
                      time.perf_counter(), attrs=attrs)
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def span(self, layer: str, name: str, **attrs):
        if not self._stack:  # outside a driver call: not recorded
            yield None
            return
        with self._record(layer, name, attrs) as record:
            yield record

    def driver(self, name: str):
        """Root span of one driver call (its self time is analysis)."""
        return self._record("analysis", name, {})

    def to_json(self) -> list:
        return [{"id": s.id, "parent": s.parent, "layer": s.layer,
                 "name": s.name, "start": s.start, "end": s.end,
                 **({"attrs": s.attrs} if s.attrs else {})}
                for s in self.spans]


def _wrap(tracer: Tracer, layer: str, name: str, fn, annotate=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(layer, name) as span:
            out = fn(*args, **kwargs)
            if span is not None and annotate is not None:
                annotate(span, out)
            return out
    return wrapper


def _annotate_sim(span: Span, result) -> None:
    span.attrs.update(ops=result.ops, loop_s=result.wall_seconds,
                      engine=getattr(result, "engine_used", ""))


def _annotate_trace(span: Span, trace) -> None:
    span.attrs["ops"] = len(trace)


@contextmanager
def installed(tracer: Tracer):
    """Wrap the module-level entry points for the duration of a pass."""
    patches = [
        (runner, "simulate", _wrap(tracer, "engine", "simulate",
                                   runner.simulate, _annotate_sim)),
        (WorkloadSpec, "generate", _wrap(tracer, "trace", "generate",
                                         WorkloadSpec.generate,
                                         _annotate_trace)),
        (manifest, "write_cell_artifacts",
         _wrap(tracer, "telemetry", "write_cell_artifacts",
               manifest.write_cell_artifacts)),
    ]
    saved = [(owner, name, getattr(owner, name))
             for owner, name, _ in patches]
    try:
        for owner, name, wrapper in patches:
            setattr(owner, name, wrapper)
        yield tracer
    finally:
        for owner, name, original in saved:
            setattr(owner, name, original)


class TracedContext(ExperimentContext):
    """Counts the cells each request batch asks for."""

    def __init__(self, *args, tracer: Tracer, **kwargs):
        super().__init__(*args, **kwargs)
        self.tracer = tracer

    def run_many(self, requests):
        requests = list(requests)
        with self.tracer.span("experiments", "run_many",
                              requested=len(requests)):
            return super().run_many(requests)


class TracedTraceCache(TraceCache):
    def __init__(self, root, *, tracer: Tracer):
        super().__init__(root)
        self.tracer = tracer

    def load(self, *args, **kwargs):
        with self.tracer.span("trace", "cache_load") as span:
            trace = super().load(*args, **kwargs)
            if span is not None:
                span.attrs.update(hit=trace is not None,
                                  ops=len(trace) if trace else 0)
            return trace

    def store(self, *args, **kwargs):
        with self.tracer.span("trace", "cache_store"):
            return super().store(*args, **kwargs)


class TracedStore(ResultStore):
    def __init__(self, root, *, tracer: Tracer):
        super().__init__(root)
        self.tracer = tracer

    def get(self, key):
        with self.tracer.span("experiments", "store_get") as span:
            result = super().get(key)
            if span is not None:
                span.attrs["hit"] = result is not None
            return result

    def put(self, *args, **kwargs):
        with self.tracer.span("experiments", "store_put"):
            return super().put(*args, **kwargs)


class TracedJournal(RunJournal):
    def __init__(self, root, context_key=None, *, tracer: Tracer):
        super().__init__(root, context_key=context_key)
        self.tracer = tracer

    def record_cell(self, *args, **kwargs):
        with self.tracer.span("experiments", "journal"):
            return super().record_cell(*args, **kwargs)


def hooks_for(tracer: Tracer):
    """A traced pass's substitutes for the program's own classes."""
    return Hooks(
        context=functools.partial(TracedContext, tracer=tracer),
        trace_cache=functools.partial(TracedTraceCache, tracer=tracer),
        store=functools.partial(TracedStore, tracer=tracer),
        journal=functools.partial(TracedJournal, tracer=tracer),
        driver_span=tracer.driver,
    )


def self_times(spans: list) -> dict:
    """Per-layer self time: each span's duration minus the part of it
    its children cover (children never overlap: one thread)."""
    child = {s.id: 0.0 for s in spans}
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.duration
    totals = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        totals[s.layer] += s.duration - child[s.id]
    return totals


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer counts and host times derived from the spans."""
    spans = tracer.spans

    def named(name):
        return [s for s in spans if s.name == name]

    def total(group):
        return sum(s.duration for s in group)

    sims = named("simulate")
    loads = named("cache_load")
    gets = named("store_get")
    cell_s = sorted(s.duration for s in sims)
    busy = total(sims)
    loop = sum(s.attrs["loop_s"] for s in sims)
    requested = sum(s.attrs["requested"] for s in named("run_many"))
    store_hits = sum(1 for s in gets if s.attrs["hit"])
    memo_hits = requested - len(sims) - store_hits
    if len(cell_s) > 1:
        deciles = statistics.quantiles(cell_s, n=10, method="inclusive")
    else:
        deciles = (cell_s or [0.0]) * 9
    selfs = self_times(spans)
    drivers = [s for s in spans if s.parent is None]
    out = {
        "trace.generate_calls": len(named("generate")),
        "trace.generate_s": total(named("generate")),
        "trace.ops": (sum(s.attrs["ops"] for s in named("generate"))
                      + sum(s.attrs["ops"] for s in loads)),
        "trace.cache_load_s": total(loads),
        "trace.cache_store_s": total(named("cache_store")),
        "trace.cache_hits": sum(1 for s in loads if s.attrs["hit"]),
        "trace.cache_misses": sum(1 for s in loads if not s.attrs["hit"]),
        "engine.cells": len(sims),
        "engine.busy_s": busy,
        "engine.loop_s": loop,
        "engine.prep_s": busy - loop,
        "engine.cell_p50_s": deciles[4],
        "engine.cell_p90_s": deciles[8],
        "engine.vectorized_share": (
            sum(1 for s in sims if s.attrs["engine"] == "vectorized")
            / len(sims) if sims else 0.0),
        "experiments.cells_requested": requested,
        "experiments.cells_simulated": len(sims),
        "experiments.memo_hit_ratio": (memo_hits / requested
                                       if requested else 0.0),
        "experiments.store_put_s": total(named("store_put")),
        "experiments.store_get_s": total(gets),
        "experiments.store_hits": store_hits,
        "experiments.journal_s": total(named("journal")),
        "experiments.replay_s": total(
            [s for s in drivers if s.name.endswith("-replay")]),
        "telemetry.manifest_s": total(named("write_cell_artifacts")),
        "telemetry.manifests": len(named("write_cell_artifacts")),
        "analysis.wall_s": total(drivers),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = selfs[layer]
    return out
