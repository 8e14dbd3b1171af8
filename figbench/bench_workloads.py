"""The benchmark's workloads: whole figure regenerations through the
public experiment drivers (``run_experiment`` on an ``ExperimentContext``,
one process, ``jobs=1``).

A workload fixes the driver, its trace length (``ops_scale``) and the
Table III traces it sweeps.  A *durable* workload additionally runs as a
persistent sweep: its trace cache is warmed during set-up, every pass
gets a fresh results store, journal and telemetry directory, and a
replay pass on a fresh context over the same directories must print the
same table byte for byte.
"""

from __future__ import annotations

import time
from contextlib import ExitStack, closing, nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from repro.config import SystemConfig
from repro.core.registry import FIGURE8_PROTOCOLS
from repro.experiments.journal import RunJournal
from repro.experiments.registry import run_experiment
from repro.experiments.runner import ExperimentContext
from repro.experiments.store import ResultStore
from repro.trace.cache import TraceCache
from repro.trace.workloads import FIGURE_ORDER

#: The driver every workload regenerates, and its protocol columns
#: (baseline first).
DRIVER = "fig8"
FIG8_COLUMNS = ("noremote", *FIGURE8_PROTOCOLS)
#: Capacity scale of the platform: the CLI's default ``--scale``.
SCALE = 1 / 16


@dataclass(frozen=True)
class Workload:
    name: str
    ops_scale: float
    traces: tuple
    durable: bool

    def cells(self) -> list:
        """Every (trace, protocol) cell the driver simulates."""
        return [(trace, protocol) for trace in self.traces
                for protocol in FIG8_COLUMNS]

    @staticmethod
    def config() -> SystemConfig:
        return SystemConfig.paper_scaled(SCALE)

    def covers_figure(self) -> bool:
        """True when the sweep spans every Table III trace, so the
        figure's geomeans are the paper's headline."""
        return set(self.traces) == set(FIGURE_ORDER)


WORKLOADS = {
    # `python -m repro.experiments fig8 --quick`: all 20 traces, short.
    "fig8-quick": Workload("fig8-quick", 0.25, FIGURE_ORDER,
                           durable=False),
    # Full-length traces whose working sets overflow the scaled L2
    # (MiniAMR, mst) or that share along wavefronts / RNN layers (snap,
    # RNN_DGRAD), swept durably from a warm trace cache.
    "fig8-full-hotset": Workload(
        "fig8-full-hotset", 1.0,
        ("snap", "MiniAMR", "mst", "RNN_DGRAD"), durable=True),
}


def trace_cache_dir(workdir: Path) -> Path:
    return Path(workdir) / "trace-cache"


def prepare(workload: Workload, seed: int, workdir: Path) -> None:
    """Everything a fresh process does before the driver call: build the
    platform and a context and, for a durable workload, warm the trace
    cache in ``workdir``."""
    cfg = workload.config()
    cache = (TraceCache(trace_cache_dir(workdir))
             if workload.durable else None)
    with closing(ExperimentContext(
            cfg, seed=seed, ops_scale=workload.ops_scale,
            workloads=workload.traces, trace_cache=cache)):
        if cache is not None:
            for trace in workload.traces:
                cache.get_or_generate(trace, cfg, seed, workload.ops_scale)


@dataclass
class Pass:
    """One figure regeneration: the driver's output and its cells."""

    wall_s: float
    text: str
    data: dict
    results: dict  # (trace, protocol) -> SimResult
    replay_text: Optional[str] = None


def _no_span(name: str):
    return nullcontext()


@dataclass
class Hooks:
    """Classes and a driver-span factory a traced pass substitutes; the
    defaults are the program's own, so an untraced pass runs exactly
    what ``python -m repro.experiments`` runs."""

    context: Callable = ExperimentContext
    trace_cache: Callable = TraceCache
    store: Callable = ResultStore
    journal: Callable = RunJournal
    driver_span: Callable = _no_span


def _timed_driver(ctx, hooks, name):
    start = time.perf_counter()
    with hooks.driver_span(name):
        result = run_experiment(DRIVER, ctx)
    return result, time.perf_counter() - start


def run_pass(workload: Workload, seed: int, workdir: Path, index: int,
             hooks: Hooks = None) -> Pass:
    """Regenerate the workload's figure once; ``wall_s`` counts only the
    time inside driver calls (the sweep, plus the replay if durable)."""
    hooks = hooks or Hooks()
    cfg = workload.config()
    common = dict(seed=seed, ops_scale=workload.ops_scale,
                  workloads=workload.traces)
    if not workload.durable:
        with closing(hooks.context(cfg, **common)) as ctx:
            result, wall = _timed_driver(ctx, hooks, DRIVER)
            results = dict(zip(workload.cells(),
                               ctx.run_many(workload.cells())))
        return Pass(wall, result.text, result.data, results)

    root = Path(workdir) / f"pass-{index}"
    key = {"seed": seed, "scale": SCALE,
           "ops_scale": workload.ops_scale,
           "workloads": list(workload.traces)}
    texts, wall, results = [], 0.0, {}
    for name in (DRIVER, f"{DRIVER}-replay"):
        with ExitStack() as stack:
            store = stack.enter_context(closing(hooks.store(root / "store")))
            journal = stack.enter_context(closing(
                hooks.journal(root / "journal", context_key=key)))
            ctx = stack.enter_context(closing(hooks.context(
                cfg, **common, store=store, journal=journal,
                trace_cache=hooks.trace_cache(trace_cache_dir(workdir)),
                telemetry_dir=root / "telemetry")))
            journal.begin_experiment(DRIVER)
            result, elapsed = _timed_driver(ctx, hooks, name)
            journal.record_experiment(result, elapsed)
            wall += elapsed
            texts.append(result.text)
            if not results:
                data = result.data
                results = dict(zip(workload.cells(),
                                   ctx.run_many(workload.cells())))
    return Pass(wall, texts[0], data, results, replay_text=texts[1])
