"""Correctness checks run on every benchmark run.

Every cell's ``cycles``, ``link_bytes`` and ``dram_bytes`` are compared
with a scalar ``ThroughputEngine`` reference inside
``repro.engine.equivalence.BOUNDS``.  The reference for the default seed
is committed beside this file (``reference-seed1.json``; rebuild it with
``python3 figbench/bench_check.py``).  On any other seed a cell produced
by a non-reference engine is re-simulated with the scalar engine after
the measured passes; a cell the scalar engine produced itself is its own
reference there.  Each violation is counted, never raised.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference-seed1.json"
REFERENCE_SEED = 1
#: The engine every reference value comes from.
REFERENCE_ENGINE = "throughput"
FIELDS = ("cycles", "link_bytes", "dram_bytes")
#: Paper headline ratios in percentage points: HMG over SW, HMG over
#: NHCC, HMG as a share of idealized caching.
PAPER_HEADLINE_PP = (26.0, 18.0, 97.0)


def cell_fields(result) -> dict:
    from repro.engine.equivalence import result_fields

    fields = result_fields(result)
    return {name: fields[name] for name in FIELDS}


def _key(cell) -> str:
    return "/".join(cell)


def reference_identity(workload) -> dict:
    from bench_workloads import SCALE

    return {"seed": REFERENCE_SEED, "scale": SCALE,
            "ops_scale": workload.ops_scale,
            "traces": list(workload.traces)}


def committed_reference(workload, seed: int):
    """The committed ``{cell key: fields}`` reference, when it was
    recorded for exactly this workload and seed; else None."""
    if seed != REFERENCE_SEED or not REFERENCE_PATH.exists():
        return None
    entry = json.loads(REFERENCE_PATH.read_text()).get(workload.name)
    if entry is None or entry["identity"] != reference_identity(workload):
        return None
    return entry["cells"]


def compute_reference(workload, seed: int, cells=None) -> dict:
    """Simulate ``cells`` (default: all) with the scalar engine directly,
    bypassing the experiments layer the benchmark measures."""
    from repro.engine.simulator import simulate
    from repro.trace.workloads import WORKLOADS

    cfg = workload.config()
    cells = workload.cells() if cells is None else cells
    out, traces = {}, {}
    for trace_name, protocol in cells:
        if trace_name not in traces:
            traces[trace_name] = list(WORKLOADS[trace_name].generate(
                cfg, seed=seed, ops_scale=workload.ops_scale))
        result = simulate(traces[trace_name], cfg, protocol=protocol,
                          engine=REFERENCE_ENGINE,
                          workload_name=trace_name)
        out[_key((trace_name, protocol))] = cell_fields(result)
    return out


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)


def within(name: str, value: float, ref: float) -> bool:
    from repro.engine.equivalence import BOUNDS

    rel, slack = BOUNDS[name]
    return abs(value - ref) <= max(rel * abs(ref), slack)


def check_cells(verdict: Verdict, results: dict, reference: dict) -> None:
    """One check per cell: every gated field inside its bound."""
    for cell, result in results.items():
        ref = reference.get(_key(cell))
        if ref is None:
            verdict.expect(False, f"{_key(cell)}: no reference")
            continue
        got = cell_fields(result)
        bad = [f"{name} {got[name]:g} vs reference {ref[name]:g}"
               for name in FIELDS if not within(name, got[name], ref[name])]
        verdict.expect(not bad, f"{_key(cell)}: {'; '.join(bad)}")


def reference_for(workload, seed: int, results: dict):
    """(reference, how) for a pass's cells; see the module docstring."""
    committed = committed_reference(workload, seed)
    if committed is not None:
        return committed, f"committed seed-{REFERENCE_SEED} reference"
    foreign = [cell for cell, result in results.items()
               if getattr(result, "engine_used", "") != REFERENCE_ENGINE]
    reference = {_key(cell): cell_fields(result)
                 for cell, result in results.items()}
    reference.update(compute_reference(workload, seed, foreign))
    return reference, (f"{len(foreign)} cell(s) re-simulated with the "
                       f"scalar engine; {len(results) - len(foreign)} "
                       f"produced by it")


def headline_pp(geomeans: dict) -> tuple:
    """HMG's three headline ratios, in percentage points."""
    gm = geomeans
    return (100 * (gm["hmg"] / gm["sw"] - 1),
            100 * (gm["hmg"] / gm["nhcc"] - 1),
            100 * gm["hmg"] / gm["ideal"])


def headline_err_pp(geomeans: dict) -> float:
    """Mean absolute gap to the paper's +26% / +18% / 97%."""
    ours = headline_pp(geomeans)
    return sum(abs(a - b) for a, b in zip(ours, PAPER_HEADLINE_PP)) / 3


def check_ordering(verdict: Verdict, geomeans: dict) -> None:
    """The paper's Fig 8 ordering: SW < HMG <= ideal and NHCC < HMG."""
    gm = geomeans
    verdict.expect(gm["sw"] < gm["hmg"], "ordering: SW < HMG")
    verdict.expect(gm["hmg"] <= gm["ideal"], "ordering: HMG <= ideal")
    verdict.expect(gm["nhcc"] < gm["hmg"], "ordering: NHCC < HMG")


def check_replay(verdict: Verdict, text: str, replay_text: str) -> None:
    verdict.expect(replay_text == text,
                   "replay: table differs from the sweep's")


def write_reference() -> None:
    """Record the default-seed reference for every workload."""
    from bench_workloads import WORKLOADS

    payload = {}
    for workload in WORKLOADS.values():
        payload[workload.name] = {
            "identity": reference_identity(workload),
            "engine": REFERENCE_ENGINE,
            "cells": compute_reference(workload, REFERENCE_SEED),
        }
        print(f"{workload.name}: {len(payload[workload.name]['cells'])} "
              f"cells", file=sys.stderr)
    REFERENCE_PATH.write_text(
        json.dumps(payload, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent / "src"))
    write_reference()
