#!/usr/bin/env python3
"""Figure-regeneration benchmark for the HMG reproduction.

Usage (from the repository root)::

    python3 figbench/run.py --workload fig8-quick --seconds 40 --trace 0

A run sets the workload up ``SETUPS`` times in fresh interpreters
(``setup_s`` is their median), then regenerates the figure through the
public driver in this process, repeating whole regenerations while the
next one is expected to end within ``--seconds`` (always at least one),
and checks every cell against the scalar-engine reference
(``bench_check``).  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` makes one untraced and one traced pass and reports the
per-layer metrics, writing the spans to ``.figbench/``.  The last line
of standard output is the JSON result; the lines before it print every
metric by name and unit, the host fingerprint and any failed check.
See ``figbench/README.md`` for what each metric should move.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Where runs keep their work directories and span files.
SCRATCH = ROOT / ".figbench"
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: Upper bound on one set-up, so a wedged child cannot hang the run.
SETUP_TIMEOUT_S = 30


def unit_of(name: str) -> str:
    if name == "sim_ops_per_s":
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name == "peak_rss_mb":
        return "MB"
    if name.endswith("_pp"):
        return "pp"
    if (name.endswith(("_frac", "_ratio", "_share"))
            or ".l2_hit_rate." in name):
        return "ratio"
    if ".sim_cycles." in name:
        return "cycles"
    if "_bytes." in name:
        return "bytes"
    return "count"


def host_fingerprint() -> dict:
    """CPU model, core count and toolchain versions, printed beside every
    result so figures from different hosts are never compared."""
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def timed_setup(workload, seed: int, workdir: Path) -> float:
    """One set-up in a fresh interpreter, timed from spawn to exit."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, str(HERE / "bench_prepare.py"),
         json.dumps(dataclasses.asdict(workload)), str(seed), str(workdir)],
        check=True, timeout=SETUP_TIMEOUT_S)
    return time.perf_counter() - start


def design_metrics(results: dict) -> dict:
    """Modelled-design statistics per protocol, summed over the cells
    (the L2 hit rate pooled over them).  Identical on any speed-only
    change."""
    from bench_workloads import FIG8_COLUMNS

    out = {}
    for protocol in FIG8_COLUMNS:
        cells = [r for (_, p), r in results.items() if p == protocol]
        hits = sum(r.l2_stats.hits for r in cells)
        accesses = sum(r.l2_stats.accesses for r in cells)
        out[f"engine.sim_cycles.{protocol}"] = sum(r.cycles for r in cells)
        out[f"interconnect.link_bytes.{protocol}"] = sum(
            r.inter_gpu_bytes for r in cells)
        out[f"memsys.dram_bytes.{protocol}"] = sum(
            r.dram_bytes for r in cells)
        out[f"memsys.l2_hit_rate.{protocol}"] = (
            hits / accesses if accesses else 0.0)
        out[f"core.invalidations.{protocol}"] = sum(
            r.stats.inv_messages for r in cells)
    return out


def check(workload, seed: int, passes: list):
    """Run every correctness check over every pass; returns the verdict
    and a line saying where the reference came from."""
    import bench_check as bc

    verdict = bc.Verdict()
    how = ""
    for p in passes:
        reference, how = bc.reference_for(workload, seed, p.results)
        bc.check_cells(verdict, p.results, reference)
        if workload.covers_figure():
            bc.check_ordering(verdict, p.data["geomeans"])
        if p.replay_text is not None:
            bc.check_replay(verdict, p.text, p.replay_text)
    return verdict, how


def bench(workload, seed: int, seconds: float, trace: bool,
          scratch: Path = SCRATCH) -> dict:
    """One benchmark run; returns ``{"result": ..., "lines": [...]}``
    where ``result`` is the JSON object the run prints last."""
    from bench_check import headline_err_pp
    from bench_trace import Tracer, hooks_for, installed, layer_metrics
    from bench_workloads import run_pass

    workdir = scratch / f"work-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        setups = [timed_setup(workload, seed, workdir / f"setup-{i}")
                  for i in range(SETUPS)]
        inputs = workdir / f"setup-{SETUPS - 1}"
        passes, start = [], time.perf_counter()
        while True:
            passes.append(run_pass(workload, seed, inputs, len(passes)))
            elapsed = time.perf_counter() - start
            if trace or elapsed + passes[-1].wall_s > seconds:
                break
        rss = peak_rss_mb()
        if trace:
            tracer = Tracer()
            with installed(tracer):
                traced = run_pass(workload, seed, inputs, len(passes),
                                  hooks=hooks_for(tracer))
            passes.append(traced)
        verdict, how = check(workload, seed, passes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed_frac = verdict.failed / verdict.attempted
    untraced = passes[:-1] if trace else passes
    walls = [p.wall_s for p in untraced]
    if trace:
        metrics = layer_metrics(tracer)
        metrics["bench.trace_overhead_s"] = traced.wall_s - walls[0]
        metrics.update(design_metrics(traced.results))
    else:
        ops = [sum(r.ops for r in p.results.values()) / p.wall_s
               for p in untraced]
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            "sim_ops_per_s": statistics.median(ops),
            "peak_rss_mb": rss,
            "cells_ok_frac": 1.0 - failed_frac,
            "headline_err_pp": headline_err_pp(passes[0].data["geomeans"]),
        }
    host = host_fingerprint()
    lines = [f"# figbench {workload.name} seed={seed} passes={len(walls)}"
             f"{' +1 traced' if trace else ''}; reference: {how}",
             f"# host {json.dumps(host, sort_keys=True)}",
             f"# setup_s runs: {', '.join(f'{s:.4f}' for s in setups)}",
             f"# wall_s passes: {', '.join(f'{w:.4f}' for w in walls)}",
             f"cells_failed_frac {failed_frac} ratio "
             f"({verdict.failed} of {verdict.attempted} checks)"]
    lines += [f"{name} {value} {unit_of(name)}"
              for name, value in metrics.items()]
    lines += [f"# FAILED {problem}" for problem in verdict.problems]
    if trace:
        out = scratch / f"spans-{workload.name}-seed{seed}.json"
        out.write_text(json.dumps({
            "workload": workload.name, "seed": seed, "host": host,
            "untraced_wall_s": walls[0], "metrics": metrics,
            "spans": tracer.to_json()}, indent=1) + "\n")
        lines.append(f"# spans written to {out}")
    result = {
        "correct": verdict.failed == 0,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }
    return {"result": result, "lines": lines}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        description="Time figure regeneration end to end (--trace 0) or "
                    "by layer (--trace 1).")
    parser.add_argument("--workload", required=True,
                        help="fig8-quick or fig8-full-hotset")
    parser.add_argument("--seed", type=int, default=1,
                        help="trace seed (default 1, the committed "
                             "reference's; use another to check claims)")
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="measurement budget: whole regenerations "
                             "are repeated while the next fits")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"figbench: no repro package under {SRC}; run from a full "
              f"checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from bench_workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"figbench: unknown workload {args.workload!r}; known: "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    SCRATCH.mkdir(exist_ok=True)
    report = bench(WORKLOADS[args.workload], args.seed, args.seconds,
                   bool(args.trace))
    for line in report["lines"]:
        print(line)
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
