#!/usr/bin/env python
"""Calibration helper: print a Fig 8-style speedup table for quick
eyeballing against the paper while tuning workload parameters.

Usage: python tools/calibrate.py [workload ...] [--scale F] [--seed N]
"""

import argparse
import math
import sys
import time

from repro import SystemConfig, WORKLOADS, FIGURE_ORDER, compare, speedups
from repro.core.registry import FIGURE8_PROTOCOLS

# Rough per-app shape targets transcribed from Fig 8 (bars read off the
# figure; the four annotated clipped apps are exact).  Order:
# (NH-SW, NHCC, H-SW, HMG, Ideal).
PAPER_FIG8 = {
    "overfeat": (1.0, 1.0, 1.05, 1.05, 1.05),
    "MiniAMR": (1.05, 1.05, 1.1, 1.1, 1.1),
    "AlexNet": (1.2, 1.25, 1.3, 1.35, 1.35),
    "CoMD": (1.25, 1.3, 1.35, 1.4, 1.4),
    "HPGMG": (1.3, 1.35, 1.45, 1.5, 1.5),
    "MiniContact": (1.35, 1.4, 1.5, 1.6, 1.6),
    "pathfinder": (1.35, 1.4, 1.6, 1.65, 1.7),
    "Nekbone": (1.45, 1.5, 1.6, 1.7, 1.7),
    "cuSolver": (1.45, 1.55, 1.7, 1.8, 1.8),
    "namd2.10": (1.5, 1.6, 1.8, 1.9, 1.9),
    "resnet": (1.7, 1.8, 2.0, 2.1, 2.1),
    "mst": (1.6, 1.7, 2.2, 2.0, 2.2),
    "nw-16K": (1.8, 1.9, 2.2, 2.3, 2.3),
    "lstm": (3.1, 3.1, 3.2, 3.2, 3.2),
    "RNN_FW": (3.4, 3.5, 3.7, 4.1, 4.0),
    "RNN_DGRAD": (3.7, 3.6, 4.4, 4.3, 4.4),
    "GoogLeNet": (2.2, 2.3, 2.4, 2.5, 2.5),
    "bfs": (2.0, 2.1, 2.4, 2.5, 2.6),
    "snap": (3.3, 3.4, 7.0, 7.2, 7.1),
    "RNN_WGRAD": (1.9, 2.1, 2.3, 2.5, 2.5),
}


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("workloads", nargs="*", default=None)
    parser.add_argument("--scale", type=float, default=1 / 16)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--ops-scale", type=float, default=1.0)
    args = parser.parse_args()

    cfg = SystemConfig.paper_scaled(args.scale)
    names = args.workloads or list(FIGURE_ORDER)
    protos = list(FIGURE8_PROTOCOLS)
    header = f"{'workload':12s} " + " ".join(f"{p:>7s}" for p in protos)
    print(header + "   | paper (NH-SW NHCC H-SW HMG Ideal)")
    print("-" * len(header))
    all_speedups = {p: [] for p in protos}
    t0 = time.time()
    for name in names:
        trace = WORKLOADS[name].generate(cfg, seed=args.seed,
                                         ops_scale=args.ops_scale)
        results = compare(trace, cfg, ["noremote"] + protos,
                          workload_name=name)
        sp = speedups(results)
        for p in protos:
            all_speedups[p].append(sp[p])
        row = f"{name:12s} " + " ".join(f"{sp[p]:7.2f}" for p in protos)
        paper = PAPER_FIG8.get(name)
        tail = " ".join(f"{v:.1f}" for v in paper) if paper else ""
        print(row + "   | " + tail)
    if len(names) > 1:
        print("-" * len(header))
        row = f"{'GeoMean':12s} " + " ".join(
            f"{geomean(all_speedups[p]):7.2f}" for p in protos
        )
        print(row + "   | 1.44 1.53 1.69 1.81 1.87 (from paper text)")
    print(f"[{time.time() - t0:.1f}s]", file=sys.stderr)


if __name__ == "__main__":
    main()
