"""Trace generation is pinned bit for bit.

The sha256 of every Table III trace's packed ``<BQBBHBI>`` payload (the
trace cache's on-disk bytes) at the CLI's default platform scale,
``ops_scale`` 0.25 and seed 1 — the ``fig8 --quick`` traces.  The
digests were recorded from the op-object generator that preceded the
columnar one, so a pass here shows columnar emission reproduces it
exactly; any intended change to a generator must update its digest.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.config import SystemConfig
from repro.trace.workloads import FIGURE_ORDER, WORKLOADS

CFG = SystemConfig.paper_scaled(1 / 16)

#: workload -> (ops, sha256 of the packed payload).
DIGESTS = {
    "overfeat": (23320, "9a555f9a8cae084cdbac04b99088b8a6"
                        "ede20ba4c6ebeee47c055b1a8053c9da"),
    "MiniAMR": (27736, "593a7f283b90e77be38ccac0f2b55328"
                       "084610d174cbed253b4c9ddb9c42430a"),
    "AlexNet": (29000, "ea29001b2dd7bb5072c5841b8843ff44"
                       "5974d4eef7b23de9ccc578cb5f346287"),
    "CoMD": (27720, "14e54abb1f23474ab6d82d89da15dfbc"
                    "1ec0a3531031012f0d670ea83b379519"),
    "HPGMG": (31912, "afd76b2e2042177d1cffe5333697c1b5"
                     "b63a3e88906e6c05c85d7f0ca31f8014"),
    "MiniContact": (31909, "0fc3df217055c4ca823866b913b07d8c"
                           "f4f28695ccc1654cd1dc0df39258c1e6"),
    "pathfinder": (27744, "5274c99eda1dc8ff6ac9dcda9d0c5410"
                          "6dbe95ae45cb1cad057fbd4a62fc999a"),
    "Nekbone": (31272, "dfc868d4f92a93bf5d728367c6f97170"
                       "7b50e3a7c101165b21567c56b0ce7449"),
    "cuSolver": (48373, "03b97850cfc81d7cc84142848bad7138"
                        "743c1f1d359d94ebec4ea94d36d57a7a"),
    "namd2.10": (48853, "d1534b52b60f4b56f8226ce933c5741b"
                        "037b86c7eb4f88687866da509f98e22a"),
    "resnet": (50952, "16b7d33061e3be8c43437b7f63642351"
                      "2bf0f05cbba64a3c22d99f688c54716b"),
    "mst": (31205, "f885f26ea1208f3bd1ec63b84ddef00a"
                   "8d898da4344788839f56e90ef95df0c6"),
    "nw-16K": (29856, "fc6cb7dd4095dc57e4f1b6666a12c585"
                      "aad7b5686d3297d976745ad346f5a2a5"),
    "lstm": (34600, "9ef93508a7768d04b9e10561b6dd7be7"
                    "96ab47b7f1de2bab291e3a399a3c67b8"),
    "RNN_FW": (42600, "9667ff1e671dd30f5f0caabbae4a0d2d"
                      "18936ed963bfe6d820a3c13d7d63b318"),
    "RNN_DGRAD": (39272, "bac97fb0533e8510e6fa645f2a87cd7e"
                         "bd1540d09a335a5de49a8d3131f6c048"),
    "GoogLeNet": (42632, "85cdd4cdadc9f8b9c5aedec5a2b213c8"
                         "75d58d755f7ec2ee4759afd08adce320"),
    "bfs": (28901, "fc9274a9068c370f7b1221ed322f8851"
                   "4cb689a4fc6a8ebb408a4047565e0f3c"),
    "snap": (34848, "179f62cff20e06ca0627aefe9ea7bc32"
                    "0436897bacbcd5e4a1d1daa61682d43b"),
    "RNN_WGRAD": (37064, "0a31dfa207031560bafe0a1df4723373"
                         "3911782c401416d93b105c8564f590f1"),
}


def test_every_figure_workload_is_pinned():
    assert sorted(DIGESTS) == sorted(FIGURE_ORDER)


@pytest.mark.parametrize("workload", FIGURE_ORDER)
def test_payload_digest(workload):
    trace = WORKLOADS[workload].generate(CFG, seed=1, ops_scale=0.25)
    ops, digest = DIGESTS[workload]
    assert len(trace) == ops
    assert hashlib.sha256(trace.batch.payload()).hexdigest() == digest
