"""Per-op protocol outcomes are pinned bit for bit.

The sha256 of the ``(version, latency, exposed, hit_level)`` stream that
``CoherenceProtocol.process`` returns, op by op, for three workloads
that carry synchronizing ops (mst, cuSolver, namd2.10) under every
protocol and two page placements; and the detailed engine's gated
result fields for two cells.  The digests were recorded before the load
and store handlers began returning a packed code instead of an
``AccessOutcome``, so a pass here shows that the outcomes rebuilt from
that code — and the detailed engine that reads them — are unchanged.
The last test checks the other side of that contract: the throughput
engine's columnar loop builds no outcome for a load or store at all.

namd2.10 runs at ``ops_scale`` 0.15 because at 0.05 and 0.1 its trace is
byte-identical to cuSolver's on this platform.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.config import SystemConfig
from repro.core.protocol import AccessOutcome
from repro.core.registry import PROTOCOLS, make_protocol
from repro.core.types import OpType
from repro.engine.equivalence import result_fields
from repro.engine.simulator import simulate
from repro.memsys.cache import CacheLine
from repro.trace.batch import BatchTrace
from repro.trace.workloads import WORKLOADS

CFG = SystemConfig.paper_scaled(1 / 64)
#: workload -> ops_scale of its pinned trace.
OPS_SCALE = {"mst": 0.1, "cuSolver": 0.05, "namd2.10": 0.15}

#: (workload, protocol, placement) -> sha256 of the outcome stream.
OUTCOME_DIGESTS = {
    ("mst", "gpuvi", "first_touch"):
        "dcdb262a40a6b54fb566e53cef5f8498"
        "43e69a4604e9866f2af01210a0dd165d",
    ("mst", "gpuvi", "interleave"):
        "59da0467c9f74fc6e942ee3c65314fe8"
        "dab4c4bf96c996fa2ee17fcb44d4866b",
    ("mst", "hmg", "first_touch"):
        "70c5b2c7b26af52f9689ca7bd18ae422"
        "27a725ba0504ad98ee9dc1811c45a64c",
    ("mst", "hmg", "interleave"):
        "96c4fb0fd79781edc3970cab6b351799"
        "a40a4e8042381512c5085cc4fd162bbb",
    ("mst", "hsw", "first_touch"):
        "903a7cd2b438e602f7461a2f1e535527"
        "c25f0bb323bd15b68a2875d54ffdbe8f",
    ("mst", "hsw", "interleave"):
        "6c2fd7557c1f94d17ea5a7ed92ef165a"
        "c3acc1fccddc0e9e7aae03c6f37d09fb",
    ("mst", "ideal", "first_touch"):
        "8c2d95b70d3ab079bfae19d40b0bfe0b"
        "a1f6517f99bfe002b1314e4d6c62b9b9",
    ("mst", "ideal", "interleave"):
        "5032c2efb75432ee60ec09f6b3ace6f2"
        "cd608104d6f1f7345188f54e92dfb0ec",
    ("mst", "nhcc", "first_touch"):
        "726db257bcf88de676ee57b50a3691a3"
        "65ab94110bba837b33a2f0decea3547d",
    ("mst", "nhcc", "interleave"):
        "0da52b8c5f750fa71950f72531dadde5"
        "4c049793c2e2a3bf6b5871577acdd546",
    ("mst", "noremote", "first_touch"):
        "d9dadab55f6bf4be18d97c3003473d82"
        "3c9ba7d2fbdcf3f729f32345b76327b3",
    ("mst", "noremote", "interleave"):
        "6cee621576cdbd6816ac834354de6d94"
        "38f34299cab93e9365b53084295c2b04",
    ("mst", "sw", "first_touch"):
        "319ab3f6c4a99dd1dba28fab4d9cef07"
        "82f941b87c1d1ee2e140a289ef7956b5",
    ("mst", "sw", "interleave"):
        "76754415a1f86f13d992ac7ab00c0acf"
        "3b6aa7983fbee8f213f7f7cc3d90c4d4",
    ("cuSolver", "gpuvi", "first_touch"):
        "62fba34a1a293b0f72bbe2a37b94e6d6"
        "8a00cbd865694a1bc4073eba8bfe1e27",
    ("cuSolver", "gpuvi", "interleave"):
        "b7016356e6b1c6bb82ebd7259b5067ff"
        "303c69e34a7155b05d238052b8a53851",
    ("cuSolver", "hmg", "first_touch"):
        "39f4ee93a86e29666bf17c6bbee22263"
        "61dbb7fc929c5eb3fe8169fc0853aa1b",
    ("cuSolver", "hmg", "interleave"):
        "a566e875684b17fbf784eccd519d681e"
        "5049972b5c65a09bda4f365563e318dc",
    ("cuSolver", "hsw", "first_touch"):
        "ca8dd3acbd3a21ee07f4854367236a6c"
        "aa3ac16dbb45660e7cf2252b93ce5788",
    ("cuSolver", "hsw", "interleave"):
        "4b07c42c9ac81ebdd318aee5451179cd"
        "11408059e4256b7ecc77d6dda52db675",
    ("cuSolver", "ideal", "first_touch"):
        "65f48fa6d483d7e771efaca26733ac3f"
        "6443aa3c5b6f59e289fb22b00ab160b1",
    ("cuSolver", "ideal", "interleave"):
        "d9b56e655f1c59fbdd9824d2471c8833"
        "7fcc62225207a47bdf91025383a06e10",
    ("cuSolver", "nhcc", "first_touch"):
        "88c47c528cd144d360edb24a56ad75e4"
        "bf444043ff7782bb36d970e3c40d29bb",
    ("cuSolver", "nhcc", "interleave"):
        "33095c7e48110122dead11b8eaa6470a"
        "01172f60e12f817dff17c48acbcc3b8f",
    ("cuSolver", "noremote", "first_touch"):
        "c77937b2499e1d40b31530543cc7cdac"
        "28e10602dfe37fd6626d624bb9919cad",
    ("cuSolver", "noremote", "interleave"):
        "70f15783683a37c923179a0953a7919a"
        "cf70c5fc81492e7eeb72f28f58d08b3e",
    ("cuSolver", "sw", "first_touch"):
        "88c47c528cd144d360edb24a56ad75e4"
        "bf444043ff7782bb36d970e3c40d29bb",
    ("cuSolver", "sw", "interleave"):
        "bd12b9a4329f287c29defa54626a5c17"
        "eedbe5e9f835f8da290a2ee9ee7dfc47",
    ("namd2.10", "gpuvi", "first_touch"):
        "281f62e9b9d58463c4a2052840288a22"
        "0abbd0dff8124a9e5c805770243eaca5",
    ("namd2.10", "gpuvi", "interleave"):
        "0df61c5563572b2e618c94e94f68f1ad"
        "2897da044fb9520ca6c8bd3ee01bae64",
    ("namd2.10", "hmg", "first_touch"):
        "493fabbf92a9e14bc4a276a0953ca56f"
        "0a14b9a33debe93ddfb975c5c356630b",
    ("namd2.10", "hmg", "interleave"):
        "132cdb5cadaaa752d61c5471fc0b9674"
        "e4058fcb7eb798e92ae6a81717b4d18f",
    ("namd2.10", "hsw", "first_touch"):
        "0ec5b849847cb2552cd8af5e9f46bfa5"
        "adb80659701c6f9c479e75d0af6dc4d7",
    ("namd2.10", "hsw", "interleave"):
        "cc1f1001626bc8d3732833bf304e5c92"
        "55231c9d1dc8e14757af700296f631da",
    ("namd2.10", "ideal", "first_touch"):
        "d387fbbbfc9d55866cb796805d37a9d3"
        "65b199f0f75639ada726d6b1bfb71c8b",
    ("namd2.10", "ideal", "interleave"):
        "aac143bf640211c162c1e37b0499aaa2"
        "1e29fbff9ce64c07a8e4ebe14b8691b2",
    ("namd2.10", "nhcc", "first_touch"):
        "37bc51c72e65af5568f3de08f70a47e6"
        "777d9c1b5668ece62ccaa6ea3301895f",
    ("namd2.10", "nhcc", "interleave"):
        "8aa9660d20b73db2593a48d1ff3b2769"
        "ab6013448cb7f461e40584853cc34f0a",
    ("namd2.10", "noremote", "first_touch"):
        "c324bb3a8ba479f171d0ec167f6475c5"
        "b708a1f875436c9052f42f731c8a1566",
    ("namd2.10", "noremote", "interleave"):
        "7b56081e53de6cdbb8e6739c9bc1c423"
        "8f7085a4e289ca8bccee9cc90ee77f93",
    ("namd2.10", "sw", "first_touch"):
        "3ab9bb0e6a4747e0c674cc9ca338cd49"
        "73cb849bee23a0b2d1ab4c1dc6ba4516",
    ("namd2.10", "sw", "interleave"):
        "fcacf7fa7a4afb8645ac0f15be6a2cac"
        "4136e12fe984c109ae82c7f83ffb51f6",
}

#: (workload, protocol) -> sha256 of the detailed engine's
#: ``result_fields`` as sorted-key JSON.
DETAILED_DIGESTS = {
    ("mst", "hmg"):
        "14a8b7ddc2293f127966dd7154f53d3d"
        "412ad83ef95703da2ca5ad9f5da10bc7",
    ("cuSolver", "gpuvi"):
        "d7d2e4833e240407d94221b60eb5a590"
        "a36e763f58fb3536bc5ba147ffc9e2fb",
}

_traces: dict = {}


def trace_of(workload):
    if workload not in _traces:
        _traces[workload] = WORKLOADS[workload].generate(
            CFG, seed=1, ops_scale=OPS_SCALE[workload])
    return _traces[workload]


def outcome_digest(workload, protocol, placement):
    proto = make_protocol(protocol, CFG, placement=placement)
    h = hashlib.sha256()
    for op in trace_of(workload):
        o = proto.process(op)
        h.update(f"{o.version},{o.latency!r},{int(o.exposed)},"
                 f"{o.hit_level}\n".encode())
    return h.hexdigest()


def test_every_protocol_is_pinned():
    assert {p for _, p, _ in OUTCOME_DIGESTS} == set(PROTOCOLS)


@pytest.mark.parametrize("key", sorted(OUTCOME_DIGESTS))
def test_outcome_stream(key):
    assert outcome_digest(*key) == OUTCOME_DIGESTS[key]


@pytest.mark.parametrize("key", sorted(DETAILED_DIGESTS))
def test_detailed_result_fields(key):
    workload, protocol = key
    result = simulate(trace_of(workload), CFG, protocol=protocol,
                      engine="detailed")
    fields = json.dumps(result_fields(result), sort_keys=True)
    assert (hashlib.sha256(fields.encode()).hexdigest()
            == DETAILED_DIGESTS[key])


@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
def test_columnar_loads_and_stores_build_no_outcome(protocol, monkeypatch):
    """The throughput engine's columnar loop rebuilds nothing: a trace
    of plain loads and stores allocates no ``AccessOutcome`` and no
    ``CacheLine`` snapshot."""
    records = trace_of("mst").batch.records
    keep = (records["op"] == OpType.LOAD) | (records["op"] == OpType.STORE)
    batch = BatchTrace(records[keep].copy())
    built = []
    init = AccessOutcome.__init__
    unpack = CacheLine.unpack.__func__

    def counted_init(self, *args, **kwargs):
        built.append("outcome")
        init(self, *args, **kwargs)

    def counted_unpack(cls, line, state):
        built.append("line")
        return unpack(cls, line, state)

    monkeypatch.setattr(AccessOutcome, "__init__", counted_init)
    monkeypatch.setattr(CacheLine, "unpack", classmethod(counted_unpack))
    result = simulate(batch, CFG, protocol=protocol)
    assert result.ops == len(batch) > 0
    assert built == []
    # The per-op path over the same ops does build one outcome per op.
    proto = make_protocol(protocol, CFG)
    proto.process(next(iter(batch.iter_ops())))
    assert built == ["outcome"]
