"""The throughput engine's columnar loop against the per-op loop.

Plain and telemetry runs feed the protocol handlers straight from the
trace columns (``ThroughputEngine._run_columns``); sanitized runs call
``CoherenceProtocol.process`` once per materialized ``MemOp``.  Both
reach the same handlers, so every ``SimResult`` field — counters, dict
key order, cache stats, per-resource times — must agree exactly.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st_

from repro.config import SystemConfig
from repro.core.registry import PROTOCOLS
from repro.core.types import MemOp, NodeId, OpType, Scope
from repro.engine.simulator import simulate
from repro.faults import make_fault_plan
from repro.trace.batch import BatchTrace, as_batch, decoded
from repro.trace.stream import Trace
from repro.trace.workloads import WORKLOADS

CFG = SystemConfig.paper_scaled(1 / 64)
ALL_PROTOCOLS = sorted(PROTOCOLS)
PLACEMENTS = ("first_touch", "interleave", "single")
PLANS = (None, "lossy")


class _PerOp:
    """A do-nothing sanitizer: attaching it routes a run through the
    engine's per-op ``process()`` loop without checking anything."""

    def after_op(self, proto, op, outcome, index):
        pass


def snapshot(value):
    """Every field of a result, recursively, with dicts as ordered item
    lists (so key order is compared too); ``wall_seconds`` and the
    config are dropped."""
    if dataclasses.is_dataclass(value):
        return [(f.name, snapshot(getattr(value, f.name)))
                for f in dataclasses.fields(value)
                if f.name not in ("wall_seconds", "cfg")]
    if isinstance(value, dict):
        return [(repr(k), snapshot(v)) for k, v in value.items()]
    if isinstance(value, (list, tuple)):
        return [snapshot(v) for v in value]
    return value


def both(trace, protocol, placement="first_touch", plan=None, cfg=CFG):
    fault_plan = make_fault_plan(plan) if plan else None
    kwargs = dict(protocol=protocol, placement=placement,
                  fault_plan=fault_plan)
    columnar = simulate(trace, cfg, **kwargs)
    per_op = simulate(trace, cfg, sanitizer=_PerOp(), **kwargs)
    return columnar, per_op


@pytest.fixture(scope="module")
def traces():
    return {name: WORKLOADS[name].generate(CFG, seed=1, ops_scale=0.05)
            for name in ("CoMD", "mst", "cuSolver")}


@pytest.mark.parametrize("plan", PLANS)
@pytest.mark.parametrize("placement", PLACEMENTS)
@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
@pytest.mark.parametrize("workload", ("CoMD", "mst", "cuSolver"))
def test_columnar_matches_per_op(traces, workload, protocol, placement,
                                 plan):
    columnar, per_op = both(traces[workload], protocol, placement, plan)
    assert snapshot(columnar) == snapshot(per_op)


def test_matches_real_sanitizer(traces):
    """The sanitizer itself only observes: a sanitized run is the
    per-op loop, and agrees with the columnar one."""
    for protocol in ("hmg", "sw"):
        plain = simulate(traces["mst"], CFG, protocol=protocol)
        checked = simulate(traces["mst"], CFG, protocol=protocol,
                           sanitize=True)
        assert snapshot(plain) == snapshot(checked)


_nodes = st_.builds(NodeId, gpu=st_.integers(0, CFG.num_gpus - 1),
                    gpm=st_.integers(0, CFG.gpms_per_gpu - 1))
_ops = st_.builds(
    MemOp,
    op=st_.sampled_from(list(OpType)),
    # A few pages' worth of lines, so ops share lines, sectors, pages.
    address=st_.integers(0, 6 * CFG.page_size // CFG.line_size).map(
        lambda line: line * CFG.line_size),
    node=_nodes,
    cta=st_.integers(0, 63),
    scope=st_.sampled_from(list(Scope)),
    size=st_.sampled_from([4, 8, 16, 64, 128, 256]),
)


@settings(max_examples=25, deadline=None)
@given(ops=st_.lists(_ops, min_size=1, max_size=120))
def test_hand_built_traces_hit_every_path(ops):
    """Hypothesis-drawn traces mixing every kind and scope."""
    trace = Trace("drawn", ops)
    for protocol in ALL_PROTOCOLS:
        columnar, per_op = both(trace, protocol)
        assert snapshot(columnar) == snapshot(per_op)


def test_plain_op_lists_run_columnar():
    ops = [MemOp(OpType.LOAD, 0, NodeId(1, 2), cta=5, scope=Scope.GPU),
           MemOp(OpType.STORE, 128, NodeId(0, 0), size=8),
           MemOp(OpType.KERNEL_BOUNDARY, 0, NodeId(0, 0),
                 scope=Scope.SYS)]
    columnar, per_op = both(ops, "hmg")
    assert snapshot(columnar) == snapshot(per_op)
    assert columnar.stats.op_counts == {OpType.LOAD: 1, OpType.STORE: 1,
                                        OpType.KERNEL_BOUNDARY: 1}


class TestDecoded:
    def test_columns_match_protocol_locate(self, traces):
        from repro.core.registry import make_protocol

        trace = traces["mst"]
        cols = decoded(trace.batch, CFG)
        proto = make_protocol("hmg", CFG)
        for i in range(0, len(trace), 97):
            line, _, flat, slot = proto.locate(trace[i])
            assert (cols.line[i], cols.flat[i], cols.slot[i]) == \
                (line, flat, slot)

    def test_memoized_per_geometry(self, traces):
        batch = traces["CoMD"].batch
        assert decoded(batch, CFG) is decoded(batch, CFG)
        other = SystemConfig.paper_scaled(1 / 64, num_gpus=2)
        assert decoded(batch, other) is not decoded(batch, CFG)

    def test_kind_order_is_first_appearance(self):
        ops = [MemOp(OpType.STORE, 0, NodeId(0, 0)),
               MemOp(OpType.ACQUIRE, 0, NodeId(0, 1)),
               MemOp(OpType.LOAD, 0, NodeId(0, 0)),
               MemOp(OpType.STORE, 0, NodeId(0, 0))]
        cols = decoded(BatchTrace.from_ops(ops), CFG)
        assert cols.kind_order == (OpType.STORE, OpType.ACQUIRE,
                                   OpType.LOAD)
        assert cols.kind_counts[OpType.STORE] == 2
        assert cols.ops_per_gpm[:2] == [3, 1]


class TestContextDecodesOnce:
    """An experiment context keeps each trace as one ``Trace``: every
    cell, on either engine, shares its columns."""

    def test_without_cache(self, monkeypatch):
        from repro.experiments.runner import ExperimentContext
        from repro.trace import batch as batch_mod

        built = []
        real = batch_mod.Decoded.__init__

        def counting(self, *args, **kwargs):
            built.append(1)
            real(self, *args, **kwargs)

        monkeypatch.setattr(batch_mod.Decoded, "__init__", counting)
        packs = []
        real_from_ops = BatchTrace.from_ops.__func__
        monkeypatch.setattr(
            BatchTrace, "from_ops",
            classmethod(lambda cls, ops: packs.append(1)
                        or real_from_ops(cls, ops)))
        ctx = ExperimentContext(CFG, seed=1, ops_scale=0.05,
                                workloads=["CoMD"])
        trace = ctx.trace("CoMD")
        assert isinstance(trace, Trace)
        assert ctx.trace("CoMD") is trace
        for protocol in ("noremote", "hmg", "sw"):
            ctx.run("CoMD", protocol)
        for protocol in ("hmg", "nhcc"):
            simulate(ctx.trace("CoMD"), CFG, protocol=protocol,
                     engine="vectorized")
        assert as_batch(trace) is trace.batch
        assert len(built) == 1
        assert packs == []

    def test_with_cache(self, tmp_path):
        from repro.experiments.runner import ExperimentContext

        ExperimentContext(CFG, seed=1, ops_scale=0.05,
                          trace_cache=tmp_path).trace("CoMD")
        ctx = ExperimentContext(CFG, seed=1, ops_scale=0.05,
                                trace_cache=tmp_path)
        trace = ctx.trace("CoMD")
        assert isinstance(trace, Trace)
        assert ctx.trace_cache.hits == 1
        ctx.run("CoMD", "hmg")
        ctx.run("CoMD", "sw")
        # Both cells shared one set of derived columns.
        assert list(trace.batch.prepared.values()) == [
            decoded(trace.batch, CFG)]
