"""Throughput (bottleneck / roofline) timing engine.

GPUs are latency-tolerant and throughput-bound, so execution time is
modelled as the busy time of the most-contended resource:

* per-GPM instruction issue (``ops / issue_rate``) plus exposed
  synchronization stalls,
* per-GPM L2 data banks,
* per-GPM DRAM partitions,
* per-GPU intra-GPU crossbars (inter-GPM network, 2 TB/s),
* per-GPU inter-GPU links (200 GB/s each direction).

The functional coherence model attributes every byte exactly, so the
*relative* ordering of protocols — the paper's actual claim — follows
directly from the byte accounting.  The engine is deterministic and
runs millions of trace ops per second, which is what makes the full
20-workload x 6-protocol x sensitivity sweeps tractable.
"""

from __future__ import annotations

import gc
import time
from typing import TYPE_CHECKING

from repro.config import SystemConfig
from repro.core.protocol import CoherenceProtocol, TrafficSink
from repro.core.types import MsgType, NodeId, OpType, Scope
from repro.engine.stats import (
    DegradationStats,
    ResourceTimes,
    SimResult,
    aggregate_l1_stats,
    aggregate_l2_stats,
    apply_fault_expansion,
    total_dram_bytes,
)

if TYPE_CHECKING:
    from repro.trace.batch import BatchTrace

_LOAD = int(OpType.LOAD)
_STORE = int(OpType.STORE)
#: Ops decoded per ``tolist`` batch by the columnar loop.
_CHUNK = 8192


def _telemetry_hook(tracer, sink, sampler):
    """Per-op telemetry callback ``(index, scope)``: the op index is the
    tracer's and sampler's clock, and a tallying sink learns the scope
    of the messages the op is about to send."""
    has_scope = hasattr(sink, "scope")

    def pre(index: int, scope) -> None:
        now = float(index)
        tracer.set_time(now)
        if has_scope:
            sink.scope = scope
        if sampler is not None:
            sampler.tick(now)

    return pre


class ThroughputSink(TrafficSink):
    """Aggregates message bytes onto interconnect resources.

    A message between GPMs of one GPU crosses that GPU's crossbar once.
    A message between GPUs crosses the source crossbar, the source GPU's
    egress link, the destination GPU's ingress link, and the destination
    crossbar.
    """

    def __init__(self, num_gpus: int):
        self.xbar_bytes = [0] * num_gpus
        self.link_out_bytes = [0] * num_gpus
        self.link_in_bytes = [0] * num_gpus

    def send(self, mtype: MsgType, src: NodeId, dst: NodeId,
             line: int, size_bytes: int) -> None:
        if src == dst:
            return
        if src.gpu == dst.gpu:
            self.xbar_bytes[src.gpu] += size_bytes
            return
        self.xbar_bytes[src.gpu] += size_bytes
        self.link_out_bytes[src.gpu] += size_bytes
        self.link_in_bytes[dst.gpu] += size_bytes
        self.xbar_bytes[dst.gpu] += size_bytes


class ThroughputEngine:
    """Runs a trace through a protocol and produces a :class:`SimResult`.

    An optional :class:`repro.faults.FaultPlan` degrades interconnect
    resources: the engine has no clock, so each affected resource class
    is charged the plan's duty-cycle time-expansion factor (see
    :meth:`repro.faults.FaultPlan.time_expansion`).
    """

    name = "throughput"

    def __init__(self, cfg: SystemConfig, fault_plan=None):
        self.cfg = cfg
        self.fault_plan = fault_plan

    def run(self, protocol: CoherenceProtocol, trace,
            workload_name: str = "trace", sanitizer=None,
            telemetry=None) -> SimResult:
        """Process every op of ``trace`` (a :class:`Trace`, a
        :class:`BatchTrace` or a sequence of :class:`MemOp`).

        Runs take the columnar loop (:meth:`_run_columns`).  A
        ``sanitizer`` inspects a ``MemOp`` per op, so sanitized runs
        feed :meth:`CoherenceProtocol.process` one materialized op at a
        time (:meth:`_run_ops`); both loops reach the same protocol
        handlers.

        ``telemetry`` is an optional
        :class:`repro.telemetry.TelemetrySession`.  The clockless
        engine samples analytically per phase: the sampler's clock is
        the op index, and messages trace as zero-duration instants
        (via :class:`repro.telemetry.session.TallyingSink`, which the
        simulator front-end installs).  ``None`` leaves the loops
        without a per-op hook.
        """
        cfg = self.cfg
        sink = protocol.sink
        if not isinstance(sink, ThroughputSink):
            raise TypeError(
                "protocol must be constructed with a ThroughputSink "
                "(use repro.engine.simulator.simulate)"
            )
        stall = [0.0] * cfg.total_gpms
        pre = sampler = None
        if telemetry is not None:
            tracer = telemetry.active_tracer
            protocol.set_tracer(tracer)
            sampler = telemetry.sampler
            if sampler is not None:
                from repro.telemetry.session import make_throughput_snapshot

                sampler.attach(make_throughput_snapshot(
                    protocol, sink, telemetry
                ))
            pre = _telemetry_hook(tracer, sink, sampler)
        # The loop allocates millions of short-lived objects (victim
        # tuples, directory entries, the sync ops' outcomes); none of
        # them form cycles, so the cyclic GC's periodic generation scans
        # are pure overhead — pause it for the duration.  Reference
        # counting still frees everything promptly.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        start = time.perf_counter()
        try:
            if sanitizer is None:
                from repro.trace.batch import as_batch

                ops = self._run_columns(protocol, as_batch(trace), stall,
                                        pre)
            else:
                ops = self._run_ops(protocol, trace, stall, sanitizer, pre)
        finally:
            wall_seconds = time.perf_counter() - start
            if gc_was_enabled:
                gc.enable()
        if sampler is not None:
            sampler.finish(float(max(ops, 1)))

        resources = self._resource_times(protocol, sink, stall)
        cycles = max(resources.total_cycles(cfg.timing.overlap_tax), 1.0)
        degradation = None
        plan = self.fault_plan
        if plan is not None and plan.message_loss is not None:
            # The clockless engine cannot draw per-message drops, so it
            # reports the analytic expectation over the messages it
            # actually emitted (deterministic, like everything else in
            # this engine).
            total_messages = sum(
                protocol.stats.msg_counts.get(m, 0)
                for m in (MsgType.LOAD_REQ, MsgType.STORE_REQ)
            )
            degradation = DegradationStats(
                **plan.expected_loss_counters(total_messages)
            )
        return SimResult(
            protocol_name=protocol.name,
            workload_name=workload_name,
            cfg=cfg,
            cycles=cycles,
            resources=resources,
            stats=protocol.stats,
            l1_stats=aggregate_l1_stats(protocol),
            l2_stats=aggregate_l2_stats(protocol),
            dram_bytes=total_dram_bytes(protocol),
            ops=ops,
            link_bytes=[
                (sink.link_out_bytes[g], sink.link_in_bytes[g])
                for g in range(cfg.num_gpus)
            ],
            xbar_bytes=list(sink.xbar_bytes),
            wall_seconds=wall_seconds,
            degradation=degradation,
        )

    def _run_columns(self, protocol: CoherenceProtocol, batch: BatchTrace,
                     stall: list, pre=None) -> int:
        """The main loop: ops straight from the trace columns.

        Line, flat GPM, L1 slot and L1/L2 set-index columns come from
        :func:`repro.trace.batch.decoded` (derived once per trace and
        geometry, shared by every protocol cell), the per-op counters
        of :meth:`CoherenceProtocol.process` are applied in bulk by
        :meth:`CoherenceProtocol.count_ops`, and each op goes to its
        handler: loads and stores with decoded arguments, atomics and
        synchronizing ops (rare) as a materialized ``MemOp``.  Load and
        store handlers return a code, not an outcome: a load's latency
        is never exposed, and a store's only when its code is non-zero
        (GPU-VI's acknowledgment wait).  ``pre`` (telemetry) is called
        with each op's index and scope first.
        """
        # numpy arrives with repro.trace.batch.  Both are imported on
        # first use, not with this module: importing numpy from inside
        # the repro.engine package import measurably slows interpreter
        # start-up (about 20 ms on the 2-vCPU benchmark host).
        import numpy as np

        from repro.trace.batch import decoded

        cfg = self.cfg
        cols = decoded(batch, cfg)
        protocol.count_ops(cols.kind_order, cols.kind_counts,
                           cols.ops_per_gpm)
        tolerance = cfg.timing.latency_tolerance
        load = protocol._load
        store = protocol._store
        exposed_latency = protocol.exposed_latency
        sync = protocol.sync_handlers()
        op_at = batch.op_at
        nodes = np.empty(cfg.total_gpms, dtype=object)
        nodes[:] = [protocol.node(i) for i in range(cfg.total_gpms)]
        scopes = np.array(list(Scope), dtype=object)
        n = len(batch)
        for lo in range(0, n, _CHUNK):
            hi = min(lo + _CHUNK, n)
            flat = cols.flat[lo:hi]
            for i, kind, line, node, f, slot, s1, s2, scope, size in zip(
                    range(lo, hi),
                    batch.kind[lo:hi].tolist(),
                    cols.line[lo:hi].tolist(),
                    nodes[flat].tolist(),
                    flat.tolist(),
                    cols.slot[lo:hi].tolist(),
                    cols.l1_set[lo:hi].tolist(),
                    cols.l2_set[lo:hi].tolist(),
                    scopes[batch.scope[lo:hi]].tolist(),
                    batch.size[lo:hi].tolist()):
                if pre is not None:
                    pre(i, scope)
                if kind == _LOAD:
                    load(line, node, f, slot, s1, s2, scope)
                elif kind == _STORE:
                    code = store(line, node, f, slot, s1, s2, size)
                    if code:
                        stall[f] += exposed_latency(code) / tolerance
                else:
                    outcome = sync[kind](op_at(i))
                    if outcome.exposed:
                        stall[f] += outcome.latency / tolerance
        return n

    def _run_ops(self, protocol: CoherenceProtocol, trace, stall: list,
                 sanitizer, pre=None) -> int:
        """The sanitized loop: one :class:`MemOp` at a time through
        :meth:`CoherenceProtocol.process`, each checked after it runs."""
        tolerance = self.cfg.timing.latency_tolerance
        gpms_per_gpu = self.cfg.gpms_per_gpu
        process = protocol.process
        ops = 0
        for op in trace:
            if pre is not None:
                pre(ops, op.scope)
            outcome = process(op)
            sanitizer.after_op(protocol, op, outcome, ops)
            ops += 1
            if outcome.exposed:
                node = op.node
                stall[node.gpu * gpms_per_gpu + node.gpm] += (
                    outcome.latency / tolerance
                )
        return ops

    def _resource_times(self, protocol: CoherenceProtocol,
                        sink: ThroughputSink, stall) -> ResourceTimes:
        cfg = self.cfg
        issue_rate = cfg.timing.issue_rate_per_gpm
        l2_bpc = cfg.timing.l2_bytes_per_cycle
        dram_bpc = cfg.dram_bytes_per_cycle_per_gpm
        xbar_bpc = cfg.inter_gpm_bytes_per_cycle
        link_bpc = cfg.inter_gpu_bytes_per_cycle

        issue = [
            protocol.ops_per_gpm[i] / issue_rate
            + stall[i]
            + protocol.bulk_invs_per_gpm[i] * cfg.timing.bulk_invalidate_cycles
            for i in range(cfg.total_gpms)
        ]
        l2 = [b / l2_bpc for b in protocol.l2_bytes_per_gpm]
        dram = [
            protocol.dram[i].stats.total_bytes / dram_bpc
            for i in range(cfg.total_gpms)
        ]
        xbar = [b / xbar_bpc for b in sink.xbar_bytes]
        link = [
            max(sink.link_out_bytes[g], sink.link_in_bytes[g]) / link_bpc
            for g in range(cfg.num_gpus)
        ]
        l2, dram, xbar, link = apply_fault_expansion(
            self.fault_plan, l2, dram, xbar, link
        )
        return ResourceTimes(issue=issue, l2=l2, dram=dram, xbar=xbar,
                             link=link)
