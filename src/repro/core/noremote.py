"""Normalization baseline: no caching of remote-GPU data.

This is the configuration every figure normalizes against ("a 4-GPU
system that disallows caching of remote GPU data", Fig 8).  Lines homed
on a peer GPU are never cached in the local GPU's L1s or L2s — every
access to them crosses the inter-GPU network to the system home, which
may serve it from its own L2.  Data homed *within* the GPU is cached
normally and kept correct by flat software coherence (bulk invalidation
of intra-GPU remote lines at synchronization points).
"""

from __future__ import annotations

from repro.core.protocol import (
    DRAM,
    L1,
    LOCAL_L2,
    REMOTE_DRAM,
    SYS_HOME,
    AccessOutcome,
    CoherenceProtocol,
)
from repro.core.types import MemOp, MsgType, NodeId, Scope

_CTA = Scope.CTA


class NoRemoteCachingProtocol(CoherenceProtocol):
    """Remote-GPU data is never cached — the paper's baseline."""

    name = "noremote"
    label = "No Remote Caching (baseline)"
    has_directory = False

    # ------------------------------------------------------------------

    def _load(self, line: int, node: NodeId, flat: int, slot: int,
              s1: int, s2: int, scope: Scope) -> int:
        try:
            sflat = self._sys_home_memo[line]
        except KeyError:
            sflat = self._sys_flat(line, node)
        # Only data homed within the accessing GPU may be cached.
        cacheable = sflat // self._gpms_per_gpu == node.gpu

        if cacheable and scope is _CTA:
            version = self._l1_slots[slot].probe(line, s1)
            if version >= 0:
                return version << 3 | L1

        local = self.l2[flat]
        if cacheable and (scope is _CTA or flat == sflat):
            self.l2_bytes_per_gpm[flat] += self._line_size
            version = local.probe(line, s2)
            if version >= 0:
                self._l1_slots[slot].fill(line, s1,
                                          version << 2 | (flat != sflat))
                if self._tracing:
                    self.tracer.fill("l1", node, line)
                return version << 3 | LOCAL_L2

        if flat == sflat:
            version = self.dram[sflat].read(line)
            victim = local.fill(line, s2, version << 2)
            if victim is not None:
                self._handle_l2_victim(node, victim)
            self._l1_slots[slot].fill(line, s1, version << 2)
            if self._tracing:
                self.tracer.fill("l1", node, line)
            return version << 3 | DRAM

        home = self._nodes[sflat]
        if not cacheable:
            self.stats.remote_gpu_loads += 1
        self.send(MsgType.LOAD_REQ, node, home, line)
        home_l2 = self.l2[sflat]
        self.l2_bytes_per_gpm[sflat] += self._line_size
        version = home_l2.probe(line, s2)
        if version < 0:
            version = self.dram[sflat].read(line)
            victim = home_l2.fill(line, s2, version << 2)
            if victim is not None:
                self._handle_l2_victim(home, victim)
            where = REMOTE_DRAM
        else:
            where = SYS_HOME
        self.send(MsgType.DATA_RESP, home, node, line)
        if cacheable:
            victim = local.fill(line, s2, version << 2 | 1)
            if victim is not None:
                self._handle_l2_victim(node, victim)
            self.l2_bytes_per_gpm[flat] += self._line_size
            self._l1_slots[slot].fill(line, s1, version << 2 | 1)
            if self._tracing:
                self.tracer.fill("l1", node, line)
        return version << 3 | where

    def _store(self, line: int, node: NodeId, flat: int, slot: int,
               s1: int, s2: int, size: int) -> int:
        try:
            sflat = self._sys_home_memo[line]
        except KeyError:
            sflat = self._sys_flat(line, node)
        version = self._next_version
        self._next_version = version + 1
        payload = size if size < self._line_size else self._line_size

        if sflat // self._gpms_per_gpu == node.gpu:
            at_home = flat == sflat
            self._l1_slots[slot].fill(line, s1, version << 2 | (not at_home))
            self.l2_bytes_per_gpm[flat] += payload
            victim = self.l2[flat].fill(
                line, s2, version << 2 | at_home << 1 | (not at_home))
            if victim is not None:
                self._handle_l2_victim(node, victim)

        if flat != sflat:
            self.send(MsgType.STORE_REQ, node, self._nodes[sflat], line,
                      payload=payload)
            self._home_store(sflat, line, s2, version, payload)
        return 0

    def _load_outcome(self, code: int, line: int, node: NodeId,
                      scope: Scope) -> AccessOutcome:
        home = self.sys_home(line, node)
        return self._flat_load_outcome(
            code, line, node,
            local_l2=home.gpu == node.gpu and (scope is _CTA or node == home))

    def _store_outcome(self, code: int, line: int,
                       node: NodeId) -> AccessOutcome:
        home = self.sys_home(line, node)
        latency = self._l1_hit_lat
        if home.gpu == node.gpu:
            latency += self._l2_hit_lat
        if node != home:
            latency += self.hop_latency(node, home)
        return AccessOutcome(0, latency)

    def _atomic(self, op: MemOp) -> AccessOutcome:
        line, _, _, slot, s1, s2 = self._decode(op)
        if op.scope == Scope.CTA:
            version = self._new_version()
            self._l1_slots[slot].fill(line, s1, version << 2)
            return AccessOutcome(version, self._l1_hit_lat,
                                 exposed=True, hit_level="l1")
        home = self.sys_home(line, op.node)
        version = self._new_version()
        latency = self._l2_hit_lat
        if op.node != home:
            self.send(MsgType.ATOMIC_REQ, op.node, home, line, payload=16)
            self.send(MsgType.ATOMIC_RESP, home, op.node, line)
            latency += self.rtt(op.node, home)
        self._home_store(self.flat(home), line, s2, version, self._line_size)
        return AccessOutcome(version, latency, exposed=False)

    def _acquire(self, op: MemOp) -> AccessOutcome:
        if op.scope == Scope.CTA:
            out = self._load_op(op)
            out.exposed = True
            return out
        slices = self.l1[self.flat(op.node)]
        self.stats.lines_inv_by_acquire += self._invalidate_l1s(
            op.node, op.cta % len(slices)
        )
        # Drop intra-GPU remote lines (software coherence within the GPU).
        self.stats.lines_inv_by_acquire += (
            self.l2[self.flat(op.node)].invalidate_remote())
        self.bulk_invs_per_gpm[self.flat(op.node)] += 1
        out = self._load_op(op)
        out.latency += self.cfg.timing.bulk_invalidate_cycles
        out.exposed = True
        return out

    def _release(self, op: MemOp) -> AccessOutcome:
        out = self._store_op(op)
        if op.scope == Scope.CTA:
            out.exposed = True
            return out
        if self.cfg.num_gpus > 1:
            stall = 2.0 * self.cfg.latency.inter_gpu_hop
        else:
            stall = 2.0 * self.cfg.latency.inter_gpm_hop
        return AccessOutcome(0, out.latency + stall, exposed=True)

    def _kernel_boundary(self, op: MemOp) -> AccessOutcome:
        if self.cfg.num_gpus > 1:
            stall = 2.0 * self.cfg.latency.inter_gpu_hop
        else:
            stall = 2.0 * self.cfg.latency.inter_gpm_hop
        self.stats.lines_inv_by_acquire += self._invalidate_l1s(op.node)
        self.stats.lines_inv_by_acquire += (
            self.l2[self.flat(op.node)].invalidate_remote())
        self.bulk_invs_per_gpm[self.flat(op.node)] += 1
        latency = stall + self.cfg.timing.bulk_invalidate_cycles
        return AccessOutcome(0, latency, exposed=True)
