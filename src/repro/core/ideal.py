"""Idealized caching without coherence enforcement.

The paper's loose performance upper bound: data is cached hierarchically
exactly as under HMG, but coherence is *free* — a store instantly and
silently removes every other cached copy (no invalidation messages, no
directory, no acknowledgments), loads may hit in any cache regardless of
scope, and synchronization costs nothing beyond kernel-launch
serialization.  The bound therefore still pays the fundamental data
movement (freshly-produced data must still travel), but none of the
protocol overhead; HMG's "97% of ideal" claim is measured against
exactly this definition.
"""

from __future__ import annotations

from repro.core.protocol import (
    DRAM,
    GPU_HOME,
    L1,
    LOCAL_L2,
    REMOTE_DRAM,
    SYS_HOME,
    AccessOutcome,
    CoherenceProtocol,
)
from repro.core.types import MemOp, MsgType, NodeId, Scope


class IdealProtocol(CoherenceProtocol):
    """Hierarchical caching with zero coherence overhead."""

    name = "ideal"
    label = "Idealized Caching w/o Coherence"
    has_directory = False

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Conservative copy index for _magic_invalidate: line -> set of
        # caches that *may* hold it.  Every fill path below registers
        # the target cache; silent evictions leave stale entries behind,
        # which is safe because invalidating an absent line is a free
        # no-op (no state change, no counters).  The alternative —
        # sweeping all L2s and L1 slices on every store — dominated the
        # profile at scale.
        self._copies: dict[int, set] = {}

    def _track(self, cache, line: int) -> None:
        copies = self._copies.get(line)
        if copies is None:
            self._copies[line] = {cache}
        else:
            copies.add(cache)

    def _l1_fill(self, slot: int, s1: int, line: int, state: int) -> None:
        sl = self._l1_slots[slot]
        sl.fill(line, s1, state)
        self._track(sl, line)

    def _home_store(self, hflat: int, line: int, s2: int, version: int,
                    payload: int) -> None:
        super()._home_store(hflat, line, s2, version, payload)
        self._track(self.l2[hflat], line)

    def _magic_invalidate(self, line: int) -> None:
        """Drop every cached copy of a line, for free: no messages, no
        latency, no directory state.  Runs before the store's own fills
        so the writer's path ends up holding only the fresh version."""
        copies = self._copies.pop(line, None)
        if copies:
            for cache in copies:
                cache.invalidate(line)

    def _load(self, line: int, node: NodeId, flat: int, slot: int,
              s1: int, s2: int, scope: Scope) -> int:
        try:
            gflat, sflat = self._homes_memo[line * self._num_gpus + node.gpu]
        except KeyError:
            gflat, sflat = self._home_flats(line, node)

        # Scope never forces a miss in the idealized model.
        version = self._l1_slots[slot].probe(line, s1)
        if version >= 0:
            return version << 3 | L1

        ls = self._line_size
        l2 = self.l2
        l2_bytes = self.l2_bytes_per_gpm
        track = self._track
        local = l2[flat]
        l2_bytes[flat] += ls
        version = local.probe(line, s2)
        if version >= 0:
            self._l1_fill(slot, s1, line,
                          version << 2 | (flat != sflat))
            return version << 3 | LOCAL_L2

        if flat == sflat:
            version = self.dram[sflat].read(line)
            victim = local.fill(line, s2, version << 2)
            track(local, line)
            if victim is not None:
                self._handle_l2_victim(node, victim)
            self._l1_fill(slot, s1, line, version << 2)
            return version << 3 | DRAM

        nodes = self._nodes
        ghome = nodes[gflat]
        version = -1
        where = REMOTE_DRAM
        if flat != gflat:
            self.send(MsgType.LOAD_REQ, node, ghome, line)
            l2_bytes[gflat] += ls
            version = l2[gflat].probe(line, s2)
            if version >= 0:
                where = GPU_HOME

        if version < 0 and gflat != sflat:
            syshome = nodes[sflat]
            self.stats.remote_gpu_loads += 1
            self.send(MsgType.LOAD_REQ, ghome, syshome, line)
            l2_bytes[sflat] += ls
            sl2 = l2[sflat]
            version = sl2.probe(line, s2)
            if version >= 0:
                where = SYS_HOME
            else:
                version = self.dram[sflat].read(line)
                victim = sl2.fill(line, s2, version << 2)
                track(sl2, line)
                if victim is not None:
                    self._handle_l2_victim(syshome, victim)
            self.send(MsgType.DATA_RESP, syshome, ghome, line)
            if flat != gflat:
                gl2 = l2[gflat]
                victim = gl2.fill(line, s2, version << 2 | 1)
                track(gl2, line)
                if victim is not None:
                    self._handle_l2_victim(ghome, victim)
                l2_bytes[gflat] += ls
        elif version < 0:
            version = self.dram[sflat].read(line)
            sl2 = l2[sflat]
            victim = sl2.fill(line, s2, version << 2)
            track(sl2, line)
            if victim is not None:
                self._handle_l2_victim(nodes[sflat], victim)

        if flat != gflat:
            self.send(MsgType.DATA_RESP, ghome, node, line)
        victim = local.fill(line, s2, version << 2 | 1)
        track(local, line)
        if victim is not None:
            self._handle_l2_victim(node, victim)
        self._l1_fill(slot, s1, line, version << 2 | 1)
        return version << 3 | where

    def _store(self, line: int, node: NodeId, flat: int, slot: int,
               s1: int, s2: int, size: int) -> int:
        try:
            gflat, sflat = self._homes_memo[line * self._num_gpus + node.gpu]
        except KeyError:
            gflat, sflat = self._home_flats(line, node)
        version = self._next_version
        self._next_version = version + 1
        payload = size if size < self._line_size else self._line_size

        # Free, instant coherence: every stale copy vanishes first.
        self._magic_invalidate(line)
        at_home = flat == sflat
        self._l1_fill(slot, s1, line, version << 2 | (not at_home))
        local = self.l2[flat]
        self.l2_bytes_per_gpm[flat] += payload
        victim = local.fill(
            line, s2, version << 2 | at_home << 1 | (not at_home))
        self._track(local, line)
        if victim is not None:
            self._handle_l2_victim(node, victim)

        if flat != gflat:
            ghome = self._nodes[gflat]
            self.send(MsgType.STORE_REQ, node, ghome, line, payload=payload)
            gl2 = self.l2[gflat]
            g_is_sys = gflat == sflat
            victim = gl2.fill(
                line, s2, version << 2 | g_is_sys << 1 | (not g_is_sys))
            self._track(gl2, line)
            if victim is not None:
                self._handle_l2_victim(ghome, victim)
            self.l2_bytes_per_gpm[gflat] += payload
        if gflat != sflat:
            self.send(MsgType.STORE_REQ, self._nodes[gflat],
                      self._nodes[sflat], line, payload=payload)
            self._home_store(sflat, line, s2, version, payload)
        return 0

    def _load_outcome(self, code: int, line: int, node: NodeId,
                      scope: Scope) -> AccessOutcome:
        return self._hier_load_outcome(code, line, node)

    def _store_outcome(self, code: int, line: int,
                       node: NodeId) -> AccessOutcome:
        return AccessOutcome(0, self._l1_hit_lat + self._l2_hit_lat)

    def _atomic(self, op: MemOp) -> AccessOutcome:
        # Atomics execute at the nearest cached copy — free coherence
        # means no round trip is ever exposed.
        out = self._store_op(op)
        return AccessOutcome(self._next_version - 1, out.latency,
                             exposed=False)

    def _acquire(self, op: MemOp) -> AccessOutcome:
        # No invalidation, no forced misses: an acquire is a plain load.
        return self._load_op(op, Scope.CTA)

    def _release(self, op: MemOp) -> AccessOutcome:
        return self._store_op(op)

    def _kernel_boundary(self, op: MemOp) -> AccessOutcome:
        # Kernel-launch serialization is not a coherence cost: the ideal
        # model pays the same drain round trip as every other protocol
        # (but performs no invalidation and sends no fences).
        if self.cfg.num_gpus > 1:
            stall = 2.0 * self.cfg.latency.inter_gpu_hop
        else:
            stall = 2.0 * self.cfg.latency.inter_gpm_hop
        return AccessOutcome(0, stall, exposed=True)
