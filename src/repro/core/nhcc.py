"""NHCC — the non-hierarchical hardware coherence protocol (Section IV).

NHCC treats the whole machine as one flat collection of GPMs: each line
has a single home node (the system home), whose directory tracks every
sharing GPM by flat index.  The protocol follows Table I exactly:

* two stable states (Valid / absent-as-Invalid), no transient states;
* invalidations carry no acknowledgments;
* acknowledgments exist only for release fences;
* the directory is allocated by remote loads/stores and torn down by
  local stores and capacity evictions.
"""

from __future__ import annotations

from repro.core.directory import DirectoryEntry, Sharer
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
from repro.memsys.cache import DIRTY, REMOTE

_CTA = Scope.CTA


class NHCCProtocol(CoherenceProtocol):
    """Flat (non-hierarchical) hardware VI-like coherence."""

    name = "nhcc"
    label = "Non-Hierarchical HW Coherence"
    has_directory = True

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: ``Sharer.gpm(i)`` for every flat GPM index (built once: the
        #: load and store paths add one per directory update).
        self._gpm_sharers = [Sharer.gpm(i)
                             for i in range(self.cfg.total_gpms)]

    # ------------------------------------------------------------------
    # Directory helpers (flat sharer ids)
    # ------------------------------------------------------------------

    def _sharer_of(self, node: NodeId) -> Sharer:
        return self._gpm_sharers[self.flat(node)]

    def _node_of_sharer(self, sharer: Sharer) -> NodeId:
        return self.node(sharer.index)

    def _drop_sector_lines(self, node: NodeId, sector: int) -> int:
        """Invalidate every line of a sector in a GPM's L2."""
        l2 = self.l2[self.flat(node)]
        dropped = 0
        for line in self.amap.lines_in_sector(sector):
            if l2.invalidate(line) is not None:
                dropped += 1
        return dropped

    def _inv_sharers(self, home: NodeId, entry: DirectoryEntry,
                     keep: Sharer = None, cause: str = "store") -> int:
        """Send invalidations to every sharer except ``keep``.

        Invalidations propagate in the background with no acks
        (Section IV); functionally they take effect immediately.
        Returns the number of cache lines actually dropped.
        """
        dropped = 0
        fanned = 0
        for sharer in sorted(entry.sharers):
            if keep is not None and sharer == keep:
                continue
            target = self._node_of_sharer(sharer)
            if target == home:
                continue
            self.send(MsgType.INVALIDATION, home, target, entry.sector)
            dropped += self._drop_sector_lines(target, entry.sector)
            fanned += 1
        if cause == "store":
            self.stats.lines_inv_by_store += dropped
        else:
            self.stats.lines_inv_by_dir_evict += dropped
        if self._tracing and fanned:
            self.tracer.fanout(home, fanned, dropped, cause)
        return dropped

    def _dir_allocate(self, home: NodeId, sector: int) -> DirectoryEntry:
        """Allocate (or touch) a directory entry, handling the Table I
        "Replace Dir Entry" transition for the displaced victim."""
        directory = self.dirs[self.flat(home)]
        entry, victim = directory.allocate(sector)
        if victim is not None and victim.sharers:
            self.stats.dir_evictions += 1
            self._inv_sharers(home, victim, cause="evict")
        return entry

    def _handle_l2_victim(self, node: NodeId, victim: tuple) -> None:
        super()._handle_l2_victim(node, victim)
        line, state = victim
        if state & DIRTY:
            return
        if self.cfg.downgrade_on_clean_eviction and state & REMOTE:
            home = self.sys_home(line, node)
            if home == node:
                return
            self.send(MsgType.DOWNGRADE, node, home, line)
            entry = self.dirs[self.flat(home)].lookup(
                self.amap.sector_of_line(line), touch=False
            )
            if entry is not None:
                l2 = self.l2[self.flat(node)]
                still_held = any(
                    ln in l2 for ln in self.amap.lines_in_sector(entry.sector)
                )
                if not still_held:
                    entry.discard(self._sharer_of(node))

    # ------------------------------------------------------------------
    # Loads
    # ------------------------------------------------------------------

    def _load(self, line: int, node: NodeId, flat: int, slot: int,
              s1: int, s2: int, scope: Scope) -> int:
        try:
            sflat = self._sys_home_memo[line]
        except KeyError:
            sflat = self._sys_flat(line, node)

        if scope is _CTA:
            version = self._l1_slots[slot].probe(line, s1)
            if version >= 0:
                return version << 3 | L1

        ls = self._line_size
        local = self.l2[flat]
        self.l2_bytes_per_gpm[flat] += ls
        # Scoped (> .cta) loads must miss everywhere but the home node,
        # which is the flat protocol's only coherence point.
        if scope is _CTA or flat == sflat:
            version = local.probe(line, s2)
            if version >= 0:
                self._l1_slots[slot].fill(line, s1,
                                          version << 2 | (flat != sflat))
                if self._tracing:
                    self.tracer.fill("l1", node, line)
                return version << 3 | LOCAL_L2
        else:
            local.stats.misses += 1

        if flat == sflat:
            version = self.dram[sflat].read(line)
            victim = local.fill(line, s2, version << 2)
            if victim is not None:
                self._handle_l2_victim(node, victim)
            self._l1_slots[slot].fill(line, s1, version << 2)
            if self._tracing:
                self.tracer.fill("l1", node, line)
            return version << 3 | DRAM

        # Remote request to the home node.
        home = self._nodes[sflat]
        if home.gpu != node.gpu:
            self.stats.remote_gpu_loads += 1
        self.send(MsgType.LOAD_REQ, node, home, line)
        home_l2 = self.l2[sflat]
        self.l2_bytes_per_gpm[sflat] += ls
        version = home_l2.probe(line, s2)
        if version < 0:
            version = self.dram[sflat].read(line)
            victim = home_l2.fill(line, s2, version << 2)
            if victim is not None:
                self._handle_l2_victim(home, victim)
            where = REMOTE_DRAM
        else:
            where = SYS_HOME

        # Table I: remote load — add sender to sharers, -> V.
        entry = self._dir_allocate(home, line >> self._sector_bits)
        entry.sharers.add(self._gpm_sharers[flat])

        self.send(MsgType.DATA_RESP, home, node, line)
        victim = local.fill(line, s2, version << 2 | 1)
        if victim is not None:
            self._handle_l2_victim(node, victim)
        self.l2_bytes_per_gpm[flat] += ls
        self._l1_slots[slot].fill(line, s1, version << 2 | 1)
        if self._tracing:
            self.tracer.fill("l1", node, line)
        return version << 3 | where

    # ------------------------------------------------------------------
    # Stores and atomics
    # ------------------------------------------------------------------

    def _store(self, line: int, node: NodeId, flat: int, slot: int,
               s1: int, s2: int, size: int) -> int:
        try:
            sflat = self._sys_home_memo[line]
        except KeyError:
            sflat = self._sys_flat(line, node)
        version = self._next_version
        self._next_version = version + 1
        payload = size if size < self._line_size else self._line_size

        at_home = flat == sflat
        self._l1_slots[slot].fill(line, s1, version << 2 | (not at_home))
        self.l2_bytes_per_gpm[flat] += payload
        victim = self.l2[flat].fill(
            line, s2, version << 2 | at_home << 1 | (not at_home))
        if victim is not None:
            self._handle_l2_victim(node, victim)

        sector = line >> self._sector_bits
        home = self._nodes[sflat]
        if at_home:
            # Table I, local store in V: inv all sharers, -> I.
            directory = self.dirs[sflat]
            entry = directory.lookup(sector, touch=False)
            if entry is not None:
                if entry.sharers:
                    self.stats.stores_on_shared += 1
                    self._inv_sharers(home, entry, cause="store")
                directory.invalidate(sector)
        else:
            # Write-through travels to the home node.
            self.send(MsgType.STORE_REQ, node, home, line, payload=payload)
            self._home_store(sflat, line, s2, version, payload)
            # Table I, remote store: add sender, inv other sharers.
            entry = self._dir_allocate(home, sector)
            me = self._gpm_sharers[flat]
            if entry.others(me):
                self.stats.stores_on_shared += 1
                self._inv_sharers(home, entry, keep=me, cause="store")
            entry.sharers = {me}
        return 0

    def _load_outcome(self, code: int, line: int, node: NodeId,
                      scope: Scope) -> AccessOutcome:
        return self._flat_load_outcome(code, line, node)

    def _store_outcome(self, code: int, line: int,
                       node: NodeId) -> AccessOutcome:
        return self._flat_store_outcome(line, node)

    def _atomic(self, op: MemOp) -> AccessOutcome:
        line, _, _, slot, s1, s2 = self._decode(op)
        if op.scope == Scope.CTA:
            # .cta-scope synchronization is performed in the L1.
            version = self._new_version()
            self._l1_slots[slot].fill(line, s1, version << 2)
            return AccessOutcome(version, self._l1_hit_lat,
                                 exposed=True, hit_level="l1")
        # .gpu and .sys atomics both execute at the flat home node.
        home = self.sys_home(line, op.node)
        version = self._new_version()
        latency = self._l2_hit_lat
        sector = self.amap.sector_of_line(line)
        if op.node != home:
            self.send(MsgType.ATOMIC_REQ, op.node, home, line, payload=16)
            latency += self.rtt(op.node, home)
        self._home_store(self.flat(home), line, s2, version, self._line_size)
        directory = self.dirs[self.flat(home)]
        if op.node == home:
            entry = directory.lookup(sector, touch=False)
            if entry is not None:
                if entry.sharers:
                    self.stats.stores_on_shared += 1
                    self._inv_sharers(home, entry, cause="store")
                directory.invalidate(sector)
        else:
            entry = self._dir_allocate(home, sector)
            me = self._sharer_of(op.node)
            if entry.others(me):
                self.stats.stores_on_shared += 1
                self._inv_sharers(home, entry, keep=me, cause="store")
            entry.sharers = {me}
            self.send(MsgType.ATOMIC_RESP, home, op.node, line)
            # The result is cached by the requester as a store would be.
            victim = self.l2[self.flat(op.node)].fill(
                line, s2, version << 2 | REMOTE)
            if victim is not None:
                self._handle_l2_victim(op.node, victim)
            self.l2_bytes_per_gpm[self.flat(op.node)] += self._line_size
        return AccessOutcome(version, latency, exposed=False)

    # ------------------------------------------------------------------
    # Synchronization
    # ------------------------------------------------------------------

    def _acquire(self, op: MemOp) -> AccessOutcome:
        if op.scope == Scope.CTA:
            # Satisfied within the SM's L1 — no action needed.
            out = self._load_op(op)
            out.exposed = True
            return out
        # Acquires > .cta invalidate the local L1 and nothing more:
        # all L2 levels are hardware-coherent (Section IV, "Acquire").
        slices = self.l1[self.flat(op.node)]
        slice_index = op.cta % len(slices)
        self.stats.lines_inv_by_acquire += self._invalidate_l1s(
            op.node, slice_index
        )
        out = self._load_op(op)
        out.latency += self.cfg.timing.bulk_invalidate_cycles
        out.exposed = True
        return out

    def _release_fence(self, op: MemOp) -> float:
        """Propagate a release fence to every remote L2 and collect the
        acknowledgments (Section IV, "Release")."""
        farthest = 0
        for other in self.all_nodes():
            if other == op.node:
                continue
            self.send(MsgType.RELEASE_FENCE, op.node, other)
            self.send(MsgType.RELEASE_ACK, other, op.node)
            farthest = max(farthest, self.rtt(op.node, other))
        return float(farthest)

    def _release(self, op: MemOp) -> AccessOutcome:
        out = self._store_op(op)
        if op.scope == Scope.CTA:
            out.exposed = True
            return out
        fence_latency = self._release_fence(op)
        return AccessOutcome(0, out.latency + fence_latency, exposed=True)

    def _kernel_boundary(self, op: MemOp) -> AccessOutcome:
        # Implicit .sys release + acquire: flush fence plus full L1
        # invalidation; the hardware-coherent L2s are left intact.
        fence_latency = self._release_fence(
            op.with_scope(Scope.SYS)
        )
        self.stats.lines_inv_by_acquire += self._invalidate_l1s(op.node)
        latency = fence_latency + self.cfg.timing.bulk_invalidate_cycles
        return AccessOutcome(0, latency, exposed=True)
