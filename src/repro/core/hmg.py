"""HMG — hierarchical multi-GPU hardware coherence (Section V).

HMG layers NHCC twice.  Within each GPU, a *GPU home node* per address
keeps the GPU's GPMs coherent; across GPUs, the *system home node* (the
GPU home node inside the page-owning GPU) keeps the GPUs coherent,
tracking peer GPUs only at GPU granularity.  Invalidations fan out
hierarchically: an invalidation arriving at a GPU home node is forwarded
to that GPU's GPM sharers (the single extra transition in Table I).

Requests and write-throughs route local L2 -> GPU home -> system home;
only the GPU identifier crosses the inter-GPU network, never the
requesting GPM's identity.
"""

from __future__ import annotations

from repro.core.directory import DirectoryEntry, Sharer
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

_CTA = Scope.CTA
_SYS = Scope.SYS


class HMGProtocol(CoherenceProtocol):
    """Two-layer hierarchical hardware coherence."""

    name = "hmg"
    label = "HMG Coherence"
    has_directory = True

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Sharer ids, built once: the load and store paths add one per
        # directory update.
        self._gpm_sharers = [Sharer.gpm(i)
                             for i in range(self.cfg.gpms_per_gpu)]
        self._gpu_sharers = [Sharer.gpu(i) for i in range(self.cfg.num_gpus)]

    # ------------------------------------------------------------------
    # Invalidation machinery
    # ------------------------------------------------------------------

    def _drop_sector_lines(self, node: NodeId, sector: int) -> int:
        l2 = self.l2[self.flat(node)]
        dropped = 0
        for line in self.amap.lines_in_sector(sector):
            if l2.invalidate(line) is not None:
                dropped += 1
        return dropped

    def _inv_gpu_sharer(self, home: NodeId, gpu: int, sector: int) -> int:
        """Invalidate a peer GPU: send one invalidation to its GPU home
        node, which drops its own copy and forwards to its GPM sharers
        (Table I, the HMG-only transition)."""
        ghome = NodeId(gpu, self.amap.home_gpm_of_sector(sector))
        self.send(MsgType.INVALIDATION, home, ghome, sector)
        dropped = self._drop_sector_lines(ghome, sector)
        directory = self.dirs[self.flat(ghome)]
        entry = directory.lookup(sector, touch=False)
        if entry is not None:
            forwarded = 0
            for sharer in sorted(entry.sharers):
                # Entries at a non-owner GPU home only track local GPMs.
                target = NodeId(gpu, sharer.index)
                self.send(MsgType.INVALIDATION, ghome, target, sector)
                dropped += self._drop_sector_lines(target, sector)
                forwarded += 1
            directory.invalidate(sector)
            if self._tracing and forwarded:
                # Table I's HMG-only transition: the peer GPU home
                # forwards an arriving invalidation to its GPM sharers.
                self.tracer.fanout(ghome, forwarded, dropped, "forward")
        return dropped

    def _inv_sharers(self, home: NodeId, entry: DirectoryEntry,
                     keep: Sharer = None, cause: str = "store") -> int:
        """Hierarchically invalidate every sharer except ``keep``."""
        dropped = 0
        fanned = 0
        for sharer in sorted(entry.sharers):
            if keep is not None and sharer == keep:
                continue
            if sharer.is_gpm:
                target = NodeId(home.gpu, sharer.index)
                if target == home:
                    continue
                self.send(MsgType.INVALIDATION, home, target, entry.sector)
                dropped += self._drop_sector_lines(target, entry.sector)
                fanned += 1
            else:
                dropped += self._inv_gpu_sharer(home, sharer.index,
                                                entry.sector)
                fanned += 1
        if cause == "store":
            self.stats.lines_inv_by_store += dropped
        else:
            self.stats.lines_inv_by_dir_evict += dropped
        if self._tracing and fanned:
            self.tracer.fanout(home, fanned, dropped, cause)
        return dropped

    def _dir_allocate(self, home: NodeId, sector: int) -> DirectoryEntry:
        directory = self.dirs[self.flat(home)]
        entry, victim = directory.allocate(sector)
        if victim is not None and victim.sharers:
            self.stats.dir_evictions += 1
            self._inv_sharers(home, victim, cause="evict")
        return entry

    # ------------------------------------------------------------------
    # Loads
    # ------------------------------------------------------------------

    def _load(self, line: int, node: NodeId, flat: int, slot: int,
              s1: int, s2: int, scope: Scope) -> int:
        try:
            gflat, sflat = self._homes_memo[line * self._num_gpus + node.gpu]
        except KeyError:
            gflat, sflat = self._home_flats(line, node)

        if scope is _CTA:
            version = self._l1_slots[slot].probe(line, s1)
            if version >= 0:
                return version << 3 | L1

        ls = self._line_size
        l2 = self.l2
        l2_bytes = self.l2_bytes_per_gpm
        local = l2[flat]
        l2_bytes[flat] += ls
        # Scope-dependent hit permission (Section V-B, "Loads"): .cta
        # hits anywhere, .gpu at the GPU or system home, .sys only at
        # the system home.
        if (scope is _CTA or flat == sflat
                or (scope is not _SYS and flat == gflat)):
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
            # Local miss at the system home itself: straight to DRAM.
            version = self.dram[sflat].read(line)
            victim = local.fill(line, s2, version << 2)
            if victim is not None:
                self._handle_l2_victim(node, victim)
            self._l1_slots[slot].fill(line, s1, version << 2)
            if self._tracing:
                self.tracer.fill("l1", node, line)
            return version << 3 | DRAM

        # Miss: climb the hierarchy — GPU home first (if we are not it).
        nodes = self._nodes
        ghome = nodes[gflat]
        version = -1
        where = REMOTE_DRAM
        sector = line >> self._sector_bits
        if flat != gflat:
            self.send(MsgType.LOAD_REQ, node, ghome, line)
            l2_bytes[gflat] += ls
            gl2 = l2[gflat]
            if scope is not _SYS or gflat == sflat:
                version = gl2.probe(line, s2)
                if version >= 0:
                    where = GPU_HOME
            else:
                gl2.stats.misses += 1
            # The GPU home tracks the requesting GPM either way — on a
            # forwarded miss it will cache the response too.
            dentry = self._dir_allocate(ghome, sector)
            dentry.sharers.add(self._gpm_sharers[node.gpm])

        if version < 0 and gflat != sflat:
            # Forward to the system home; only the GPU id crosses.
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
                if victim is not None:
                    self._handle_l2_victim(syshome, victim)
            dentry = self._dir_allocate(syshome, sector)
            dentry.sharers.add(self._gpu_sharers[node.gpu])
            self.send(MsgType.DATA_RESP, syshome, ghome, line)
            # Response fills the GPU home on its way back (Fig 6b).
            if flat != gflat:
                victim = l2[gflat].fill(line, s2, version << 2 | 1)
                if victim is not None:
                    self._handle_l2_victim(ghome, victim)
                l2_bytes[gflat] += ls
        elif version < 0:
            # Owning GPU, requester is not the home: the home L2 missed,
            # so the home fetches from its DRAM and keeps a copy.
            version = self.dram[sflat].read(line)
            victim = l2[sflat].fill(line, s2, version << 2)
            if victim is not None:
                self._handle_l2_victim(nodes[sflat], victim)

        if flat != gflat:
            self.send(MsgType.DATA_RESP, ghome, node, line)

        victim = local.fill(line, s2, version << 2 | 1)
        if victim is not None:
            self._handle_l2_victim(node, victim)
        self._l1_slots[slot].fill(line, s1, version << 2 | 1)
        if self._tracing:
            self.tracer.fill("l1", node, line)
        return version << 3 | where

    def _load_outcome(self, code: int, line: int, node: NodeId,
                      scope: Scope) -> AccessOutcome:
        ghome, syshome = self.homes(line, node)
        return self._hier_load_outcome(
            code, line, node,
            local_level=("sys_home" if node == syshome
                         else "gpu_home" if node == ghome else "local_l2"))

    # ------------------------------------------------------------------
    # Stores and atomics
    # ------------------------------------------------------------------

    def _store_at_gpu_home(self, requester: NodeId, ghome: NodeId,
                           sector: int) -> None:
        """Apply the Table I transition at a GPU home node."""
        directory = self.dirs[self.flat(ghome)]
        if requester == ghome:
            # Local store: inv all sharers, -> I.
            entry = directory.lookup(sector, touch=False)
            if entry is not None:
                if entry.sharers:
                    self.stats.stores_on_shared += 1
                    self._inv_sharers(ghome, entry, cause="store")
                directory.invalidate(sector)
            return
        # Remote store: add sender, inv other sharers, stay V.
        if requester.gpu == ghome.gpu:
            me = self._gpm_sharers[requester.gpm]
        else:
            me = self._gpu_sharers[requester.gpu]
        entry = self._dir_allocate(ghome, sector)
        if entry.others(me):
            self.stats.stores_on_shared += 1
            self._inv_sharers(ghome, entry, keep=me, cause="store")
        entry.sharers = {me}

    def _store(self, line: int, node: NodeId, flat: int, slot: int,
               s1: int, s2: int, size: int) -> int:
        try:
            gflat, sflat = self._homes_memo[line * self._num_gpus + node.gpu]
        except KeyError:
            gflat, sflat = self._home_flats(line, node)
        version = self._next_version
        self._next_version = version + 1
        payload = size if size < self._line_size else self._line_size

        remote = flat != sflat
        self._l1_slots[slot].fill(line, s1, version << 2 | remote)
        self.l2_bytes_per_gpm[flat] += payload
        victim = self.l2[flat].fill(line, s2, version << 2 | remote)
        if victim is not None:
            self._handle_l2_victim(node, victim)
        sector = line >> self._sector_bits
        nodes = self._nodes
        ghome = nodes[gflat]

        # Layer 1: the GPU home node of the issuing GPU.
        if flat != gflat:
            self.send(MsgType.STORE_REQ, node, ghome, line,
                      payload=payload)
            self.l2_bytes_per_gpm[gflat] += payload
            victim = self.l2[gflat].fill(
                line, s2, version << 2 | (gflat != sflat))
            if victim is not None:
                self._handle_l2_victim(ghome, victim)
        self._store_at_gpu_home(node, ghome, sector)

        # Layer 2: the system home node, if it lives on another GPU.
        if gflat != sflat:
            syshome = nodes[sflat]
            self.send(MsgType.STORE_REQ, ghome, syshome, line,
                      payload=payload)
            self._home_store(sflat, line, s2, version, payload)
            # Only the GPU identifier crosses the inter-GPU network.
            self._store_at_gpu_home(node, syshome, sector)
        else:
            # The GPU home is the system home: its copy is the
            # authoritative one (dirty; written back on eviction).
            self.l2[sflat].mark_dirty(line, s2)
        return 0

    def _store_outcome(self, code: int, line: int,
                       node: NodeId) -> AccessOutcome:
        return self._hier_store_outcome(line, node)

    def _atomic(self, op: MemOp) -> AccessOutcome:
        line, _, _, slot, s1, _ = self._decode(op)
        if op.scope == Scope.CTA:
            version = self._new_version()
            self._l1_slots[slot].fill(line, s1, version << 2)
            return AccessOutcome(version, self._l1_hit_lat,
                                 exposed=True, hit_level="l1")
        ghome, syshome = self.homes(line, op.node)
        # The atomic executes at the home node for its scope and is then
        # written through to subsequent levels like a store.
        target = ghome if op.scope == Scope.GPU else syshome
        out = self._store_op(op)
        if op.node != target:
            self.send(MsgType.ATOMIC_RESP, target, op.node, line)
        latency = self._l2_hit_lat + self.rtt(op.node, target)
        return AccessOutcome(self._next_version - 1, latency, exposed=False)

    # ------------------------------------------------------------------
    # Synchronization
    # ------------------------------------------------------------------

    def _acquire(self, op: MemOp) -> AccessOutcome:
        if op.scope == Scope.CTA:
            out = self._load_op(op)
            out.exposed = True
            return out
        slices = self.l1[self.flat(op.node)]
        slice_index = op.cta % len(slices)
        self.stats.lines_inv_by_acquire += self._invalidate_l1s(
            op.node, slice_index
        )
        out = self._load_op(op)
        out.latency += self.cfg.timing.bulk_invalidate_cycles
        out.exposed = True
        return out

    def _release_fence(self, op: MemOp, scope: Scope) -> float:
        """Scoped release fence.

        A .gpu release only drains within the issuing GPU — it "need not
        flush all write-back operations across the inter-GPU network"
        (Section V-B).  A .sys release fans out hierarchically.
        """
        farthest = 0
        for gpm in range(self.cfg.gpms_per_gpu):
            other = NodeId(op.node.gpu, gpm)
            if other == op.node:
                continue
            self.send(MsgType.RELEASE_FENCE, op.node, other)
            self.send(MsgType.RELEASE_ACK, other, op.node)
            farthest = max(farthest, self.rtt(op.node, other))
        if scope == Scope.SYS:
            for gpu in range(self.cfg.num_gpus):
                if gpu == op.node.gpu:
                    continue
                peer = NodeId(gpu, op.node.gpm)
                self.send(MsgType.RELEASE_FENCE, op.node, peer)
                farthest = max(farthest, self.rtt(op.node, peer))
                # The peer GPU home fences its own GPMs before acking.
                for gpm in range(self.cfg.gpms_per_gpu):
                    inner = NodeId(gpu, gpm)
                    if inner == peer:
                        continue
                    self.send(MsgType.RELEASE_FENCE, peer, inner)
                    self.send(MsgType.RELEASE_ACK, inner, peer)
                self.send(MsgType.RELEASE_ACK, peer, op.node)
        return float(farthest)

    def _release(self, op: MemOp) -> AccessOutcome:
        out = self._store_op(op)
        if op.scope == Scope.CTA:
            out.exposed = True
            return out
        fence_latency = self._release_fence(op, op.scope)
        return AccessOutcome(0, out.latency + fence_latency, exposed=True)

    def _kernel_boundary(self, op: MemOp) -> AccessOutcome:
        fence_latency = self._release_fence(op, Scope.SYS)
        self.stats.lines_inv_by_acquire += self._invalidate_l1s(op.node)
        latency = fence_latency + self.cfg.timing.bulk_invalidate_cycles
        return AccessOutcome(0, latency, exposed=True)
