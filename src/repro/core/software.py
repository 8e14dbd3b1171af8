"""Software coherence protocols (the paper's two SW baselines).

Both variants are "conventional software coherence with scopes and
bulk invalidation of caches" (Section VI): there is no directory and no
invalidation traffic; instead, load-acquires flash-invalidate every
possibly-stale line between the issuing SM and the home node for the
scope in question, and store-releases stall until pending write-throughs
drain.

* :class:`NonHierarchicalSWProtocol` treats the machine as one flat GPU
  of ``N x M`` GPMs.  Any L2 may cache any data; a ``>= .gpu``-scoped
  acquire invalidates the issuing SM's L1 plus every remotely-homed line
  in the GPM-local L2 (".sys-scoped loads need not invalidate L2 caches
  in other GPMs of the same GPU" — Section VI).
* :class:`HierarchicalSWProtocol` additionally routes requests through
  the per-GPU home node so intra-GPU locality is captured; ``.gpu``
  acquires invalidate only lines whose GPU home is another GPM, and
  ``.sys`` acquires invalidate peer-GPU-homed lines in *all* L2 caches
  of the issuing GPU.
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

_CTA = Scope.CTA
_SYS = Scope.SYS


class _SoftwareProtocolBase(CoherenceProtocol):
    """Machinery shared by both software variants."""

    has_directory = False

    # -- bulk invalidation ------------------------------------------------

    def _owner_of_line(self, line: int, toucher: NodeId) -> NodeId:
        # sys_home is the same computation, memoized — the bulk
        # invalidation predicates below call this once per resident
        # line on every acquire.
        return self.sys_home(line, toucher)

    def _gpu_home_of_line(self, line: int, node: NodeId) -> NodeId:
        owner = self._owner_of_line(line, node)
        return self.amap.gpu_home(line, node.gpu, owner)

    def _bulk_invalidate_l2(self, node: NodeId, predicate=None) -> int:
        """Flash-invalidate the lines of one GPM's L2 for which
        ``predicate(line, state)`` holds — every remotely-homed line
        when ``predicate`` is None."""
        l2 = self.l2[self.flat(node)]
        if predicate is None:
            dropped = l2.invalidate_remote()
        else:
            dropped = l2.invalidate_where(predicate)
        self.bulk_invs_per_gpm[self.flat(node)] += 1
        self.stats.lines_inv_by_acquire += dropped
        if self._tracing:
            self.tracer.bulk_invalidate(node, "l2", dropped)
        return dropped

    # -- releases ----------------------------------------------------------

    def _release_stall(self, op: MemOp) -> float:
        """Cycles a release stalls waiting for write-throughs to drain.

        Software releases carry no fence messages; the issuing L2 simply
        waits until the home node for the scope has acknowledged all
        pending writes (Section VI: "Store-release operations stall
        subsequent operations until the home node for the scope in
        question clears all pending writes").
        """
        raise NotImplementedError

    def _release(self, op: MemOp) -> AccessOutcome:
        out = self._store_op(op)
        if op.scope == Scope.CTA:
            out.exposed = True
            return out
        return AccessOutcome(0, out.latency + self._release_stall(op),
                             exposed=True)

    def _kernel_boundary(self, op: MemOp) -> AccessOutcome:
        stall = self._release_stall(op.with_scope(Scope.SYS))
        self.stats.lines_inv_by_acquire += self._invalidate_l1s(op.node)
        dropped = self._boundary_l2_invalidate(op.node)
        latency = stall + self.cfg.timing.bulk_invalidate_cycles
        return AccessOutcome(0, latency, exposed=True)

    def _boundary_l2_invalidate(self, node: NodeId) -> int:
        raise NotImplementedError


class NonHierarchicalSWProtocol(_SoftwareProtocolBase):
    """Flat scoped software coherence over N x M GPMs."""

    name = "sw"
    label = "Non-Hierarchical SW Coherence"

    # -- loads ---------------------------------------------------------

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

        local = self.l2[flat]
        self.l2_bytes_per_gpm[flat] += self._line_size
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

        home = self._nodes[sflat]
        if home.gpu != node.gpu:
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
        victim = local.fill(line, s2, version << 2 | 1)
        if victim is not None:
            self._handle_l2_victim(node, victim)
        self._l1_slots[slot].fill(line, s1, version << 2 | 1)
        if self._tracing:
            self.tracer.fill("l1", node, line)
        return version << 3 | where

    # -- stores ----------------------------------------------------------

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

        if not at_home:
            self.send(MsgType.STORE_REQ, node, self._nodes[sflat], line,
                      payload=payload)
            self._home_store(sflat, line, s2, version, payload)
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
            version = self._new_version()
            self._l1_slots[slot].fill(line, s1, version << 2)
            return AccessOutcome(version, self._l1_hit_lat,
                                 exposed=True, hit_level="l1")
        # Flat software coherence performs every scoped atomic at the
        # system home node — it has no closer coherence point.
        home = self.sys_home(line, op.node)
        version = self._new_version()
        latency = self._l2_hit_lat
        if op.node != home:
            self.send(MsgType.ATOMIC_REQ, op.node, home, line, payload=16)
            self.send(MsgType.ATOMIC_RESP, home, op.node, line)
            latency += self.rtt(op.node, home)
        self._home_store(self.flat(home), line, s2, version,
                         self._line_size)
        return AccessOutcome(version, latency, exposed=False)

    # -- synchronization ----------------------------------------------

    def _acquire(self, op: MemOp) -> AccessOutcome:
        if op.scope == Scope.CTA:
            out = self._load_op(op)
            out.exposed = True
            return out
        slices = self.l1[self.flat(op.node)]
        self.stats.lines_inv_by_acquire += self._invalidate_l1s(
            op.node, op.cta % len(slices)
        )
        # Bulk-invalidate every remotely-homed line in the local L2 —
        # the same action for .gpu and .sys in the flat protocol.
        self._bulk_invalidate_l2(op.node)
        out = self._load_op(op)
        out.latency += self.cfg.timing.bulk_invalidate_cycles
        out.exposed = True
        return out

    def _release_stall(self, op: MemOp) -> float:
        # Flat view: pending writes may target any GPM in the system.
        if self.cfg.num_gpus > 1:
            return 2.0 * self.cfg.latency.inter_gpu_hop
        return 2.0 * self.cfg.latency.inter_gpm_hop

    def _boundary_l2_invalidate(self, node: NodeId) -> int:
        return self._bulk_invalidate_l2(node)


class HierarchicalSWProtocol(_SoftwareProtocolBase):
    """Scoped software coherence with hierarchical request routing."""

    name = "hsw"
    label = "Hierarchical SW Coherence"

    # -- loads ---------------------------------------------------------

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
        # Scope-dependent hit permission: .cta hits anywhere, .gpu at
        # the GPU or system home, .sys only at the system home.
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
            version = self.dram[sflat].read(line)
            victim = local.fill(line, s2, version << 2)
            if victim is not None:
                self._handle_l2_victim(node, victim)
            self._l1_slots[slot].fill(line, s1, version << 2)
            if self._tracing:
                self.tracer.fill("l1", node, line)
            return version << 3 | DRAM

        nodes = self._nodes
        ghome = nodes[gflat]
        version = -1
        where = REMOTE_DRAM
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
                if victim is not None:
                    self._handle_l2_victim(syshome, victim)
            self.send(MsgType.DATA_RESP, syshome, ghome, line)
            if flat != gflat:
                victim = l2[gflat].fill(line, s2, version << 2 | 1)
                if victim is not None:
                    self._handle_l2_victim(ghome, victim)
                l2_bytes[gflat] += ls
        elif version < 0:
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

    # -- stores ----------------------------------------------------------

    def _store(self, line: int, node: NodeId, flat: int, slot: int,
               s1: int, s2: int, size: int) -> int:
        try:
            gflat, sflat = self._homes_memo[line * self._num_gpus + node.gpu]
        except KeyError:
            gflat, sflat = self._home_flats(line, node)
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

        if flat != gflat:
            ghome = self._nodes[gflat]
            self.send(MsgType.STORE_REQ, node, ghome, line, payload=payload)
            self.l2_bytes_per_gpm[gflat] += payload
            g_is_sys = gflat == sflat
            victim = self.l2[gflat].fill(
                line, s2, version << 2 | g_is_sys << 1 | (not g_is_sys))
            if victim is not None:
                self._handle_l2_victim(ghome, victim)
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
        return self._hier_store_outcome(line, node)

    def _atomic(self, op: MemOp) -> AccessOutcome:
        line, _, _, slot, s1, _ = self._decode(op)
        if op.scope == Scope.CTA:
            version = self._new_version()
            self._l1_slots[slot].fill(line, s1, version << 2)
            return AccessOutcome(version, self._l1_hit_lat,
                                 exposed=True, hit_level="l1")
        ghome, syshome = self.homes(line, op.node)
        # Hierarchical software coherence performs the atomic at the
        # home node for its scope: the GPU home is the .gpu coherence
        # point because all stores write through it.
        target = ghome if op.scope == Scope.GPU else syshome
        out = self._store_op(op)
        if op.node != target:
            self.send(MsgType.ATOMIC_RESP, target, op.node, line)
        latency = self._l2_hit_lat + self.rtt(op.node, target)
        return AccessOutcome(self._next_version - 1, latency, exposed=False)

    # -- synchronization ----------------------------------------------

    def _acquire(self, op: MemOp) -> AccessOutcome:
        if op.scope == Scope.CTA:
            out = self._load_op(op)
            out.exposed = True
            return out
        slices = self.l1[self.flat(op.node)]
        self.stats.lines_inv_by_acquire += self._invalidate_l1s(
            op.node, op.cta % len(slices)
        )
        if op.scope == Scope.GPU:
            # Drop lines whose GPU home is another GPM of this GPU.
            self._bulk_invalidate_l2(
                op.node,
                lambda line, state: self._gpu_home_of_line(line, op.node)
                != op.node,
            )
        else:
            # .sys: drop peer-GPU-homed lines in every L2 of this GPU,
            # plus (in the issuing GPM) lines GPU-homed elsewhere.
            gpu = op.node.gpu
            for other_gpm in range(self.cfg.gpms_per_gpu):
                target = NodeId(gpu, other_gpm)

                def stale(line, state, target=target):
                    owner = self._owner_of_line(line, target)
                    if owner.gpu != gpu:
                        return True
                    return (
                        target == op.node
                        and self._gpu_home_of_line(line, op.node)
                        != op.node
                    )

                self._bulk_invalidate_l2(target, stale)
        out = self._load_op(op)
        out.latency += self.cfg.timing.bulk_invalidate_cycles
        out.exposed = True
        return out

    def _release_stall(self, op: MemOp) -> float:
        if op.scope == Scope.GPU or self.cfg.num_gpus == 1:
            return 2.0 * self.cfg.latency.inter_gpm_hop
        return 2.0 * self.cfg.latency.inter_gpu_hop

    def _boundary_l2_invalidate(self, node: NodeId) -> int:
        def stale(line, state):
            # A .sys boundary must drop (a) peer-GPU-owned lines — even
            # at their designated GPU home, since peer-GPU writers make
            # them stale — and (b) lines GPU-homed at another GPM of
            # this GPU, which same-GPU writers make stale.
            owner = self._owner_of_line(line, node)
            if owner.gpu != node.gpu:
                return True
            return self.amap.gpu_home(line, node.gpu, owner) != node

        return self._bulk_invalidate_l2(node, stale)
