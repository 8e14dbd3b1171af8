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

from repro.core.protocol import AccessOutcome, CoherenceProtocol
from repro.core.types import MemOp, MsgType, NodeId, Scope


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

    def _bulk_invalidate_l2(self, node: NodeId, predicate) -> int:
        """Flash-invalidate matching lines in one GPM's L2."""
        dropped = self.l2[self.flat(node)].invalidate_where(predicate)
        self.bulk_invs_per_gpm[self.flat(node)] += 1
        self.stats.lines_inv_by_acquire += len(dropped)
        if self._tracing:
            self.tracer.bulk_invalidate(node, "l2", len(dropped))
        return len(dropped)

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

    def _home(self, line: int, toucher: NodeId) -> NodeId:
        return self.sys_home(line, toucher)

    # -- loads ---------------------------------------------------------

    def _load(self, line: int, node: NodeId, flat: int, slot: int,
              scope: Scope) -> AccessOutcome:
        home = self._home(line, node)
        lat = self._lat
        latency = self._l1_hit_lat

        if scope is Scope.CTA:
            hit = self._l1_slots[slot].lookup(line)
            if hit is not None:
                return AccessOutcome(hit.version, latency, hit_level="l1")

        local = self.l2[flat]
        self.l2_bytes_per_gpm[flat] += self._line_size
        latency += self._l2_hit_lat
        may_hit_local = scope == Scope.CTA or node == home
        entry = local.lookup(line) if may_hit_local else None
        if not may_hit_local:
            local.stats.misses += 1
        if entry is not None:
            self._l1_fill(slot, node, line, entry.version,
                          remote=home != node)
            return AccessOutcome(entry.version, latency,
                                 hit_level="local_l2")

        if node == home:
            version = self.dram[self.flat(home)].read(line)
            latency += lat.dram_access
            victim = local.fill(line, version, remote=False)
            self._handle_l2_victim(node, victim)
            self._l1_fill(slot, node, line, version, remote=False)
            return AccessOutcome(version, latency, hit_level="dram")

        if home.gpu != node.gpu:
            self.stats.remote_gpu_loads += 1
        self.send(MsgType.LOAD_REQ, node, home, line)
        latency += 2 * self.hop_latency(node, home)
        home_l2 = self.l2[self.flat(home)]
        self._l2_touch(home, self._line_size)
        latency += self._l2_hit_lat
        hentry = home_l2.lookup(line)
        if hentry is None:
            version = self.dram[self.flat(home)].read(line)
            latency += lat.dram_access
            hvictim = home_l2.fill(line, version, remote=False)
            self._handle_l2_victim(home, hvictim)
            level = "dram"
        else:
            version = hentry.version
            level = "home_l2"
        self.send(MsgType.DATA_RESP, home, node, line)
        victim = local.fill(line, version, remote=True)
        self._handle_l2_victim(node, victim)
        self._l1_fill(slot, node, line, version, remote=True)
        return AccessOutcome(version, latency, hit_level=level)

    # -- stores ----------------------------------------------------------

    def _store(self, line: int, node: NodeId, flat: int, slot: int,
               size: int) -> AccessOutcome:
        home = self._home(line, node)
        version = self._new_version()
        payload = min(size, self._line_size)
        latency = self._l1_hit_lat + self._l2_hit_lat

        self._l1_store(slot, line, version, remote=home != node)
        local = self.l2[flat]
        self.l2_bytes_per_gpm[flat] += payload
        victim = local.write(line, version, dirty=node == home,
                             remote=home != node)
        self._handle_l2_victim(node, victim)

        if node != home:
            self.send(MsgType.STORE_REQ, node, home, line, payload=payload)
            latency += self.hop_latency(node, home)
            self._home_store(home, line, version, payload)
        return AccessOutcome(0, latency)

    def _atomic(self, op: MemOp) -> AccessOutcome:
        line, _, _, slot = self.locate(op)
        if op.scope == Scope.CTA:
            version = self._new_version()
            self._l1_store(slot, line, version, remote=False)
            return AccessOutcome(version, self._l1_hit_lat,
                                 exposed=True, hit_level="l1")
        # Flat software coherence performs every scoped atomic at the
        # system home node — it has no closer coherence point.
        home = self._home(line, op.node)
        version = self._new_version()
        latency = self._l2_hit_lat
        if op.node != home:
            self.send(MsgType.ATOMIC_REQ, op.node, home, line, payload=16)
            self.send(MsgType.ATOMIC_RESP, home, op.node, line)
            latency += self.rtt(op.node, home)
        self._home_store(home, line, version, self._line_size)
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
        self._bulk_invalidate_l2(
            op.node, lambda entry: entry.remote
        )
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
        return self._bulk_invalidate_l2(node, lambda entry: entry.remote)


class HierarchicalSWProtocol(_SoftwareProtocolBase):
    """Scoped software coherence with hierarchical request routing."""

    name = "hsw"
    label = "Hierarchical SW Coherence"

    def _homes(self, line: int, node: NodeId):
        return self.homes(line, node)

    def _may_hit(self, cache_node: NodeId, scope: Scope, ghome: NodeId,
                 syshome: NodeId) -> bool:
        if scope == Scope.CTA:
            return True
        if scope == Scope.GPU:
            return cache_node in (ghome, syshome)
        return cache_node == syshome

    # -- loads ---------------------------------------------------------

    def _load(self, line: int, node: NodeId, flat: int, slot: int,
              scope: Scope) -> AccessOutcome:
        ghome, syshome = self.homes(line, node)
        lat = self._lat
        latency = self._l1_hit_lat

        if scope is Scope.CTA:
            hit = self._l1_slots[slot].lookup(line)
            if hit is not None:
                return AccessOutcome(hit.version, latency, hit_level="l1")

        local = self.l2[flat]
        self.l2_bytes_per_gpm[flat] += self._line_size
        latency += self._l2_hit_lat
        if self._may_hit(node, scope, ghome, syshome):
            entry = local.lookup(line)
        else:
            entry = None
            local.stats.misses += 1
        if entry is not None:
            self._l1_fill(slot, node, line, entry.version,
                          remote=node != syshome)
            return AccessOutcome(entry.version, latency,
                                 hit_level="local_l2")

        if node == syshome:
            version = self.dram[self.flat(syshome)].read(line)
            latency += lat.dram_access
            victim = local.fill(line, version, remote=False)
            self._handle_l2_victim(node, victim)
            self._l1_fill(slot, node, line, version, remote=False)
            return AccessOutcome(version, latency, hit_level="dram")

        version = None
        level = "dram"
        if node != ghome:
            self.send(MsgType.LOAD_REQ, node, ghome, line)
            latency += 2 * self.hop_latency(node, ghome)
            self._l2_touch(ghome, self._line_size)
            latency += self._l2_hit_lat
            gl2 = self.l2[self.flat(ghome)]
            if self._may_hit(ghome, scope, ghome, syshome):
                gentry = gl2.lookup(line)
            else:
                gentry = None
                gl2.stats.misses += 1
            if gentry is not None:
                version = gentry.version
                level = "gpu_home" if ghome != syshome else "sys_home"

        if version is None and ghome != syshome:
            self.stats.remote_gpu_loads += 1
            self.send(MsgType.LOAD_REQ, ghome, syshome, line)
            latency += 2 * self.hop_latency(ghome, syshome)
            self._l2_touch(syshome, self._line_size)
            latency += self._l2_hit_lat
            sentry = self.l2[self.flat(syshome)].lookup(line)
            if sentry is not None:
                version = sentry.version
                level = "sys_home"
            else:
                version = self.dram[self.flat(syshome)].read(line)
                latency += lat.dram_access
                svictim = self.l2[self.flat(syshome)].fill(
                    line, version, remote=False
                )
                self._handle_l2_victim(syshome, svictim)
            self.send(MsgType.DATA_RESP, syshome, ghome, line)
            if node != ghome:
                gvictim = self.l2[self.flat(ghome)].fill(
                    line, version, remote=True
                )
                self._handle_l2_victim(ghome, gvictim)
                self._l2_touch(ghome, self._line_size)
        elif version is None:
            version = self.dram[self.flat(syshome)].read(line)
            latency += lat.dram_access
            svictim = self.l2[self.flat(syshome)].fill(
                line, version, remote=False
            )
            self._handle_l2_victim(syshome, svictim)

        if node != ghome:
            self.send(MsgType.DATA_RESP, ghome, node, line)
        victim = local.fill(line, version, remote=True)
        self._handle_l2_victim(node, victim)
        self._l1_fill(slot, node, line, version, remote=True)
        return AccessOutcome(version, latency, hit_level=level)

    # -- stores ----------------------------------------------------------

    def _store(self, line: int, node: NodeId, flat: int, slot: int,
               size: int) -> AccessOutcome:
        ghome, syshome = self.homes(line, node)
        version = self._new_version()
        payload = min(size, self._line_size)
        latency = self._l1_hit_lat + self._l2_hit_lat

        self._l1_store(slot, line, version, remote=node != syshome)
        local = self.l2[flat]
        self.l2_bytes_per_gpm[flat] += payload
        victim = local.write(line, version, dirty=node == syshome,
                             remote=node != syshome)
        self._handle_l2_victim(node, victim)

        if node != ghome:
            self.send(MsgType.STORE_REQ, node, ghome, line, payload=payload)
            latency += self.hop_latency(node, ghome)
            gl2 = self.l2[self.flat(ghome)]
            self._l2_touch(ghome, payload)
            gvictim = gl2.write(line, version, dirty=ghome == syshome,
                                remote=ghome != syshome)
            self._handle_l2_victim(ghome, gvictim)
        if ghome != syshome:
            self.send(MsgType.STORE_REQ, ghome, syshome, line, payload=payload)
            latency += self.hop_latency(ghome, syshome)
            self._home_store(syshome, line, version, payload)
        return AccessOutcome(0, latency)

    def _atomic(self, op: MemOp) -> AccessOutcome:
        line, _, _, slot = self.locate(op)
        if op.scope == Scope.CTA:
            version = self._new_version()
            self._l1_store(slot, line, version, remote=False)
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
                lambda entry: self._gpu_home_of_line(entry.line, op.node)
                != op.node,
            )
        else:
            # .sys: drop peer-GPU-homed lines in every L2 of this GPU,
            # plus (in the issuing GPM) lines GPU-homed elsewhere.
            gpu = op.node.gpu
            for other_gpm in range(self.cfg.gpms_per_gpu):
                target = NodeId(gpu, other_gpm)

                def stale(entry, target=target):
                    owner = self._owner_of_line(entry.line, target)
                    if owner.gpu != gpu:
                        return True
                    return (
                        target == op.node
                        and self._gpu_home_of_line(entry.line, op.node)
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
        def stale(entry):
            # A .sys boundary must drop (a) peer-GPU-owned lines — even
            # at their designated GPU home, since peer-GPU writers make
            # them stale — and (b) lines GPU-homed at another GPM of
            # this GPU, which same-GPU writers make stale.
            owner = self._owner_of_line(entry.line, node)
            if owner.gpu != node.gpu:
                return True
            return self.amap.gpu_home(entry.line, node.gpu, owner) != node

        return self._bulk_invalidate_l2(node, stale)
