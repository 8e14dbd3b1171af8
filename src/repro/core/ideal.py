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

from repro.core.protocol import AccessOutcome, CoherenceProtocol
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

    def _homes(self, line: int, node: NodeId):
        return self.homes(line, node)

    def _track(self, cache, line: int) -> None:
        copies = self._copies.get(line)
        if copies is None:
            self._copies[line] = {cache}
        else:
            copies.add(cache)

    def _l1_fill(self, slot, node, line, version, remote):
        sl = self._l1_slots[slot]
        sl.fill(line, version, remote=remote)
        self._track(sl, line)

    def _l1_store(self, slot, line, version, remote):
        sl = self._l1_slots[slot]
        sl.write(line, version, dirty=False, remote=remote)
        self._track(sl, line)

    def _home_store(self, home: NodeId, line: int, version: int,
                    payload: int) -> None:
        super()._home_store(home, line, version, payload)
        self._track(self.l2[self.flat(home)], line)

    def _magic_invalidate(self, line: int) -> None:
        """Drop every cached copy of a line, for free: no messages, no
        latency, no directory state.  Runs before the store's own fills
        so the writer's path ends up holding only the fresh version."""
        copies = self._copies.pop(line, None)
        if copies:
            for cache in copies:
                cache.invalidate(line)

    def _load(self, line: int, node: NodeId, flat: int, slot: int,
              scope: Scope) -> AccessOutcome:
        ghome, syshome = self.homes(line, node)
        lat = self._lat
        latency = self._l1_hit_lat

        # Scope never forces a miss in the idealized model.
        hit = self._l1_slots[slot].lookup(line)
        if hit is not None:
            return AccessOutcome(hit.version, latency, hit_level="l1")

        local = self.l2[flat]
        self.l2_bytes_per_gpm[flat] += self._line_size
        latency += self._l2_hit_lat
        entry = local.lookup(line)
        if entry is not None:
            self._l1_fill(slot, node, line, entry.version,
                          remote=node != syshome)
            return AccessOutcome(entry.version, latency, hit_level="local_l2")

        if node == syshome:
            version = self.dram[self.flat(syshome)].read(line)
            latency += lat.dram_access
            victim = local.fill(line, version, remote=False)
            self._track(local, line)
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
            gentry = self.l2[self.flat(ghome)].lookup(line)
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
                sl2 = self.l2[self.flat(syshome)]
                svictim = sl2.fill(line, version, remote=False)
                self._track(sl2, line)
                self._handle_l2_victim(syshome, svictim)
            self.send(MsgType.DATA_RESP, syshome, ghome, line)
            if node != ghome:
                gl2 = self.l2[self.flat(ghome)]
                gvictim = gl2.fill(line, version, remote=True)
                self._track(gl2, line)
                self._handle_l2_victim(ghome, gvictim)
                self._l2_touch(ghome, self._line_size)
        elif version is None:
            version = self.dram[self.flat(syshome)].read(line)
            latency += lat.dram_access
            sl2 = self.l2[self.flat(syshome)]
            svictim = sl2.fill(line, version, remote=False)
            self._track(sl2, line)
            self._handle_l2_victim(syshome, svictim)

        if node != ghome:
            self.send(MsgType.DATA_RESP, ghome, node, line)
        victim = local.fill(line, version, remote=True)
        self._track(local, line)
        self._handle_l2_victim(node, victim)
        self._l1_fill(slot, node, line, version, remote=True)
        return AccessOutcome(version, latency, hit_level=level)

    def _store(self, line: int, node: NodeId, flat: int, slot: int,
               size: int) -> AccessOutcome:
        ghome, syshome = self.homes(line, node)
        version = self._new_version()
        payload = min(size, self._line_size)
        latency = self._l1_hit_lat + self._l2_hit_lat

        # Free, instant coherence: every stale copy vanishes first.
        self._magic_invalidate(line)
        self._l1_store(slot, line, version, remote=node != syshome)
        local = self.l2[flat]
        self.l2_bytes_per_gpm[flat] += payload
        victim = local.write(line, version, dirty=node == syshome,
                             remote=node != syshome)
        self._track(local, line)
        self._handle_l2_victim(node, victim)

        if node != ghome:
            self.send(MsgType.STORE_REQ, node, ghome, line, payload=payload)
            gl2 = self.l2[self.flat(ghome)]
            gvictim = gl2.write(
                line, version, dirty=ghome == syshome,
                remote=ghome != syshome,
            )
            self._track(gl2, line)
            self._handle_l2_victim(ghome, gvictim)
            self._l2_touch(ghome, payload)
        if ghome != syshome:
            self.send(MsgType.STORE_REQ, ghome, syshome, line, payload=payload)
            self._home_store(syshome, line, version, payload)
        return AccessOutcome(0, latency)

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
