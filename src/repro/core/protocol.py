"""Protocol framework shared by every coherence scheme.

A :class:`CoherenceProtocol` owns the *functional* state of the machine:
L1 slices, L2 partitions, DRAM partitions, the page table, and (for the
hardware protocols) coherence directories.  Processing a trace op
mutates that state, pushes the generated coherence traffic into a
:class:`TrafficSink`, and returns a compact :class:`AccessOutcome` that
the timing engines consume.

Keeping traffic emission behind a sink interface lets the throughput
engine aggregate bytes-per-resource with no per-message allocation,
while the detailed engine can materialize real messages and schedule
them through link queues.

The load and store handlers (``_load`` / ``_store``) return a packed int
code instead of an outcome object: ``version << 3 | where`` for a load,
where ``where`` names the level that served it (:data:`L1` ..
:data:`REMOTE_DRAM`), and 0 for a store unless its latency is exposed
(:data:`EXPOSED`).  A load's or store's latency is a pure function of
which transition fired and of the line's homes, so the throughput
engine's columnar loop never computes it; :meth:`CoherenceProtocol.process`
and the ``MemOp`` paths rebuild the full :class:`AccessOutcome` from the
code (``_load_outcome`` / ``_store_outcome``).  See DESIGN.md, "The
handler contract".
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

from repro.config import SystemConfig
from repro.core.directory import CoherenceDirectory
from repro.core.types import MemOp, MsgType, NodeId, OpType, Scope
from repro.memsys.address import AddressMap
from repro.memsys.cache import DIRTY, SetAssociativeCache
from repro.memsys.dram import DramPartition
from repro.memsys.page_table import PageTable, make_placement
from repro.telemetry.tracer import NULL_TRACER


class TrafficSink(abc.ABC):
    """Receives every coherence message the protocol emits."""

    @abc.abstractmethod
    def send(self, mtype: MsgType, src: NodeId, dst: NodeId,
             line: int, size_bytes: int) -> None:
        """One message of ``size_bytes`` from ``src`` to ``dst``."""


class NullSink(TrafficSink):
    """Discards traffic — for purely functional tests."""

    def send(self, mtype, src, dst, line, size_bytes):
        pass


class RecordingSink(TrafficSink):
    """Keeps every message — for protocol unit tests."""

    def __init__(self):
        self.messages = []

    def send(self, mtype, src, dst, line, size_bytes):
        from repro.core.types import Message

        self.messages.append(
            Message(mtype, src, dst, address=line, size_bytes=size_bytes)
        )

    def of_type(self, mtype: MsgType):
        """All recorded messages of one type."""
        return [m for m in self.messages if m.mtype == mtype]

    def clear(self):
        """Drop all recorded messages."""
        self.messages.clear()


#: Where a load was served — the low three bits of a load handler's
#: code: the issuing SM's L1, its GPM's own L2, the GPU home's L2, the
#: system home's L2, DRAM at the requester (which is the system home),
#: and DRAM at a remote system home.
L1, LOCAL_L2, GPU_HOME, SYS_HOME, DRAM, REMOTE_DRAM = range(6)
#: Low bits of a store handler's code when the store's latency is
#: exposed to the pipeline (GPU-VI's acknowledgment wait); the bits
#: above carry what the protocol needs to rebuild that latency.
EXPOSED = 7


class AccessOutcome:
    """Result of one processed trace operation."""

    __slots__ = ("version", "latency", "exposed", "hit_level")

    def __init__(self, version: int = 0, latency: float = 0.0,
                 exposed: bool = False, hit_level: str = "none"):
        #: Functional version of the data a load observed (0 for writes).
        self.version = version
        #: Unloaded critical-path latency of the op, in cycles.
        self.latency = latency
        #: True when the latency is exposed to the pipeline (sync ops).
        self.exposed = exposed
        #: Where a load was satisfied: l1, local_l2, gpu_home, sys_home,
        #: dram — or 'none' for non-loads.
        self.hit_level = hit_level

    def __repr__(self):
        return (f"AccessOutcome(v{self.version}, {self.latency:.0f}cy, "
                f"{self.hit_level}{', exposed' if self.exposed else ''})")


@dataclass(slots=True)
class ProtocolStats:
    """Coherence-event counters, aggregated over a whole run."""

    op_counts: dict = field(default_factory=dict)  # OpType -> int
    msg_counts: dict = field(default_factory=dict)  # MsgType -> int
    msg_bytes: dict = field(default_factory=dict)  # MsgType -> int

    loads: int = 0
    remote_gpu_loads: int = 0  # loads whose system home is a peer GPU
    stores: int = 0
    #: Stores that found at least one other sharer in a directory.
    stores_on_shared: int = 0
    #: Cache lines actually dropped from caches due to store-triggered
    #: invalidations (Fig 9 numerator).
    lines_inv_by_store: int = 0
    #: Directory entry evictions that had sharers (Fig 10 denominator).
    dir_evictions: int = 0
    #: Lines dropped due to directory-eviction invalidations (Fig 10).
    lines_inv_by_dir_evict: int = 0
    #: Lines dropped by software bulk (acquire-time) invalidations.
    lines_inv_by_acquire: int = 0
    acquires: int = 0
    releases: int = 0
    kernel_boundaries: int = 0
    atomics: int = 0

    def count_op(self, op: OpType) -> None:
        """Tally one processed trace operation."""
        self.op_counts[op] = self.op_counts.get(op, 0) + 1

    def count_msg(self, mtype: MsgType, size: int) -> None:
        """Tally one emitted message and its bytes."""
        self.msg_counts[mtype] = self.msg_counts.get(mtype, 0) + 1
        self.msg_bytes[mtype] = self.msg_bytes.get(mtype, 0) + size

    @property
    def inv_messages(self) -> int:
        return self.msg_counts.get(MsgType.INVALIDATION, 0)

    @property
    def inv_bytes(self) -> int:
        return self.msg_bytes.get(MsgType.INVALIDATION, 0)

    @property
    def total_message_bytes(self) -> int:
        return sum(self.msg_bytes.values())

    @property
    def lines_inv_per_shared_store(self) -> float:
        """Fig 9 metric."""
        if not self.stores_on_shared:
            return 0.0
        return self.lines_inv_by_store / self.stores_on_shared

    @property
    def lines_inv_per_dir_eviction(self) -> float:
        """Fig 10 metric."""
        if not self.dir_evictions:
            return 0.0
        return self.lines_inv_by_dir_evict / self.dir_evictions


#: The :class:`ProtocolStats` field each op kind increments.
KIND_COUNTERS = {
    OpType.LOAD: "loads",
    OpType.STORE: "stores",
    OpType.ATOMIC: "atomics",
    OpType.ACQUIRE: "acquires",
    OpType.RELEASE: "releases",
    OpType.KERNEL_BOUNDARY: "kernel_boundaries",
}


class CoherenceProtocol(abc.ABC):
    """Functional model of one coherence scheme over the whole machine.

    Subclasses implement the per-op-type flows; this base provides the
    machine structure, address/home mapping, message emission, L1
    handling, and the version clock used for value tracking.
    """

    #: Registry name; subclasses override.
    name = "abstract"
    #: Human-readable label used in figures.
    label = "Abstract"
    #: Whether this protocol maintains coherence directories.
    has_directory = False

    def __init__(self, cfg: SystemConfig, sink: TrafficSink = None,
                 placement: str = "first_touch"):
        self.cfg = cfg
        self.sink = sink if sink is not None else NullSink()
        #: Telemetry event sink (:mod:`repro.telemetry.tracer`).  The
        #: default is the shared no-op tracer; install a recording one
        #: with :meth:`set_tracer`.  Hot-path instrumentation sites
        #: guard on the cached ``_tracing`` bool — one attribute load
        #: and branch per potential event, nothing else, when off.
        self.tracer = NULL_TRACER
        self._tracing = False
        self.amap = AddressMap.from_config(cfg)
        self.page_table = PageTable(
            cfg.page_size,
            make_placement(placement, cfg.num_gpus, cfg.gpms_per_gpu),
        )
        self.stats = ProtocolStats()
        self._next_version = 1
        # Hot-path constants and memos.  Home mapping is a pure function
        # of the line (after the page's first touch pins its owner), so
        # both lookups are memoized per protocol instance, as flat GPM
        # indices; the message size table flattens the per-class
        # if-chain into dict lookups.
        self._gpms_per_gpu = cfg.gpms_per_gpu
        self._num_gpus = cfg.num_gpus
        #: Every GPM's ``NodeId``, indexed by flat index.
        self._nodes = [NodeId.from_flat(i, cfg.gpms_per_gpu)
                       for i in range(cfg.total_gpms)]
        #: line -> flat index of its system home.
        self._sys_home_memo: dict = {}
        #: ``line * num_gpus + gpu`` -> (GPU home, system home) flat
        #: indices of the line as seen from ``gpu``.
        self._homes_memo: dict = {}
        self._lat = cfg.latency
        self._l1_hit_lat = float(cfg.latency.l1_hit)
        self._l2_hit_lat = float(cfg.latency.l2_hit)
        self._line_size = cfg.line_size
        self._line_bits = self.amap.line_bits
        self._sector_bits = self.amap.sector_bits
        sizes = cfg.message_sizes
        data_size = sizes.data_payload_extra + cfg.line_size
        self._req_header = sizes.request_header
        self._fixed_msg_size = {
            MsgType.DATA_RESP: data_size,
            MsgType.WRITEBACK: data_size,
            MsgType.ATOMIC_RESP: sizes.request_header,
            MsgType.INVALIDATION: sizes.invalidation,
            MsgType.RELEASE_FENCE: sizes.release_fence,
            MsgType.RELEASE_ACK: sizes.acknowledgment,
            MsgType.INV_ACK: sizes.acknowledgment,
            MsgType.DOWNGRADE: sizes.downgrade,
        }

        n = cfg.total_gpms
        self.l2: list[SetAssociativeCache] = [
            self._make_l2(i) for i in range(n)
        ]
        self.l1: list[list[SetAssociativeCache]] = [
            [
                SetAssociativeCache(
                    cfg.l1_bytes_per_slice, cfg.line_size, cfg.l1_ways,
                    name=f"l1[{i}][{s}]",
                )
                for s in range(cfg.l1_slices_per_gpm)
            ]
            for i in range(n)
        ]
        #: Every L1 slice in flat slot order: slot ``flat * slices +
        #: cta % slices`` is ``l1[flat][cta % slices]``.
        self._l1_per_gpm = cfg.l1_slices_per_gpm
        self._l1_slots: list[SetAssociativeCache] = [
            sl for slices in self.l1 for sl in slices
        ]
        self.dram: list[DramPartition] = [
            DramPartition(cfg.line_size, name=f"dram[{i}]") for i in range(n)
        ]
        self.dirs: list[CoherenceDirectory] = (
            [
                CoherenceDirectory(
                    cfg.dir_entries_per_gpm, cfg.dir_ways, name=f"dir[{i}]"
                )
                for i in range(n)
            ]
            if self.has_directory
            else []
        )
        # Every L1 slice shares one geometry, and so does every L2
        # partition: one set index per level serves all of them.
        self._l1_set = self._l1_slots[0].set_index
        self._l2_set = self.l2[0].set_index
        #: Per-GPM count of ops issued (throughput engine input).
        self.ops_per_gpm = [0] * n
        #: Per-GPM L2 data-bank bytes moved (throughput engine input).
        self.l2_bytes_per_gpm = [0.0] * n
        #: Per-GPM count of whole-cache bulk invalidations (timing cost).
        self.bulk_invs_per_gpm = [0] * n

    def set_tracer(self, tracer) -> None:
        """Install a telemetry tracer and refresh the hot-path guard.

        ``_tracing`` caches ``tracer.enabled`` so instrumentation sites
        branch on one bool attribute instead of dereferencing the
        tracer first — the difference compiles telemetry out of the
        per-op loop when the null tracer is active.
        """
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._tracing = self.tracer.enabled

    def _make_l2(self, flat_index: int) -> SetAssociativeCache:
        return SetAssociativeCache(
            self.cfg.l2_bytes_per_gpm, self.cfg.line_size, self.cfg.l2_ways,
            name=f"l2[{flat_index}]",
        )

    # ------------------------------------------------------------------
    # Identity / mapping helpers
    # ------------------------------------------------------------------

    def flat(self, node: NodeId) -> int:
        """Flatten a (gpu, gpm) id to a machine-wide index."""
        return node.gpu * self._gpms_per_gpu + node.gpm

    def node(self, flat_index: int) -> NodeId:
        """Inverse of :meth:`flat`."""
        return NodeId.from_flat(flat_index, self.cfg.gpms_per_gpu)

    def all_nodes(self):
        """Every GPM of the machine, in flat order."""
        for i in range(self.cfg.total_gpms):
            yield self.node(i)

    def sys_home(self, line: int, toucher: NodeId) -> NodeId:
        """System home node of a line: the GPM whose DRAM holds its page
        (placing the page first-touch if untouched)."""
        return self._nodes[self._sys_flat(line, toucher)]

    def _sys_flat(self, line: int, toucher: NodeId) -> int:
        """Flat index of :meth:`sys_home`.

        Memoized per line: once the containing page is placed, the home
        never changes under any placement policy, and this lookup sits
        on the per-op hot path of every protocol (whose handlers read
        the memo inline and call this only on a miss).
        """
        try:
            return self._sys_home_memo[line]
        except KeyError:
            page = self.amap.page_of_line(line)
            home = self.page_table.owner_of_page(page, toucher)
            flat = home.gpu * self._gpms_per_gpu + home.gpm
            self._sys_home_memo[line] = flat
            return flat

    def gpu_home(self, line: int, gpu: int, syshome: NodeId) -> NodeId:
        """GPU home node for a line within ``gpu`` (Section V-A): the
        system home itself inside the owning GPU, a hash-designated GPM
        elsewhere."""
        return self.amap.gpu_home(line, gpu, syshome)

    def homes(self, line: int, node: NodeId) -> tuple:
        """(gpu_home, sys_home) for a line as seen from ``node``."""
        gflat, sflat = self._home_flats(line, node)
        return self._nodes[gflat], self._nodes[sflat]

    def _home_flats(self, line: int, node: NodeId) -> tuple:
        """Flat indices of :meth:`homes`.

        Memoized per ``(line, gpu)``: both homes are stable once the
        page is placed, and the pair is needed by every load and store
        of the hierarchical protocols (whose handlers read the memo
        inline and call this only on a miss).
        """
        key = line * self._num_gpus + node.gpu
        try:
            return self._homes_memo[key]
        except KeyError:
            sflat = self._sys_flat(line, node)
            ghome = self.amap.gpu_home(line, node.gpu, self._nodes[sflat])
            pair = (ghome.gpu * self._gpms_per_gpu + ghome.gpm, sflat)
            self._homes_memo[key] = pair
            return pair

    def locate(self, op: MemOp) -> tuple:
        """Decode ``op`` into ``(line, node, flat, slot)``: its cache
        line, issuing GPM, flat GPM index and flat L1 slot (see
        :attr:`_l1_slots`)."""
        node = op.node
        flat = node.gpu * self._gpms_per_gpu + node.gpm
        per_gpm = self._l1_per_gpm
        return (op.address >> self._line_bits, node, flat,
                flat * per_gpm + op.cta % per_gpm)

    def _decode(self, op: MemOp) -> tuple:
        """:meth:`locate` plus the line's L1 and L2 set indices: the
        leading handler arguments ``(line, node, flat, slot, s1, s2)``."""
        line, node, flat, slot = self.locate(op)
        return line, node, flat, slot, self._l1_set(line), self._l2_set(line)

    # ------------------------------------------------------------------
    # Latency helpers
    # ------------------------------------------------------------------

    def hop_latency(self, src: NodeId, dst: NodeId) -> int:
        """One-way network latency between two GPMs."""
        if src == dst:
            return 0
        if src.gpu == dst.gpu:
            return self._lat.inter_gpm_hop
        return self._lat.inter_gpu_hop

    def rtt(self, src: NodeId, dst: NodeId) -> int:
        """Unloaded round-trip latency between two GPMs."""
        return 2 * self.hop_latency(src, dst)

    # ------------------------------------------------------------------
    # Message / accounting helpers
    # ------------------------------------------------------------------

    def _msg_size(self, mtype: MsgType, payload: int = 0) -> int:
        size = self._fixed_msg_size.get(mtype)
        if size is not None:
            return size
        if mtype in (MsgType.LOAD_REQ, MsgType.ATOMIC_REQ,
                     MsgType.STORE_REQ):
            return self._req_header + payload
        raise ValueError(f"unknown message type {mtype}")

    def send(self, mtype: MsgType, src: NodeId, dst: NodeId,
             line: int = 0, payload: int = 0) -> None:
        """Emit one message: account it and hand it to the sink."""
        size = self._fixed_msg_size.get(mtype)
        if size is None:
            size = self._msg_size(mtype, payload)
        stats = self.stats
        try:
            stats.msg_counts[mtype] += 1
        except KeyError:
            stats.msg_counts[mtype] = 1
        try:
            stats.msg_bytes[mtype] += size
        except KeyError:
            stats.msg_bytes[mtype] = size
        self.sink.send(mtype, src, dst, line, size)

    def _new_version(self) -> int:
        v = self._next_version
        self._next_version += 1
        return v

    def _home_store(self, hflat: int, line: int, s2: int, version: int,
                    payload: int) -> None:
        """Apply a store at its home node (flat index ``hflat``; ``s2``
        is the line's L2 set).

        The home L2 keeps the line dirty (it is the last level before
        DRAM); DRAM is updated when the dirty line is evicted, as a
        memory-side cache would, rather than on every write-through.
        """
        self.l2_bytes_per_gpm[hflat] += payload
        victim = self.l2[hflat].fill(line, s2, version << 2 | DIRTY)
        if victim is not None:
            self._handle_l2_victim(self._nodes[hflat], victim)

    # ------------------------------------------------------------------
    # L2 victim handling (shared)
    # ------------------------------------------------------------------

    def _handle_l2_victim(self, node: NodeId, victim: tuple) -> None:
        """Default policy for an evicted ``(line, state)``: silent clean
        eviction; dirty lines are written back to the home node.
        Subclasses with directories add downgrade handling."""
        line, state = victim
        if self._tracing:
            self.tracer.evict("l2", node, line, bool(state & DIRTY))
        if state & DIRTY:
            hflat = self._sys_flat(line, node)
            home = self._nodes[hflat]
            if home != node:
                self.send(MsgType.WRITEBACK, node, home, line)
            self.dram[hflat].write(line, state >> 2)

    # ------------------------------------------------------------------
    # Op processing
    # ------------------------------------------------------------------

    def process(self, op: MemOp) -> AccessOutcome:
        """Run one trace operation through the protocol.

        Counts the op, then hands it to the per-kind handler: loads and
        stores go to :meth:`_load_op` / :meth:`_store_op`, which decode
        it into the handler arguments the throughput engine's columnar
        loop passes straight from the trace columns and rebuild the
        :class:`AccessOutcome` from the handler's code; atomics and
        synchronizing ops go to their ``MemOp`` handlers.
        """
        kind = op.op
        stats = self.stats
        counts = stats.op_counts
        try:
            counts[kind] += 1
        except KeyError:
            counts[kind] = 1
        node = op.node
        self.ops_per_gpm[node.gpu * self._gpms_per_gpu + node.gpm] += 1
        # Identity comparison is safe (enum members are singletons) and
        # the branches are ordered by trace frequency.
        if kind is OpType.LOAD:
            stats.loads += 1
            return self._load_op(op)
        if kind is OpType.STORE:
            stats.stores += 1
            return self._store_op(op)
        if kind is OpType.ATOMIC:
            stats.atomics += 1
            return self._atomic(op)
        if kind is OpType.ACQUIRE:
            stats.acquires += 1
            return self._acquire(op)
        if kind is OpType.RELEASE:
            stats.releases += 1
            return self._release(op)
        if kind is OpType.KERNEL_BOUNDARY:
            stats.kernel_boundaries += 1
            return self._kernel_boundary(op)
        raise ValueError(f"unknown op type {op.op}")

    def count_ops(self, kind_order, kind_counts, ops_per_gpm) -> None:
        """Apply, for a whole trace at once, the counters :meth:`process`
        bumps per op: ``op_counts`` (keys added in ``kind_order``, the
        kinds' first-appearance order), the per-kind ``ProtocolStats``
        fields (``kind_counts`` is indexed by ``OpType`` value) and
        ``ops_per_gpm``."""
        stats = self.stats
        counts = stats.op_counts
        for kind in kind_order:
            n = kind_counts[kind]
            counts[kind] = counts.get(kind, 0) + n
            name = KIND_COUNTERS[kind]
            setattr(stats, name, getattr(stats, name) + n)
        for flat, n in enumerate(ops_per_gpm):
            self.ops_per_gpm[flat] += n

    def sync_handlers(self) -> tuple:
        """The ``MemOp`` handler of every non-load/store kind, indexed
        by ``OpType`` value (uncounted: see :meth:`count_ops`)."""
        handlers = [None] * len(OpType)
        handlers[OpType.ATOMIC] = self._atomic
        handlers[OpType.ACQUIRE] = self._acquire
        handlers[OpType.RELEASE] = self._release
        handlers[OpType.KERNEL_BOUNDARY] = self._kernel_boundary
        return tuple(handlers)

    @abc.abstractmethod
    def _load(self, line: int, node: NodeId, flat: int, slot: int,
              s1: int, s2: int, scope: Scope) -> int:
        """A load of ``line`` (L1 set ``s1``, L2 set ``s2``) by ``node``
        (flat index ``flat``) through L1 slot ``slot`` at ``scope``.
        Returns ``version << 3 | where`` (see :data:`L1`)."""

    @abc.abstractmethod
    def _store(self, line: int, node: NodeId, flat: int, slot: int,
               s1: int, s2: int, size: int) -> int:
        """A ``size``-byte store to ``line`` (sets ``s1``/``s2``) by
        ``node`` through L1 slot ``slot``.  Returns 0, or a code whose
        low bits are :data:`EXPOSED`."""

    @abc.abstractmethod
    def _load_outcome(self, code: int, line: int, node: NodeId,
                      scope: Scope) -> AccessOutcome:
        """The :class:`AccessOutcome` of a load that returned ``code``:
        a pure function of the code, the line's homes and the scope."""

    @abc.abstractmethod
    def _store_outcome(self, code: int, line: int,
                       node: NodeId) -> AccessOutcome:
        """The :class:`AccessOutcome` of a store that returned ``code``."""

    def exposed_latency(self, code: int) -> float:
        """Exposed latency of a store whose code is :data:`EXPOSED`
        (the columnar loop's stall, without building an outcome)."""
        raise ValueError(f"{self.name} stores are never exposed")

    def _load_op(self, op: MemOp, scope: Scope = None) -> AccessOutcome:
        """:meth:`_load` for a ``MemOp`` (at ``scope`` if given)."""
        line, node, flat, slot, s1, s2 = self._decode(op)
        if scope is None:
            scope = op.scope
        code = self._load(line, node, flat, slot, s1, s2, scope)
        return self._load_outcome(code, line, node, scope)

    def _store_op(self, op: MemOp) -> AccessOutcome:
        """:meth:`_store` for a ``MemOp``."""
        line, node, flat, slot, s1, s2 = self._decode(op)
        code = self._store(line, node, flat, slot, s1, s2, op.size)
        return self._store_outcome(code, line, node)

    @abc.abstractmethod
    def _atomic(self, op: MemOp) -> AccessOutcome: ...

    @abc.abstractmethod
    def _acquire(self, op: MemOp) -> AccessOutcome: ...

    @abc.abstractmethod
    def _release(self, op: MemOp) -> AccessOutcome: ...

    def _kernel_boundary(self, op: MemOp) -> AccessOutcome:
        """Implicit .sys release + acquire for one GPM (bulk-synchronous
        kernel dependency).  Subclasses refine the invalidation part."""
        rel = self._release(op.with_scope(Scope.SYS))
        acq = self._acquire(op.with_scope(Scope.SYS))
        return AccessOutcome(
            latency=rel.latency + acq.latency, exposed=True
        )

    # ------------------------------------------------------------------
    # Outcome rebuilding (shared formulas)
    # ------------------------------------------------------------------

    def _flat_load_outcome(self, code: int, line: int, node: NodeId,
                           local_l2: bool = True) -> AccessOutcome:
        """Outcome of a load under a flat protocol, which requests from
        the system home directly.  ``local_l2`` says whether the load
        accessed its own L2 before leaving the GPM."""
        version, where = code >> 3, code & 7
        latency = self._l1_hit_lat
        if where == L1:
            return AccessOutcome(version, latency, hit_level="l1")
        if local_l2:
            latency += self._l2_hit_lat
        if where == LOCAL_L2:
            return AccessOutcome(version, latency, hit_level="local_l2")
        if where == DRAM:
            return AccessOutcome(version, latency + self._lat.dram_access,
                                 hit_level="dram")
        latency += 2 * self.hop_latency(node, self.sys_home(line, node))
        latency += self._l2_hit_lat
        if where == SYS_HOME:
            return AccessOutcome(version, latency, hit_level="home_l2")
        return AccessOutcome(version, latency + self._lat.dram_access,
                             hit_level="dram")

    def _hier_load_outcome(self, code: int, line: int, node: NodeId,
                           local_level: str = "local_l2") -> AccessOutcome:
        """Outcome of a load under a hierarchical protocol, which climbs
        local L2 -> GPU home -> system home.  ``local_level`` is the
        hit level reported for a hit in the requester's own L2."""
        version, where = code >> 3, code & 7
        latency = self._l1_hit_lat
        if where == L1:
            return AccessOutcome(version, latency, hit_level="l1")
        latency += self._l2_hit_lat
        if where == LOCAL_L2:
            return AccessOutcome(version, latency, hit_level=local_level)
        if where == DRAM:
            return AccessOutcome(version, latency + self._lat.dram_access,
                                 hit_level="dram")
        ghome, syshome = self.homes(line, node)
        if node != ghome:
            latency += 2 * self.hop_latency(node, ghome)
            latency += self._l2_hit_lat
        if where == GPU_HOME:
            return AccessOutcome(
                version, latency,
                hit_level="gpu_home" if ghome != syshome else "sys_home")
        if ghome != syshome:
            latency += 2 * self.hop_latency(ghome, syshome)
            latency += self._l2_hit_lat
        if where == SYS_HOME:
            return AccessOutcome(version, latency, hit_level="sys_home")
        return AccessOutcome(version, latency + self._lat.dram_access,
                             hit_level="dram")

    def _flat_store_outcome(self, line: int, node: NodeId) -> AccessOutcome:
        """Outcome of a write-through store under a flat protocol: L1
        and local L2, then one hop to the system home."""
        home = self.sys_home(line, node)
        latency = self._l1_hit_lat + self._l2_hit_lat
        if node != home:
            latency += self.hop_latency(node, home)
        return AccessOutcome(0, latency)

    def _hier_store_outcome(self, line: int, node: NodeId) -> AccessOutcome:
        """Outcome of a write-through store under a hierarchical
        protocol: L1 and local L2, then a hop to the GPU home and one on
        to the system home."""
        ghome, syshome = self.homes(line, node)
        latency = self._l1_hit_lat + self._l2_hit_lat
        if node != ghome:
            latency += self.hop_latency(node, ghome)
        if ghome != syshome:
            latency += self.hop_latency(ghome, syshome)
        return AccessOutcome(0, latency)

    # ------------------------------------------------------------------
    # Shared flow fragments
    # ------------------------------------------------------------------

    def _invalidate_l1s(self, node: NodeId, slice_index: int = None) -> int:
        """Flash-invalidate L1 slice(s) of a GPM (acquire semantics)."""
        flat = self.flat(node)
        slices = self.l1[flat]
        targets = slices if slice_index is None else [slices[slice_index]]
        dropped = 0
        for sl in targets:
            dropped += sl.invalidate_all()
        self.bulk_invs_per_gpm[flat] += len(targets)
        if self._tracing:
            self.tracer.bulk_invalidate(node, "l1", dropped)
        return dropped

    # ------------------------------------------------------------------
    # Introspection for tests
    # ------------------------------------------------------------------

    def l2_of(self, node: NodeId) -> SetAssociativeCache:
        """A GPM's L2 partition (test/introspection helper)."""
        return self.l2[self.flat(node)]

    def dram_of(self, node: NodeId) -> DramPartition:
        """A GPM's DRAM partition (test/introspection helper)."""
        return self.dram[self.flat(node)]

    def dir_of(self, node: NodeId) -> CoherenceDirectory:
        """A GPM's coherence directory (hardware protocols only)."""
        if not self.has_directory:
            raise AttributeError(f"{self.name} has no coherence directory")
        return self.dirs[self.flat(node)]

    def caches_holding(self, line: int) -> list[NodeId]:
        """All GPMs whose L2 currently holds a valid copy of ``line``."""
        return [
            self.node(i)
            for i, l2 in enumerate(self.l2)
            if l2.peek(line) is not None
        ]
