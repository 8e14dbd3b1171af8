"""Columnar trace storage: the one stored form of every trace.

A trace is held as one numpy structured array of 18-byte records,
``<BQBBHBI>`` — (op, address, gpu, gpm, cta, scope, size) — which is
byte for byte the binary trace cache's payload
(:mod:`repro.trace.cache`).  Generation appends records
(:mod:`repro.trace.generator`), the cache writes them with one
``tobytes`` and reads them back with one ``np.frombuffer``, and the
engines consume the columns directly.

Per-op consumers — the detailed engine, the sanitizer and telemetry
loops of the throughput engine, locality analysis, the JSON-lines trace
format — see :class:`~repro.core.types.MemOp` objects materialized on
demand by :meth:`BatchTrace.iter_ops` / :meth:`BatchTrace.op_at`;
nothing keeps them.

Columns that depend on the platform geometry (line indices, flat GPM
and L1 slot numbers, L1 and L2 set indices, the per-kind and per-GPM op
counts) are derived once per geometry by :func:`decoded` and memoized
in :attr:`BatchTrace.prepared`, so every protocol cell of a sweep — on
either throughput engine — shares them.
"""

from __future__ import annotations

import numpy as np

from repro.core import batchmap
from repro.core.types import MemOp, NodeId, OpType, Scope

#: Packed layout of one op — must mirror ``repro.trace.cache._OP``
#: (``struct.Struct("<BQBBHBI")``, 18 bytes).
OP_DTYPE = np.dtype({
    "names": ["op", "address", "gpu", "gpm", "cta", "scope", "size"],
    "formats": ["u1", "<u8", "u1", "u1", "<u2", "u1", "<u4"],
    "offsets": [0, 1, 9, 10, 11, 13, 14],
    "itemsize": 18,
})

#: Largest value each packed field holds (every field is unsigned).
FIELD_MAX = {name: int(np.iinfo(OP_DTYPE[name]).max)
             for name in OP_DTYPE.names}

_OP_TYPES = tuple(OpType)
_SCOPES = tuple(Scope)
#: Ops materialized per ``tolist`` batch when iterating as MemOps.
_ITER_CHUNK = 4096


def validate(records: np.ndarray) -> None:
    """Raise ``ValueError`` naming the first op whose kind or scope is
    not a known value or whose size is not positive."""
    bad = ((records["op"] >= len(_OP_TYPES))
           | (records["scope"] >= len(_SCOPES))
           | (records["size"] == 0))
    if bad.any():
        i = int(np.argmax(bad))
        rec = records[i]
        raise ValueError(
            f"op {i}: invalid kind/scope/size "
            f"({int(rec['op'])}, {int(rec['scope'])}, {int(rec['size'])})"
        )


class BatchTrace:
    """One trace as an array of packed op records (see module docstring)."""

    __slots__ = ("records", "prepared")

    def __init__(self, records: np.ndarray):
        if records.dtype != OP_DTYPE:
            raise TypeError(f"records must have dtype OP_DTYPE, "
                            f"got {records.dtype}")
        self.records = records
        #: Geometry-derived columns, keyed per consumer (see
        #: :func:`decoded` and the vectorized engine's ``_prepare``).
        self.prepared: dict = {}

    def __len__(self) -> int:
        return int(self.records.size)

    # -- columns (views into the records, no copies) -------------------

    @property
    def kind(self) -> np.ndarray:
        return self.records["op"]

    @property
    def address(self) -> np.ndarray:
        return self.records["address"]

    @property
    def gpu(self) -> np.ndarray:
        return self.records["gpu"]

    @property
    def gpm(self) -> np.ndarray:
        return self.records["gpm"]

    @property
    def cta(self) -> np.ndarray:
        return self.records["cta"]

    @property
    def scope(self) -> np.ndarray:
        return self.records["scope"]

    @property
    def size(self) -> np.ndarray:
        return self.records["size"]

    # -- construction --------------------------------------------------

    @classmethod
    def from_payload(cls, payload, count: int = None) -> "BatchTrace":
        """View the trace cache's packed op payload as records.

        ``payload`` is the raw bytes between the JSON header and the CRC
        trailer of a ``.trc`` file (``count * 18`` bytes).  The records
        alias ``payload`` (read-only): nothing is decoded or copied.
        """
        return cls(np.frombuffer(
            payload, dtype=OP_DTYPE, count=-1 if count is None else count))

    @classmethod
    def from_ops(cls, ops) -> "BatchTrace":
        """Pack a sequence of :class:`MemOp` (hand-built traces, the
        JSON-lines format).  Raises ``ValueError`` for a field value the
        packed format cannot hold (negative, or above
        :data:`FIELD_MAX`)."""
        records = np.empty(len(ops), OP_DTYPE)
        for field, values in (
            ("op", [op.op for op in ops]),
            ("address", [op.address for op in ops]),
            ("gpu", [op.node.gpu for op in ops]),
            ("gpm", [op.node.gpm for op in ops]),
            ("cta", [op.cta for op in ops]),
            ("scope", [op.scope for op in ops]),
            ("size", [op.size for op in ops]),
        ):
            if values and not (0 <= min(values)
                               and max(values) <= FIELD_MAX[field]):
                bad = next(i for i, v in enumerate(values)
                           if not 0 <= v <= FIELD_MAX[field])
                raise ValueError(
                    f"op {bad}: {field} {values[bad]} does not fit the "
                    f"packed trace format (0..{FIELD_MAX[field]})")
            records[field] = np.array(values, dtype=OP_DTYPE[field])
        return cls(records)

    def payload(self) -> bytes:
        """The packed ``<BQBBHBI>`` bytes (the trace cache payload)."""
        return self.records.tobytes()

    # -- MemOp views ---------------------------------------------------

    def op_at(self, index: int) -> MemOp:
        """Materialize op ``index`` as a :class:`MemOp`."""
        kind, address, gpu, gpm, cta, scope, size = \
            self.records[index].tolist()
        return MemOp(_OP_TYPES[kind], address, NodeId(gpu, gpm), cta,
                     _SCOPES[scope], size)

    def iter_ops(self):
        """Yield every op as a :class:`MemOp`, decoding ``_ITER_CHUNK``
        records at a time."""
        kinds, scopes = _OP_TYPES, _SCOPES
        nodes: dict = {}
        for lo in range(0, len(self), _ITER_CHUNK):
            for kind, address, gpu, gpm, cta, scope, size in \
                    self.records[lo:lo + _ITER_CHUNK].tolist():
                node = nodes.get((gpu, gpm))
                if node is None:
                    node = nodes[(gpu, gpm)] = NodeId(gpu, gpm)
                yield MemOp(kinds[kind], address, node, cta, scopes[scope],
                            size)


class Decoded:
    """Geometry-derived columns of one trace (see :func:`decoded`).

    The index columns are stored in the smallest unsigned dtype that
    holds them (uint8 at the CLI's default 1/16 scale); cast before
    doing arithmetic on them.
    """

    __slots__ = ("line", "flat", "slot", "l1_set", "l2_set", "kind_order",
                 "kind_counts", "ops_per_gpm")

    def __init__(self, batch: BatchTrace, cfg):
        G = cfg.gpms_per_gpu
        S = cfg.l1_slices_per_gpm
        #: Cache line index of every op (int64).
        self.line = batchmap.lines_of(batch.address,
                                      cfg.line_size.bit_length() - 1)
        flat = batch.gpu.astype(np.int64) * G + batch.gpm
        #: Flat GPM index, ``gpu * gpms_per_gpu + gpm``.
        self.flat = batchmap.narrow(flat, cfg.total_gpms - 1)
        #: Flat L1 slice index, ``flat * slices + cta % slices``.
        self.slot = batchmap.narrow(flat * S + batch.cta % S,
                                    cfg.total_gpms * S - 1)
        #: L1 and L2 set index of the op's line: every L1 slice shares
        #: one geometry and every L2 partition another, so one column
        #: per level serves the local and both home probes.
        l1_sets, l2_sets = cache_sets(cfg)
        self.l1_set = batchmap.narrow(
            batchmap.cache_set_of(self.line, l1_sets), l1_sets - 1)
        self.l2_set = batchmap.narrow(
            batchmap.cache_set_of(self.line, l2_sets), l2_sets - 1)
        kinds = batch.kind
        counts = np.bincount(kinds, minlength=len(_OP_TYPES))
        present = np.flatnonzero(counts)
        firsts = [int(np.argmax(kinds == k)) for k in present]
        #: Kinds present, in order of first appearance (the key order
        #: of a per-op ``ProtocolStats.op_counts``).
        self.kind_order = tuple(
            _OP_TYPES[k] for _, k in sorted(zip(firsts, present.tolist())))
        #: Ops per kind, indexed by ``OpType`` value.
        self.kind_counts = counts.tolist()
        #: Ops issued per flat GPM.
        self.ops_per_gpm = np.bincount(
            self.flat, minlength=cfg.total_gpms).tolist()


def cache_sets(cfg) -> tuple:
    """Set counts of an L1 slice and of an L2 partition under ``cfg``
    (mirrors :class:`repro.memsys.cache.SetAssociativeCache`)."""
    line = cfg.line_size
    return (cfg.l1_bytes_per_slice // line // cfg.l1_ways,
            cfg.l2_bytes_per_gpm // line // cfg.l2_ways)


def decoded(batch: BatchTrace, cfg) -> Decoded:
    """The trace's :class:`Decoded` columns for ``cfg``'s geometry,
    derived on first use and memoized on the batch."""
    key = ("decoded", cfg.line_size, cfg.num_gpus, cfg.gpms_per_gpu,
           cfg.l1_slices_per_gpm, *cache_sets(cfg))
    hit = batch.prepared.get(key)
    if hit is None:
        hit = batch.prepared[key] = Decoded(batch, cfg)
    return hit


def as_batch(trace) -> BatchTrace:
    """Columnar form of ``trace``.

    A :class:`BatchTrace` is returned as-is and a
    :class:`repro.trace.stream.Trace` hands over the batch it holds;
    any other sequence of :class:`MemOp` is packed (not memoized — keep
    a ``Trace`` to reuse the columns across runs).
    """
    if isinstance(trace, BatchTrace):
        return trace
    batch = getattr(trace, "batch", None)
    if isinstance(batch, BatchTrace):
        return batch
    return BatchTrace.from_ops(list(trace))
