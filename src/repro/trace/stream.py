"""Trace containers.

A :class:`Trace` is a named, replayable op sequence plus metadata about
the workload that produced it.  Traces model the machine-wide
interleaving of all GPMs' memory operations: per-GPM streams are merged
round-robin, which approximates the GPMs executing concurrently at
equal rates (all micro-scheduling is abstracted by the timing engines
anyway).

The ops are stored once, as a :class:`~repro.trace.batch.BatchTrace`
of packed records; ``len``/``[]``/iteration/:attr:`Trace.ops` present
them as :class:`~repro.core.types.MemOp` views built on demand.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.core.types import MemOp, NodeId, OpType, Scope
from repro.trace.batch import BatchTrace


class Trace:
    """A named, replayable op sequence held as packed columns.

    Build one from a list of :class:`MemOp` (``ops``) or from records
    already packed (``batch``), not both.
    """

    __slots__ = ("name", "batch", "footprint_bytes", "kernels", "meta")

    def __init__(self, name: str, ops: Sequence[MemOp] = None,
                 footprint_bytes: int = 0, kernels: int = 0,
                 meta: dict = None, *, batch: BatchTrace = None):
        if (ops is None) == (batch is None):
            raise TypeError("Trace needs exactly one of ops= or batch=")
        self.name = name
        self.batch = batch if batch is not None else \
            BatchTrace.from_ops(list(ops))
        self.footprint_bytes = footprint_bytes
        self.kernels = kernels
        self.meta = {} if meta is None else meta

    def __iter__(self) -> Iterator[MemOp]:
        return self.batch.iter_ops()

    def __len__(self) -> int:
        return len(self.batch)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self.batch.op_at(i)
                    for i in range(*index.indices(len(self)))]
        n = len(self)
        if not -n <= index < n:
            raise IndexError("trace index out of range")
        return self.batch.op_at(index)

    @property
    def ops(self) -> list:
        """Every op as a freshly materialized :class:`MemOp` list."""
        return list(self)

    def _kind_count(self, *kinds: OpType) -> int:
        return int(np.isin(self.batch.kind, [int(k) for k in kinds]).sum())

    @property
    def loads(self) -> int:
        return self._kind_count(OpType.LOAD)

    @property
    def stores(self) -> int:
        return self._kind_count(OpType.STORE)

    @property
    def synchronizing_ops(self) -> int:
        return self._kind_count(*(k for k in OpType if k.is_synchronizing))

    def scoped_op_counts(self) -> dict:
        """Histogram of (op type, scope) pairs, in first-appearance
        order."""
        pair = (self.batch.kind.astype(np.int64) * len(Scope)
                + self.batch.scope)
        keys, first, counts = np.unique(pair, return_index=True,
                                        return_counts=True)
        order = np.argsort(first, kind="stable")
        return {
            (OpType(int(keys[i]) // len(Scope)),
             Scope(int(keys[i]) % len(Scope))): int(counts[i])
            for i in order
        }

    def nodes(self) -> set:
        """The set of GPMs that issue at least one op."""
        pairs = np.unique(self.batch.gpu.astype(np.int64) * 256
                          + self.batch.gpm)
        return {NodeId(int(p) // 256, int(p) % 256) for p in pairs}

    def describe(self) -> str:
        """One-line summary: ops, mix, kernels, footprint."""
        return (
            f"Trace {self.name!r}: {len(self)} ops "
            f"({self.loads} loads, {self.stores} stores, "
            f"{self.synchronizing_ops} sync), "
            f"{self.kernels} kernels, "
            f"footprint {self.footprint_bytes / (1 << 20):.1f} MiB"
        )


def interleave_order(lengths: Sequence[int], chunk: int = 4) -> np.ndarray:
    """Merge order for per-GPM op streams of ``lengths``, as positions
    in their concatenation: round-robin, ``chunk`` ops at a time.

    Round ``r`` takes ops ``[r*chunk, (r+1)*chunk)`` of each stream in
    turn, so a stable sort on ``round * streams + stream`` is the merge.
    Round-robin at a small chunk granularity models GPMs progressing at
    similar rates while keeping each GPM's own program order intact
    (which the coherence protocols rely on).
    """
    if chunk < 1:
        raise ValueError("chunk must be >= 1")
    lengths = np.asarray(lengths, dtype=np.int64)
    total = int(lengths.sum())
    stream = np.repeat(np.arange(lengths.size), lengths)
    starts = np.repeat(np.cumsum(lengths) - lengths, lengths)
    within = np.arange(total) - starts
    return np.argsort((within // chunk) * lengths.size + stream,
                      kind="stable")


def merge_phases(phases: Iterable[list]) -> list:
    """Concatenate already-interleaved kernel phases into one op list."""
    ops: list = []
    for phase in phases:
        ops.extend(phase)
    return ops
