"""Workload specification and trace-generation machinery.

Real program traces are proprietary (Section VI), so each Table III
workload is modelled by a deterministic synthetic generator that
reproduces the axes the coherence protocols differentiate on: data
placement (first touch), intra-/inter-GPU read sharing, read-write
sharing and false sharing, scope usage, and kernel-boundary cadence.
See DESIGN.md, "Substitutions".

Region sizes are expressed relative to the configured cache capacities
so the paper's capacity-pressure *regimes* (working set vs. L2 vs.
directory coverage) survive the global ``scale`` factor.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.config import SystemConfig
from repro.core.types import NodeId, OpType, Scope
from repro.memsys.address import AddressSpace, Region
from repro.trace.batch import OP_DTYPE, BatchTrace
from repro.trace.stream import Trace, interleave_order

#: Pattern name -> generator function, populated by trace.patterns.
PATTERNS: dict = {}


def register_pattern(name: str):
    """Decorator registering a pattern generator under ``name``."""

    def wrap(fn: Callable):
        if name in PATTERNS:
            raise ValueError(f"pattern {name!r} already registered")
        PATTERNS[name] = fn
        return fn

    return wrap


@dataclass(frozen=True)
class WorkloadSpec:
    """One Table III benchmark, as synthesis parameters."""

    name: str  # full benchmark name, e.g. "ML RNN layer4 FW"
    abbrev: str  # figure label, e.g. "RNN_FW"
    suite: str  # cuSolver / HPC / Lonestar / ML / Rodinia
    footprint_mb: float  # paper-reported footprint (unscaled)
    pattern: str  # key into PATTERNS
    kernels: int  # dependent-kernel (or timestep) count
    ops_per_gpm_per_kernel: int  # trace budget knob
    params: dict = field(default_factory=dict)
    description: str = ""

    def generate(self, cfg: SystemConfig, seed: int = 0,
                 ops_scale: float = 1.0) -> Trace:
        """Synthesize this workload's trace for a given platform."""
        try:
            pattern = PATTERNS[self.pattern]
        except KeyError:
            raise ValueError(
                f"unknown pattern {self.pattern!r}; "
                f"registered: {sorted(PATTERNS)}"
            ) from None
        ctx = GenContext(cfg, self, seed=seed, ops_scale=ops_scale)
        pattern(ctx, self)
        return ctx.finish()


class GenContext:
    """State and emission helpers shared by all pattern generators."""

    def __init__(self, cfg: SystemConfig, spec: WorkloadSpec,
                 seed: int = 0, ops_scale: float = 1.0):
        self.cfg = cfg
        self.spec = spec
        # zlib.crc32, not hash(): str hashes are randomized per process
        # (PYTHONHASHSEED), which would make traces — and every number
        # downstream of them — differ from run to run.
        self.rng = np.random.default_rng(
            (zlib.crc32(spec.abbrev.encode()) & 0xFFFF) * 65537 + seed
        )
        self.space = AddressSpace(cfg.page_size)
        self.nodes = [
            NodeId(g, m)
            for g in range(cfg.num_gpus)
            for m in range(cfg.gpms_per_gpu)
        ]
        self.ops_scale = ops_scale
        self._phases: list = []  # interleaved kernel phases (records)
        self._streams = self._fresh_streams()  # per-GPM record chunks
        self._rows = self._fresh_streams()  # per-GPM unpacked rows
        self.kernels_emitted = 0

    # -- budget helpers ---------------------------------------------------

    @property
    def line(self) -> int:
        return self.cfg.line_size

    @property
    def n_gpms(self) -> int:
        return self.cfg.total_gpms

    def budget(self) -> int:
        """Per-GPM per-kernel op budget after scaling."""
        return max(8, int(self.spec.ops_per_gpm_per_kernel * self.ops_scale))

    def l2_lines_per_gpm(self) -> int:
        """L2 capacity of one GPM, in lines."""
        return self.cfg.l2_bytes_per_gpm // self.line

    def l2_lines_per_gpu(self) -> int:
        """L2 capacity of one GPU, in lines."""
        return self.cfg.l2_bytes_per_gpu // self.line

    def region_lines(self, frac_of_gpu_l2: float, minimum: int = 8) -> int:
        """Size a region as a fraction of one GPU's L2 capacity."""
        return max(minimum, int(self.l2_lines_per_gpu() * frac_of_gpu_l2))

    def alloc_lines(self, name: str, lines: int) -> Region:
        """Allocate a page-aligned region sized in cache lines."""
        return self.space.allocate(name, lines * self.line)

    # -- op emission -------------------------------------------------------
    #
    # Each GPM's current-kernel stream is a list of record chunks
    # (OP_DTYPE arrays) plus a tail of not-yet-packed row tuples, so a
    # single emit costs one tuple and a span costs a few array ops.

    def _fresh_streams(self) -> list:
        return [[] for _ in range(self.n_gpms)]

    def _flat(self, node: NodeId) -> int:
        return node.gpu * self.cfg.gpms_per_gpu + node.gpm

    def _flush(self, flat: int) -> None:
        """Pack GPM ``flat``'s pending rows into a record chunk."""
        rows = self._rows[flat]
        if rows:
            self._streams[flat].append(np.array(rows, dtype=OP_DTYPE))
            self._rows[flat] = []

    def stream_ops(self, flat: int) -> list:
        """The ops GPM ``flat`` has emitted in the open kernel, as
        freshly materialized :class:`~repro.core.types.MemOp` views."""
        self._flush(flat)
        chunks = self._streams[flat]
        if not chunks:
            return []
        return list(BatchTrace(np.concatenate(chunks)).iter_ops())

    def emit(self, node: NodeId, op: OpType, region: Region,
             line_offset: int, cta: int = None, scope: Scope = Scope.CTA,
             size: int = None) -> None:
        """Append one op to a GPM's stream (region-relative line offset)."""
        address = region.base + line_offset * self.line
        if address >= region.end:
            raise IndexError(
                f"line offset {line_offset} outside region {region.name!r}"
            )
        if address < 0:
            raise ValueError("address must be non-negative")
        flat = self._flat(node)
        if cta is None:
            cta = flat
        if size is None:
            size = self.line
        elif size <= 0:
            raise ValueError("size must be positive")
        self._rows[flat].append(
            (op, address, node.gpu, node.gpm, cta, scope, size)
        )

    def _span(self, node: NodeId, op: OpType, region: Region, start: int,
              count: int, stride: int, scope: Scope, size) -> None:
        """``count`` ops of one kind over lines ``start + k * stride``."""
        if count <= 0:
            return
        addresses = region.base + (
            start + np.arange(count, dtype=np.int64) * stride) * self.line
        bad = (addresses >= region.end) | (addresses < 0)
        if bad.any():
            k = int(np.argmax(bad))
            raise IndexError(
                f"line offset {start + k * stride} outside region "
                f"{region.name!r}"
            )
        if size is None:
            size = self.line
        elif size <= 0:
            raise ValueError("size must be positive")
        flat = self._flat(node)
        self._flush(flat)
        chunk = np.empty(count, OP_DTYPE)
        chunk["op"] = op
        chunk["address"] = addresses
        chunk["gpu"] = node.gpu
        chunk["gpm"] = node.gpm
        chunk["cta"] = flat
        chunk["scope"] = scope
        chunk["size"] = size
        self._streams[flat].append(chunk)

    def read_span(self, node: NodeId, region: Region, start: int,
                  count: int, stride: int = 1, scope: Scope = Scope.CTA,
                  size: int = None) -> None:
        """Sequential (strided) loads over ``count`` lines."""
        self._span(node, OpType.LOAD, region, start, count, stride, scope,
                   size)

    def write_span(self, node: NodeId, region: Region, start: int,
                   count: int, stride: int = 1, scope: Scope = Scope.CTA,
                   size: int = None) -> None:
        """Sequential (strided) stores over ``count`` lines."""
        self._span(node, OpType.STORE, region, start, count, stride, scope,
                   size)

    def random_lines(self, total_lines: int, count: int) -> np.ndarray:
        """Deterministic uniform line indices from the context's RNG."""
        return self.rng.integers(0, total_lines, size=count)

    # -- phase / kernel structure -----------------------------------------

    def end_kernel(self, boundary: bool = True) -> None:
        """Close the current kernel: interleave its per-GPM streams and
        (optionally) emit per-GPM kernel-boundary markers."""
        for flat in range(self.n_gpms):
            self._flush(flat)
        merged = np.concatenate([np.empty(0, OP_DTYPE)] + [
            chunk for chunks in self._streams for chunk in chunks])
        lengths = [sum(chunk.size for chunk in chunks)
                   for chunks in self._streams]
        self._phases.append(merged[interleave_order(lengths)])
        if boundary:
            markers = np.zeros(self.n_gpms, OP_DTYPE)
            markers["op"] = OpType.KERNEL_BOUNDARY
            markers["gpu"] = [node.gpu for node in self.nodes]
            markers["gpm"] = [node.gpm for node in self.nodes]
            markers["scope"] = Scope.SYS
            markers["size"] = 4
            self._phases.append(markers)
        self._streams = self._fresh_streams()
        self.kernels_emitted += 1

    def gpu_sync(self, sync_region: Region) -> None:
        """Explicit .gpu-scoped synchronization round: every GPM
        store-releases then load-acquires its GPU's flag.

        Flags live one per page (see patterns._alloc_sync) so each
        GPU's flag is homed on that GPU — padded and locally allocated,
        as real runtimes lay out synchronization variables.
        """
        lpp = self.cfg.lines_per_page
        for node in self.nodes:
            self.emit(node, OpType.RELEASE, sync_region, node.gpu * lpp,
                      scope=Scope.GPU, size=8)
            self.emit(node, OpType.ACQUIRE, sync_region, node.gpu * lpp,
                      scope=Scope.GPU, size=8)

    def sys_sync(self, sync_region: Region) -> None:
        """Explicit .sys-scoped synchronization round on a global flag."""
        lpp = self.cfg.lines_per_page
        for node in self.nodes:
            self.emit(node, OpType.RELEASE, sync_region,
                      self.cfg.num_gpus * lpp, scope=Scope.SYS, size=8)
            self.emit(node, OpType.ACQUIRE, sync_region,
                      self.cfg.num_gpus * lpp, scope=Scope.SYS, size=8)

    def finish(self) -> Trace:
        """Seal any open kernel and assemble the final trace."""
        if any(self._streams) or any(self._rows):
            self.end_kernel(boundary=False)
        records = (np.concatenate(self._phases) if self._phases
                   else np.empty(0, OP_DTYPE))
        return Trace(
            name=self.spec.abbrev,
            batch=BatchTrace(records),
            footprint_bytes=self.space.footprint,
            kernels=self.kernels_emitted,
            meta={
                "suite": self.spec.suite,
                "pattern": self.spec.pattern,
                "paper_footprint_mb": self.spec.footprint_mb,
            },
        )


def partition(total: int, parts: int, index: int) -> tuple:
    """(start, count) of slice ``index`` when ``total`` items are split
    contiguously into ``parts`` (CTA-contiguous data decomposition)."""
    if not 0 <= index < parts:
        raise IndexError(f"slice {index} of {parts}")
    base = total // parts
    extra = total % parts
    start = index * base + min(index, extra)
    count = base + (1 if index < extra else 0)
    return start, count
