"""Trace (de)serialization.

Traces are stored as JSON-lines: one header object followed by one
compact array per op.  The format is versioned, diffable, and streams —
a multi-million-op trace never has to be held twice in memory.

    {"format": "repro-trace", "version": 1, "name": ..., ...}
    [0, 4096, 1, 2, 5, 0, 128]      # op, address, gpu, gpm, cta, scope, size
    ...

Loading validates eagerly: header fields are type-checked, every op row
is bounds-checked (valid op kind and scope, non-negative ids, positive
size, every field within its packed record width — see
:data:`repro.trace.batch.FIELD_MAX`), and errors carry the offending line number — a malformed trace
fails here with a :class:`TraceFormatError`, not hundreds of ops later
with an ``IndexError`` deep inside the simulator.  Pass a
:class:`~repro.config.SystemConfig` to additionally pin ``gpu``/``gpm``
ids to the platform's topology.
"""

from __future__ import annotations

import io
import json
from pathlib import Path
from typing import Iterator, TextIO, Union

from repro.core.types import MemOp, NodeId, OpType, Scope
from repro.trace.batch import FIELD_MAX
from repro.trace.stream import Trace

FORMAT_NAME = "repro-trace"
FORMAT_VERSION = 1

_OP_KINDS = {int(k) for k in OpType}
_SCOPES = {int(s) for s in Scope}


class TraceFormatError(ValueError):
    """Raised when a trace file is malformed or from the wrong format."""


def _encode_op(op: MemOp) -> list:
    return [int(op.op), op.address, op.node.gpu, op.node.gpm, op.cta,
            int(op.scope), op.size]


def _decode_op(row, lineno: int, cfg=None) -> MemOp:
    if not isinstance(row, list) or len(row) != 7:
        raise TraceFormatError(f"line {lineno}: malformed op row: {row!r}")
    kind, address, gpu, gpm, cta, scope, size = row
    for field_name, value in (("op", kind), ("address", address),
                              ("gpu", gpu), ("gpm", gpm), ("cta", cta),
                              ("scope", scope), ("size", size)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise TraceFormatError(
                f"line {lineno}: {field_name} must be an integer, "
                f"got {value!r}"
            )
    if kind not in _OP_KINDS:
        raise TraceFormatError(f"line {lineno}: unknown op kind {kind}")
    if scope not in _SCOPES:
        raise TraceFormatError(f"line {lineno}: unknown scope {scope}")
    if address < 0:
        raise TraceFormatError(f"line {lineno}: negative address {address}")
    if gpu < 0 or gpm < 0 or cta < 0:
        raise TraceFormatError(
            f"line {lineno}: negative id (gpu={gpu}, gpm={gpm}, cta={cta})"
        )
    if size <= 0:
        raise TraceFormatError(f"line {lineno}: size must be positive, "
                               f"got {size}")
    for field_name, value in (("address", address), ("gpu", gpu),
                              ("gpm", gpm), ("cta", cta), ("size", size)):
        if value > FIELD_MAX[field_name]:
            raise TraceFormatError(
                f"line {lineno}: {field_name} {value} out of range for "
                f"the packed op record (max {FIELD_MAX[field_name]})"
            )
    if cfg is not None:
        if gpu >= cfg.num_gpus:
            raise TraceFormatError(
                f"line {lineno}: gpu {gpu} out of range for a "
                f"{cfg.num_gpus}-GPU platform"
            )
        if gpm >= cfg.gpms_per_gpu:
            raise TraceFormatError(
                f"line {lineno}: gpm {gpm} out of range for "
                f"{cfg.gpms_per_gpu} GPMs per GPU"
            )
    return MemOp(OpType(kind), address, NodeId(gpu, gpm), cta=cta,
                 scope=Scope(scope), size=size)


def _decode_line(line: str, lineno: int, cfg=None) -> MemOp:
    try:
        row = json.loads(line)
    except json.JSONDecodeError as exc:
        raise TraceFormatError(f"line {lineno}: bad JSON: {exc}") from exc
    return _decode_op(row, lineno, cfg=cfg)


def dump_trace(trace: Trace, target: Union[str, Path, TextIO]) -> int:
    """Write a trace; returns the number of ops written."""
    own = isinstance(target, (str, Path))
    fh = open(target, "w") if own else target
    try:
        header = {
            "format": FORMAT_NAME,
            "version": FORMAT_VERSION,
            "name": trace.name,
            "footprint_bytes": trace.footprint_bytes,
            "kernels": trace.kernels,
            "meta": trace.meta,
            "ops": len(trace),
        }
        fh.write(json.dumps(header) + "\n")
        count = 0
        for op in trace:
            fh.write(json.dumps(_encode_op(op)) + "\n")
            count += 1
        return count
    finally:
        if own:
            fh.close()


def _read_header(fh: TextIO) -> dict:
    first = fh.readline()
    if not first:
        raise TraceFormatError("empty trace file")
    try:
        header = json.loads(first)
    except json.JSONDecodeError as exc:
        raise TraceFormatError(f"bad header: {exc}") from exc
    if not isinstance(header, dict) or header.get("format") != FORMAT_NAME:
        raise TraceFormatError("not a repro trace file")
    if header.get("version") != FORMAT_VERSION:
        raise TraceFormatError(
            f"unsupported trace version {header.get('version')}"
        )
    declared = header.get("ops")
    if declared is not None and (
            not isinstance(declared, int) or isinstance(declared, bool)
            or declared < 0):
        raise TraceFormatError(
            f"header ops count must be a non-negative integer, "
            f"got {declared!r}"
        )
    for field_name in ("footprint_bytes", "kernels"):
        value = header.get(field_name)
        if value is not None and not isinstance(value, (int, float)):
            raise TraceFormatError(
                f"header {field_name} must be numeric, got {value!r}"
            )
    name = header.get("name")
    if name is not None and not isinstance(name, str):
        raise TraceFormatError(f"header name must be a string, "
                               f"got {name!r}")
    return header


def load_trace(source: Union[str, Path, TextIO], cfg=None) -> Trace:
    """Read a trace written by :func:`dump_trace`.

    ``cfg`` (optional) bounds-checks every op's ``gpu``/``gpm`` against
    the platform topology.
    """
    own = isinstance(source, (str, Path))
    fh = open(source) if own else source
    try:
        header = _read_header(fh)
        ops = [
            _decode_line(line, lineno, cfg=cfg)
            for lineno, line in enumerate(fh, start=2)
            if line.strip()
        ]
        if header.get("ops") not in (None, len(ops)):
            raise TraceFormatError(
                f"header says {header['ops']} ops, found {len(ops)}"
            )
        return Trace(
            name=header.get("name", "trace"),
            ops=ops,
            footprint_bytes=header.get("footprint_bytes", 0),
            kernels=header.get("kernels", 0),
            meta=header.get("meta", {}),
        )
    finally:
        if own:
            fh.close()


def iter_trace_ops(source: Union[str, Path], cfg=None) -> Iterator[MemOp]:
    """Stream a trace file's ops without materializing the list."""
    with open(source) as fh:
        _read_header(fh)
        for lineno, line in enumerate(fh, start=2):
            if line.strip():
                yield _decode_line(line, lineno, cfg=cfg)


def roundtrip(trace: Trace) -> Trace:
    """Serialize and re-load in memory (testing helper)."""
    buf = io.StringIO()
    dump_trace(trace, buf)
    buf.seek(0)
    return load_trace(buf)
