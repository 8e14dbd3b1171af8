"""Durable append-only logs of CRC-framed JSON records.

The one on-disk contract behind the results store, the run journal
and the run registry (DESIGN §10, "Durable append logs").  Each
record is one line::

    {"crc": <crc32>, "record": {...}, "v": <version>}

with the CRC32 over the sort-keyed JSON of ``record``, written with a
single ``os.write`` to an ``O_APPEND`` descriptor, so concurrent
writers on one host interleave whole lines, never bytes.
The first append through a :class:`CrcLog` heals a torn tail (a crash
mid-append leaves a final line with no newline) by starting on a fresh
line, so the torn bytes stay one isolated bad line instead of taking
the next good record with them.  :meth:`CrcLog.scan` yields the valid
records and counts every bad line (torn, malformed, wrong version, CRC
mismatch, or rejected by the caller's decoder) instead of raising.
"""

from __future__ import annotations

import json
import os
import sys
import zlib
from pathlib import Path


def frame(record: dict, version: int) -> bytes:
    """The log line for ``record``.

    Byte-identical to ``json.dumps({"v", "crc", "record"},
    sort_keys=True)``; the record is serialised once and reused for
    both the CRC and the line.
    """
    payload = json.dumps(record, sort_keys=True)
    crc = zlib.crc32(payload.encode())
    return (f'{{"crc": {crc}, "record": {payload}, "v": {version}}}\n'
            .encode())


def _unframe(line: bytes, version: int):
    """The record carried by one stripped line; raises ValueError."""
    try:
        wrapper = json.loads(line)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError("torn or malformed line") from exc
    if not isinstance(wrapper, dict) or wrapper.get("v") != version \
            or not isinstance(wrapper.get("record"), dict):
        raise ValueError(f"not a version-{version} record")
    record = wrapper["record"]
    payload = json.dumps(record, sort_keys=True)
    if zlib.crc32(payload.encode()) != wrapper.get("crc"):
        raise ValueError("checksum mismatch")
    return record


class CrcLog:
    """One append-only log file; ``label`` prefixes its warnings."""

    def __init__(self, path, version: int, label: str):
        self.path = Path(path)
        self.version = version
        self.label = label
        #: Bad lines seen by every :meth:`scan` so far.
        self.corrupt = 0
        self._fd = None

    def append(self, record: dict) -> None:
        """Write one record with a single ``os.write``."""
        if self._fd is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            fd = os.open(self.path,
                         os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o644)
            size = os.fstat(fd).st_size
            if size and os.pread(fd, 1, size - 1) != b"\n":
                os.write(fd, b"\n")  # heal a torn tail
            self._fd = fd
        os.write(self._fd, frame(record, self.version))

    def scan(self, decode=None):
        """Yield every valid record, or ``decode(record)`` when given.

        A line is bad when it is torn or malformed, carries another
        version, fails its CRC, or ``decode`` raises on it (so a
        payload the caller cannot use — an unpicklable blob, a missing
        field — is corrupt too, never fatal).  Bad lines add to
        :attr:`corrupt` and get one summary warning on stderr.
        """
        try:
            fh = open(self.path, "rb")
        except FileNotFoundError:
            return
        bad, first = 0, None
        with fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.strip()
                if not line:
                    continue
                try:
                    record = _unframe(line, self.version)
                    value = record if decode is None else decode(record)
                except Exception as exc:  # corrupt means skip, not crash
                    bad += 1
                    first = first or (lineno, str(exc) or
                                      type(exc).__name__)
                    continue
                yield value
        if bad:
            self.corrupt += bad
            print(f"{self.label}: {self.path}: skipped {bad} corrupt "
                  f"record(s), first at line {first[0]} ({first[1]})",
                  file=sys.stderr)

    def compact(self, records) -> None:
        """Atomically replace the log with exactly ``records``.

        Temp file + fsync + ``os.replace``: a crash mid-compaction
        leaves the old log or the new one, never a mix.
        """
        self.close()  # later appends must reach the new file
        tmp = self.path.with_name(self.path.name + ".tmp")
        with open(tmp, "wb") as fh:
            for record in records:
                fh.write(frame(record, self.version))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.path)

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None
