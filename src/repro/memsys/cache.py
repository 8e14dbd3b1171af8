"""Set-associative cache model with LRU replacement.

Used for both L1 slices (software-managed, write-through) and L2
partitions.  The cache stores, per line, the functional *version* of the
data it holds (see DESIGN.md Section 6) plus flags the protocols need:
dirty (for writeback configurations) and whether the line's home is a
remote node (so bulk software invalidations can target exactly the
remotely-homed lines).

Each set is a dict from line index to one packed int,
``version << 2 | dirty << 1 | remote`` (:data:`DIRTY`, :data:`REMOTE`),
so a fill allocates no per-line object.  The hot accessors — :meth:`probe` and
:meth:`fill` — take the line's set index from the caller, which derives
it once per trace op (:func:`repro.trace.batch.decoded`) or hashes with
:meth:`SetAssociativeCache.set_index`.  :class:`CacheLine` is only a
read-only snapshot for tests, the sanitizer and tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Optional

#: Flag bits of a packed line state, ``version << 2 | dirty << 1 |
#: remote``.
REMOTE = 1
DIRTY = 2


class CacheLine(NamedTuple):
    """Read-only snapshot of one resident line (see :meth:`peek`)."""

    line: int
    version: int = 0
    dirty: bool = False
    remote: bool = False

    @classmethod
    def unpack(cls, line: int, state: int) -> "CacheLine":
        return cls(line, state >> 2, bool(state & DIRTY),
                   bool(state & REMOTE))

    def __repr__(self) -> str:
        flags = ("D" if self.dirty else "") + ("R" if self.remote else "")
        return f"CacheLine({self.line}, v{self.version}{',' + flags if flags else ''})"


@dataclass(slots=True)
class CacheStats:
    """Hit/miss/invalidation counters for one cache instance."""

    hits: int = 0
    misses: int = 0
    fills: int = 0
    evictions: int = 0
    dirty_evictions: int = 0
    invalidated_lines: int = 0
    bulk_invalidations: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    def merge(self, other: "CacheStats") -> None:
        """Accumulate another cache's counters into this one."""
        self.hits += other.hits
        self.misses += other.misses
        self.fills += other.fills
        self.evictions += other.evictions
        self.dirty_evictions += other.dirty_evictions
        self.invalidated_lines += other.invalidated_lines
        self.bulk_invalidations += other.bulk_invalidations


class SetAssociativeCache:
    """A set-associative cache of line indices with true-LRU replacement.

    Keys are *line indices* (byte address >> line bits), not byte
    addresses.  Python dict insertion order implements the LRU stack:
    most-recently-used lines sit at the end of their set's dict.
    """

    __slots__ = ("name", "ways", "num_sets", "line_size", "sets",
                 "_set_mask", "stats")

    def __init__(self, capacity_bytes: int, line_size: int, ways: int,
                 name: str = "cache"):
        if capacity_bytes < line_size * ways:
            raise ValueError(
                f"{name}: capacity {capacity_bytes}B cannot hold one set "
                f"of {ways} x {line_size}B lines"
            )
        total_lines = capacity_bytes // line_size
        if total_lines % ways:
            raise ValueError(f"{name}: capacity must be a whole number of sets")
        self.name = name
        self.ways = ways
        self.num_sets = total_lines // ways
        self.line_size = line_size
        #: Per-set dicts, line -> packed state.
        self.sets: list[dict[int, int]] = [{} for _ in range(self.num_sets)]
        # Power-of-two set counts (the common case) index with a mask
        # instead of a modulo.
        self._set_mask = (
            self.num_sets - 1
            if self.num_sets & (self.num_sets - 1) == 0
            else None
        )
        self.stats = CacheStats()

    # ------------------------------------------------------------------

    @property
    def capacity_lines(self) -> int:
        return self.num_sets * self.ways

    def set_index(self, line: int) -> int:
        """Set index of a line: Fibonacci multiplicative hashing, because
        strided access patterns (ubiquitous in GPU workloads) would
        otherwise pile onto a handful of sets — real GPU L2s hash set
        indices for the same reason.  Twin of
        :func:`repro.core.batchmap.cache_set_of`; keep the two in sync."""
        mixed = ((line * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF) >> 33
        if self._set_mask is not None:
            return mixed & self._set_mask
        return mixed % self.num_sets

    def __len__(self) -> int:
        return sum(len(s) for s in self.sets)

    def __contains__(self, line: int) -> bool:
        return line in self.sets[self.set_index(line)]

    def lines(self) -> Iterator[CacheLine]:
        """Snapshot every resident line (no particular order)."""
        for s in self.sets:
            for line, state in s.items():
                yield CacheLine.unpack(line, state)

    def peek(self, line: int) -> Optional[CacheLine]:
        """Snapshot a line without counting statistics or updating LRU."""
        state = self.sets[self.set_index(line)].get(line)
        return None if state is None else CacheLine.unpack(line, state)

    # ------------------------------------------------------------------

    def probe(self, line: int, s: int) -> int:
        """Look ``line`` up in set ``s``: its version, or -1 on a miss.
        Counts the hit or miss and makes a hit the set's MRU line."""
        cset = self.sets[s]
        state = cset.pop(line, None)
        if state is None:
            self.stats.misses += 1
            return -1
        cset[line] = state
        self.stats.hits += 1
        return state >> 2

    def fill(self, line: int, s: int, state: int) -> Optional[tuple]:
        """Insert ``line`` into set ``s`` with packed ``state``, as MRU.

        Returns the evicted ``(line, state)``, or ``None``.  A resident
        line is refreshed instead: it keeps the newer version, stays
        dirty if it was, and takes the new remote flag.
        """
        cset = self.sets[s]
        if line in cset:
            old = cset.pop(line)
            if old >> 2 > state >> 2:
                state = (old & ~3) | (state & 3)
            cset[line] = state | (old & DIRTY)
            return None
        stats = self.stats
        stats.fills += 1
        if len(cset) >= self.ways:
            victim = next(iter(cset))
            vstate = cset.pop(victim)
            stats.evictions += 1
            if vstate & DIRTY:
                stats.dirty_evictions += 1
            cset[line] = state
            return victim, vstate
        cset[line] = state
        return None

    def mark_dirty(self, line: int, s: int) -> None:
        """Set the dirty bit of ``line`` in set ``s`` if it is resident
        (no statistics, no LRU update)."""
        cset = self.sets[s]
        state = cset.get(line)
        if state is not None:
            cset[line] = state | DIRTY

    def invalidate(self, line: int) -> Optional[tuple]:
        """Drop a single line, returning it as ``(line, state)`` (the
        shape of a :meth:`fill` victim), or ``None`` if absent."""
        state = self.sets[self.set_index(line)].pop(line, None)
        if state is None:
            return None
        self.stats.invalidated_lines += 1
        return line, state

    def invalidate_where(
        self, predicate: Callable[[int, int], bool]
    ) -> int:
        """Bulk-invalidate every line for which ``predicate(line,
        state)`` holds; returns how many were dropped.

        Used by the software protocols' acquire-time flash
        invalidations (see :meth:`invalidate_remote` for the common
        "drop every remotely-homed line" case).
        """
        dropped = 0
        for cset in self.sets:
            if cset:
                doomed = [ln for ln, state in cset.items()
                          if predicate(ln, state)]
                for ln in doomed:
                    del cset[ln]
                dropped += len(doomed)
        return self._bulk(dropped)

    def invalidate_remote(self) -> int:
        """Bulk-invalidate every remotely-homed line (the remote flag
        set); returns how many were dropped."""
        dropped = 0
        for cset in self.sets:
            if cset:
                doomed = [ln for ln, state in cset.items() if state & REMOTE]
                for ln in doomed:
                    del cset[ln]
                dropped += len(doomed)
        return self._bulk(dropped)

    def invalidate_all(self) -> int:
        """Flash-clear the whole cache (L1 on acquire); returns how many
        lines were dropped."""
        dropped = 0
        for cset in self.sets:
            if cset:
                dropped += len(cset)
                cset.clear()
        return self._bulk(dropped)

    def _bulk(self, dropped: int) -> int:
        self.stats.invalidated_lines += dropped
        self.stats.bulk_invalidations += 1
        return dropped

    def clear_stats(self) -> None:
        """Reset the hit/miss/invalidation counters."""
        self.stats = CacheStats()


class NullCache(SetAssociativeCache):
    """A cache that never holds anything — every probe misses."""

    __slots__ = ()

    def __init__(self, line_size: int = 128, name: str = "null"):
        super().__init__(line_size, line_size, 1, name=name)

    def probe(self, line: int, s: int) -> int:
        self.stats.misses += 1
        return -1

    def fill(self, line: int, s: int, state: int) -> Optional[tuple]:
        return None

    def mark_dirty(self, line: int, s: int) -> None:
        pass
