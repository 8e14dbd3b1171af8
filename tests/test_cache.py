"""Set-associative cache model."""

import pytest

from repro.memsys.cache import CacheLine, NullCache, SetAssociativeCache


def pack(version, dirty=False, remote=False):
    """A packed line state: ``version << 2 | dirty << 1 | remote``."""
    return version << 2 | dirty << 1 | remote


def small_cache(ways=4, sets=8):
    return SetAssociativeCache(128 * ways * sets, 128, ways, name="t")


def fill(c, line, version, dirty=False, remote=False):
    """Fill ``line`` through the packed-state API, hashing its set."""
    return c.fill(line, c.set_index(line), pack(version, dirty, remote))


def probe(c, line):
    return c.probe(line, c.set_index(line))


class TestBasics:
    def test_capacity(self):
        c = small_cache()
        assert c.capacity_lines == 32
        assert c.num_sets == 8

    def test_miss_then_hit(self):
        c = small_cache()
        assert probe(c, 5) == -1
        fill(c, 5, version=3)
        assert probe(c, 5) == 3
        assert c.stats.hits == 1 and c.stats.misses == 1

    def test_version_zero_hits(self):
        c = small_cache()
        fill(c, 5, version=0)
        assert probe(c, 5) == 0

    def test_contains_and_len(self):
        c = small_cache()
        fill(c, 1, 0)
        fill(c, 2, 0)
        assert 1 in c and 2 in c and 3 not in c
        assert len(c) == 2

    def test_peek_does_not_count(self):
        c = small_cache()
        fill(c, 9, 1)
        c.peek(9)
        c.peek(10)
        assert c.stats.accesses == 0

    def test_fill_refreshes_metadata(self):
        c = small_cache()
        fill(c, 7, version=1)
        victim = fill(c, 7, version=5, dirty=True)
        assert victim is None
        entry = c.peek(7)
        assert entry.version == 5 and entry.dirty

    def test_fill_never_lowers_version(self):
        c = small_cache()
        fill(c, 7, version=9)
        fill(c, 7, version=2)
        assert c.peek(7).version == 9

    def test_refresh_keeps_dirty_and_takes_remote(self):
        c = small_cache()
        fill(c, 7, version=9, dirty=True, remote=True)
        fill(c, 7, version=2)
        assert c.peek(7) == CacheLine(7, 9, dirty=True, remote=False)
        fill(c, 7, version=1, dirty=True)
        fill(c, 7, version=3, remote=True)
        assert c.peek(7) == CacheLine(7, 9, dirty=True, remote=True)
        assert c.stats.fills == 1

    def test_mark_dirty(self):
        c = small_cache()
        fill(c, 7, version=4, remote=True)
        c.mark_dirty(7, c.set_index(7))
        c.mark_dirty(8, c.set_index(8))  # absent: no effect
        assert c.peek(7) == CacheLine(7, 4, dirty=True, remote=True)
        assert 8 not in c
        assert c.stats.accesses == 0

    def test_snapshots_are_read_only(self):
        c = small_cache()
        fill(c, 7, version=4)
        with pytest.raises(AttributeError):
            c.peek(7).dirty = True

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            SetAssociativeCache(64, 128, 1)
        with pytest.raises(ValueError):
            SetAssociativeCache(128 * 3, 128, 2)


class TestLRU:
    def _same_set_lines(self, c, count):
        """Find `count` distinct lines mapping to one set (hashed)."""
        target = None
        found = []
        for line in range(100000):
            s = c.set_index(line)
            if target is None:
                target = s
            if s == target:
                found.append(line)
                if len(found) == count:
                    return found
        raise AssertionError("not enough colliding lines")

    def test_eviction_is_lru(self):
        c = small_cache(ways=2)
        a, b, d = self._same_set_lines(c, 3)
        fill(c, a, 0)
        fill(c, b, 0)
        probe(c, a)  # a becomes MRU
        victim = fill(c, d, 0)
        assert victim == (b, pack(0))
        assert a in c and d in c and b not in c

    def test_eviction_counts(self):
        c = small_cache(ways=2)
        lines = self._same_set_lines(c, 4)
        for ln in lines:
            fill(c, ln, 0)
        assert c.stats.evictions == 2

    def test_dirty_eviction_counted(self):
        c = small_cache(ways=2)
        a, b, d = self._same_set_lines(c, 3)
        fill(c, a, 0, dirty=True)
        fill(c, b, 0)
        victim = fill(c, d, 0)
        assert victim == (a, pack(0, dirty=True))
        assert c.stats.dirty_evictions == 1


class TestInvalidation:
    def test_invalidate_single(self):
        c = small_cache()
        fill(c, 3, 0, remote=True)
        dropped = c.invalidate(3)
        assert dropped == (3, pack(0, remote=True))
        assert 3 not in c
        assert c.invalidate(3) is None
        assert c.stats.invalidated_lines == 1

    def test_invalidate_where(self):
        c = small_cache()
        for ln in range(10):
            fill(c, ln, 0, remote=ln % 2 == 0)
        dropped = c.invalidate_where(lambda ln, state: ln % 3 == 0)
        assert dropped == 4
        assert sorted(e.line for e in c.lines()) == [1, 2, 4, 5, 7, 8]
        assert c.invalidate_remote() == 3
        assert sorted(e.line for e in c.lines()) == [1, 5, 7]
        assert all(not e.remote for e in c.lines())
        assert c.stats.bulk_invalidations == 2
        assert c.stats.invalidated_lines == 7

    def test_invalidate_all(self):
        c = small_cache()
        for ln in range(7):
            fill(c, ln, 0)
        assert c.invalidate_all() == 7
        assert len(c) == 0


class TestHashing:
    def test_strided_pattern_spreads(self):
        """Fibonacci set hashing must spread strided line streams."""
        c = small_cache(ways=4, sets=64)
        sets = {}
        for k in range(256):
            line = k * 4  # stride-4 stream
            s = (line * 0x9E3779B97F4A7C15 & 0xFFFFFFFFFFFFFFFF) >> 33
            sets[s % 64] = sets.get(s % 64, 0) + 1
        # No set should receive more than ~4x its fair share.
        assert max(sets.values()) <= 16

    def test_hit_rate_property(self):
        c = small_cache()
        for ln in range(4):
            fill(c, ln, 0)
        for ln in range(4):
            probe(c, ln)       # hits
        for ln in range(4, 8):
            probe(c, ln)       # misses
        assert c.stats.hit_rate == pytest.approx(4 / 8)


class TestNullCache:
    def test_never_holds(self):
        c = NullCache()
        fill(c, 1, 0)
        c.mark_dirty(1, 0)
        assert probe(c, 1) == -1
        assert c.peek(1) is None
        assert c.stats.misses == 1

    def test_clear_stats(self):
        c = small_cache()
        probe(c, 0)
        c.clear_stats()
        assert c.stats.accesses == 0


class TestCacheLine:
    def test_repr(self):
        entry = CacheLine(5, version=2, dirty=True, remote=True)
        text = repr(entry)
        assert "5" in text and "v2" in text

    def test_unpack_round_trips_pack(self):
        entry = CacheLine.unpack(5, pack(2, dirty=True, remote=False))
        assert entry == CacheLine(5, version=2, dirty=True, remote=False)
