"""Persistent binary trace cache: round trips, keys, corruption."""

from __future__ import annotations

import struct

import pytest

from repro.config import SystemConfig
from repro.trace.cache import (
    FORMAT_VERSION,
    MAGIC,
    TraceCache,
    geometry_fingerprint,
    trace_key,
)
from repro.trace.workloads import WORKLOADS

CFG = SystemConfig.paper_scaled(1 / 64)
ARGS = dict(seed=1, ops_scale=0.05)


def _generate(workload="CoMD"):
    return WORKLOADS[workload].generate(CFG, **ARGS)


class TestRoundTrip:
    def test_store_then_load_is_identical(self, tmp_path):
        cache = TraceCache(tmp_path)
        trace = _generate()
        cache.store("CoMD", CFG, 1, 0.05, trace)
        loaded = cache.load("CoMD", CFG, 1, 0.05)
        assert loaded is not None
        assert loaded.ops == trace.ops  # MemOp compares by value
        assert loaded.name == trace.name
        assert loaded.kernels == trace.kernels
        assert loaded.footprint_bytes == trace.footprint_bytes
        assert loaded.meta == trace.meta

    def test_get_or_generate_hits_second_time(self, tmp_path):
        cache = TraceCache(tmp_path)
        first = cache.get_or_generate("CoMD", CFG, 1, 0.05)
        assert (cache.hits, cache.misses) == (0, 1)
        second = cache.get_or_generate("CoMD", CFG, 1, 0.05)
        assert (cache.hits, cache.misses) == (1, 1)
        assert second.ops == first.ops

    def test_cache_file_survives_processes(self, tmp_path):
        # A second TraceCache over the same directory (as a parallel
        # worker would build) sees the first one's files.
        TraceCache(tmp_path).get_or_generate("CoMD", CFG, 1, 0.05)
        other = TraceCache(tmp_path)
        assert other.load("CoMD", CFG, 1, 0.05) is not None


class TestKeys:
    def test_seed_change_misses(self, tmp_path):
        cache = TraceCache(tmp_path)
        cache.store("CoMD", CFG, 1, 0.05, _generate())
        assert cache.load("CoMD", CFG, 2, 0.05) is None

    def test_ops_scale_change_misses(self, tmp_path):
        cache = TraceCache(tmp_path)
        cache.store("CoMD", CFG, 1, 0.05, _generate())
        assert cache.load("CoMD", CFG, 1, 0.1) is None

    def test_geometry_change_misses(self, tmp_path):
        cache = TraceCache(tmp_path)
        cache.store("CoMD", CFG, 1, 0.05, _generate())
        bigger = SystemConfig.paper_scaled(1 / 32)
        assert geometry_fingerprint(bigger) != geometry_fingerprint(CFG)
        assert cache.load("CoMD", bigger, 1, 0.05) is None

    def test_latency_change_does_not_invalidate(self, tmp_path):
        # Latencies shape simulation, not generation: same trace file.
        from repro.config import LatencyConfig

        cache = TraceCache(tmp_path)
        cache.store("CoMD", CFG, 1, 0.05, _generate())
        slow = CFG.replace(latency=LatencyConfig(dram_access=999))
        assert trace_key("CoMD", slow, 1, 0.05) == \
            trace_key("CoMD", CFG, 1, 0.05)
        assert cache.load("CoMD", slow, 1, 0.05) is not None


class TestCorruption:
    def _stored(self, tmp_path):
        cache = TraceCache(tmp_path)
        cache.store("CoMD", CFG, 1, 0.05, _generate())
        return cache, cache.path("CoMD", CFG, 1, 0.05)

    def test_flipped_payload_byte_warns_and_misses(self, tmp_path):
        cache, path = self._stored(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[-40] ^= 0xFF  # inside the op payload, ahead of the CRC
        path.write_bytes(bytes(raw))
        with pytest.warns(RuntimeWarning, match="CRC mismatch"):
            assert cache.load("CoMD", CFG, 1, 0.05) is None

    def test_truncated_file_warns_and_misses(self, tmp_path):
        cache, path = self._stored(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.warns(RuntimeWarning):
            assert cache.load("CoMD", CFG, 1, 0.05) is None

    def test_foreign_version_warns_and_misses(self, tmp_path):
        cache, path = self._stored(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[0:10] = struct.pack("<4sHI", MAGIC, FORMAT_VERSION + 1,
                                struct.unpack_from("<4sHI", raw)[2])
        path.write_bytes(bytes(raw))
        with pytest.warns(RuntimeWarning, match="version"):
            assert cache.load("CoMD", CFG, 1, 0.05) is None

    def test_bad_magic_warns_and_misses(self, tmp_path):
        cache, path = self._stored(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[0:4] = b"NOPE"
        path.write_bytes(bytes(raw))
        with pytest.warns(RuntimeWarning, match="magic"):
            assert cache.load("CoMD", CFG, 1, 0.05) is None

    @pytest.mark.parametrize("field, offset, value", [
        ("kind", 0, 9), ("scope", 13, 7), ("size", 14, 0)])
    def test_invalid_record_with_valid_crc_warns_and_misses(
            self, tmp_path, field, offset, value):
        """A record the CRC vouches for is still checked field by field:
        an unknown kind or scope, or a zero size, is a miss."""
        import zlib

        cache, path = self._stored(tmp_path)
        raw = bytearray(path.read_bytes())
        hlen = struct.unpack_from("<4sHI", raw)[2]
        start = struct.calcsize("<4sHI") + hlen
        victim = start + 5 * 18  # the sixth op record
        if field == "size":
            struct.pack_into("<I", raw, victim + offset, value)
        else:
            raw[victim + offset] = value
        struct.pack_into("<I", raw, len(raw) - 4,
                         zlib.crc32(bytes(raw[start:-4])))
        path.write_bytes(bytes(raw))
        with pytest.warns(RuntimeWarning, match="op 5: invalid"):
            assert cache.load("CoMD", CFG, 1, 0.05) is None
        assert (cache.hits, cache.misses) == (0, 1)

    def test_corrupt_file_is_regenerated_through(self, tmp_path):
        cache, path = self._stored(tmp_path)
        path.write_bytes(b"garbage")
        with pytest.warns(RuntimeWarning):
            trace = cache.get_or_generate("CoMD", CFG, 1, 0.05)
        assert trace.ops == _generate().ops
        # ...and the overwrite repaired the cache file.
        assert cache.load("CoMD", CFG, 1, 0.05) is not None


class TestContextIntegration:
    def test_context_uses_disk_cache(self, tmp_path):
        from repro.experiments.runner import ExperimentContext

        ctx = ExperimentContext(CFG, trace_cache=tmp_path, **ARGS)
        trace = ctx.trace("CoMD")
        assert ctx.trace_cache.misses == 1
        fresh = ExperimentContext(CFG, trace_cache=tmp_path, **ARGS)
        assert fresh.trace("CoMD").ops == list(trace)
        assert fresh.trace_cache.hits == 1

    def test_cached_trace_simulates_identically(self, tmp_path):
        from repro.experiments.runner import ExperimentContext

        plain = ExperimentContext(CFG, **ARGS)
        cached = ExperimentContext(CFG, trace_cache=tmp_path, **ARGS)
        warmed = ExperimentContext(CFG, trace_cache=tmp_path, **ARGS)
        a = plain.run("CoMD", "hmg")
        b = cached.run("CoMD", "hmg")  # populates the disk cache
        c = warmed.run("CoMD", "hmg")  # deserializes it
        assert a.cycles == b.cycles == c.cycles
        assert a.ops == b.ops == c.ops
        assert a.dram_bytes == b.dram_bytes == c.dram_bytes
