"""Table I edge cases for HMG's hierarchical invalidation.

Two races the paper's transition table implies but never spells out:
an invalidation arriving at a GPU home whose local sharer set is
already empty, and a peer-GPU sharer whose cached copy was silently
evicted before the invalidation lands.  Checked twice: against the
real protocol implementation, and exhaustively in the abstract model
with the eviction adversary enabled.
"""

import pytest

from repro.config import SystemConfig
from repro.core.registry import make_protocol
from repro.core.sanitizer import CoherenceSanitizer
from repro.core.types import NodeId
from repro.verify.model import CheckOptions, Geometry, check
from repro.verify.programs import build
from tests.conftest import N00, ld, st

ADDR = 0x1000


@pytest.fixture
def cfg():
    return SystemConfig.paper_scaled(1.0 / 64)


def _share_with_peer(cfg):
    """Store at GPU0, cache a copy at a GPU1 GPM that is *not* GPU1's
    home GPM for the sector (so the GPU-home directory entry and the
    cached copy live on different nodes)."""
    proto = make_protocol("hmg", cfg)
    san = CoherenceSanitizer(interval=1, collect=True)
    line = proto.amap.line_of(ADDR)
    sector = proto.amap.sector_of_line(line)
    home_gpm = proto.amap.home_gpm_of_sector(sector)
    reader = NodeId(1, 1 if home_gpm == 0 else 0)
    ghome = NodeId(1, home_gpm)
    ops = [st(N00, ADDR), ld(reader, ADDR)]
    for i, op in enumerate(ops):
        san.after_op(proto, op, proto.process(op), i)
    assert san.violations == []
    return proto, san, line, sector, reader, ghome


class TestProtocolEdges:
    def test_inv_at_gpu_home_with_empty_local_sharer_set(self, cfg):
        """The GPM copy and the GPU-home directory entry are both gone
        (capacity evictions) while the system home still lists GPU1 —
        the forwarded invalidation must be a graceful no-op."""
        proto, san, line, sector, reader, ghome = _share_with_peer(cfg)
        proto.l2[proto.flat(reader)].invalidate(line)
        proto.l2[proto.flat(ghome)].invalidate(line)
        proto.dirs[proto.flat(ghome)].invalidate(sector)
        op = st(N00, ADDR)
        san.after_op(proto, op, proto.process(op), 2)
        assert san.violations == []
        assert proto.dirs[proto.flat(ghome)].lookup(
            sector, touch=False) is None

    def test_peer_sharer_raced_by_eviction(self, cfg):
        """The GPM's cached copy was evicted but the GPU-home directory
        still lists it: the fan-out invalidation finds nothing to drop
        and must still clean the directory."""
        proto, san, line, sector, reader, ghome = _share_with_peer(cfg)
        proto.l2[proto.flat(reader)].invalidate(line)
        op = st(N00, ADDR)
        san.after_op(proto, op, proto.process(op), 2)
        assert san.violations == []
        # The stale sharer entry did not survive the invalidation.
        assert proto.dirs[proto.flat(ghome)].lookup(
            sector, touch=False) is None
        # And the writer is the sole copy-holder again.
        assert proto.l2[proto.flat(reader)].peek(line) is None


class TestModelEdges:
    """The same races, exhaustively: every interleaving of the eviction
    adversary with the invalidation protocol on a two-GPU machine."""

    @pytest.mark.parametrize("geometry", (Geometry(2, 1), Geometry(2, 2)))
    def test_cache_eviction_race_is_clean(self, geometry):
        program, homes = build("evict_race", geometry)
        result = check("hmg", geometry, program, homes,
                       CheckOptions(evict_budget=1),
                       program_name="evict_race")
        assert result.complete and result.ok

    def test_directory_eviction_race_is_clean(self):
        # 2x1 keeps the replacement adversary's state space exhaustible
        # while still crossing the GPU boundary (2x2 explodes past the
        # default state bound).
        geometry = Geometry(2, 1)
        program, homes = build("share", geometry)
        result = check("hmg", geometry, program, homes,
                       CheckOptions(dir_evict_budget=1),
                       program_name="share")
        assert result.complete and result.ok
