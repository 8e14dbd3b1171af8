"""Trace containers, generators, patterns, the workload catalog."""

import pytest

from repro.config import SystemConfig
from repro.core.types import MemOp, NodeId, OpType, Scope
from repro.trace.generator import PATTERNS, WorkloadSpec, partition
from repro.trace.stream import Trace, interleave_order, merge_phases
from repro.trace.workloads import FIGURE_ORDER, WORKLOADS, get_workload
from tests.conftest import ld, st


def _interleave(streams, chunk):
    """Merge op streams by :func:`interleave_order` over their
    concatenation."""
    flat = [op for stream in streams for op in stream]
    order = interleave_order([len(s) for s in streams], chunk)
    return [flat[i] for i in order.tolist()]


class TestInterleave:
    def test_preserves_per_stream_order(self):
        s1 = [ld(NodeId(0, 0), k * 128) for k in range(10)]
        s2 = [ld(NodeId(0, 1), k * 128) for k in range(7)]
        merged = _interleave([s1, s2], chunk=3)
        assert [op for op in merged if op.node == NodeId(0, 0)] == s1
        assert [op for op in merged if op.node == NodeId(0, 1)] == s2
        assert len(merged) == 17

    def test_round_robin_chunks(self):
        s1 = [ld(NodeId(0, 0), 0)] * 4
        s2 = [ld(NodeId(0, 1), 0)] * 4
        merged = _interleave([s1, s2], chunk=2)
        assert [op.node.gpm for op in merged] == [0, 0, 1, 1, 0, 0, 1, 1]

    def test_invalid_chunk(self):
        with pytest.raises(ValueError):
            interleave_order([0], chunk=0)

    def test_merge_phases(self):
        p1 = [ld(NodeId(0, 0), 0)]
        p2 = [st(NodeId(0, 0), 0)]
        assert merge_phases([p1, p2]) == p1 + p2


class TestTrace:
    def test_counters(self):
        ops = [ld(NodeId(0, 0), 0), st(NodeId(0, 0), 0),
               MemOp(OpType.KERNEL_BOUNDARY, 0, NodeId(0, 0))]
        trace = Trace("t", ops, kernels=1)
        assert trace.loads == 1
        assert trace.stores == 1
        assert trace.synchronizing_ops == 1
        assert len(trace) == 3
        assert trace[0] == ops[0]
        assert "1 kernels" in trace.describe()

    def test_scoped_op_counts(self):
        ops = [ld(NodeId(0, 0), 0, scope=Scope.GPU)] * 2
        trace = Trace("t", ops)
        assert trace.scoped_op_counts()[(OpType.LOAD, Scope.GPU)] == 2


class TestPartition:
    def test_even(self):
        assert partition(16, 4, 0) == (0, 4)
        assert partition(16, 4, 3) == (12, 4)

    def test_uneven(self):
        sizes = [partition(10, 4, i)[1] for i in range(4)]
        assert sum(sizes) == 10
        starts = [partition(10, 4, i)[0] for i in range(4)]
        assert starts == sorted(starts)

    def test_bounds(self):
        with pytest.raises(IndexError):
            partition(10, 4, 4)


class TestCatalog:
    def test_twenty_workloads(self):
        assert len(WORKLOADS) == 20
        assert len(FIGURE_ORDER) == 20

    def test_table_iii_names_present(self):
        names = {spec.name for spec in WORKLOADS.values()}
        for expected in ("cuSolver", "HPC snap", "Lonestar bfs-road-fla",
                         "ML RNN layer4 WGRAD", "Rodinia pathfinder"):
            assert expected in names

    def test_patterns_registered(self):
        for spec in WORKLOADS.values():
            assert spec.pattern in PATTERNS

    def test_gpu_scoped_apps(self):
        """cuSolver, namd2.10 and mst use explicit .gpu-scope sync."""
        for abbrev in ("cuSolver", "namd2.10", "mst"):
            assert WORKLOADS[abbrev].params.get("gpu_synced")

    def test_get_workload(self):
        assert get_workload("snap").suite == "HPC"
        with pytest.raises(ValueError):
            get_workload("doom")

    def test_footprints_match_table_iii(self):
        assert WORKLOADS["bfs"].footprint_mb == 26
        assert WORKLOADS["namd2.10"].footprint_mb == 72
        assert WORKLOADS["RNN_FW"].footprint_mb == 40


class TestGeneration:
    @pytest.fixture(scope="class")
    def cfg(self):
        return SystemConfig.paper_scaled(1 / 64)

    def test_deterministic(self, cfg):
        t1 = WORKLOADS["CoMD"].generate(cfg, seed=3, ops_scale=0.1)
        t2 = WORKLOADS["CoMD"].generate(cfg, seed=3, ops_scale=0.1)
        assert t1.ops == t2.ops

    def test_seed_changes_trace(self, cfg):
        t1 = WORKLOADS["bfs"].generate(cfg, seed=1, ops_scale=0.1)
        t2 = WORKLOADS["bfs"].generate(cfg, seed=2, ops_scale=0.1)
        assert t1.ops != t2.ops

    def test_ops_scale_scales(self, cfg):
        small = WORKLOADS["CoMD"].generate(cfg, seed=1, ops_scale=0.1)
        big = WORKLOADS["CoMD"].generate(cfg, seed=1, ops_scale=0.3)
        assert len(big) > 1.5 * len(small)

    @pytest.mark.parametrize("abbrev", list(FIGURE_ORDER))
    def test_every_workload_generates(self, cfg, abbrev):
        trace = WORKLOADS[abbrev].generate(cfg, seed=1, ops_scale=0.05)
        assert len(trace) > 0
        assert trace.kernels >= WORKLOADS[abbrev].kernels
        # Every GPM participates.
        assert len(trace.nodes()) == cfg.total_gpms

    def test_kernel_boundaries_cover_all_gpms(self, cfg):
        trace = WORKLOADS["snap"].generate(cfg, seed=1, ops_scale=0.05)
        counts = {}
        for op in trace:
            if op.op == OpType.KERNEL_BOUNDARY:
                counts[op.node] = counts.get(op.node, 0) + 1
        assert len(counts) == cfg.total_gpms
        assert len(set(counts.values())) == 1  # same count everywhere

    def test_gpu_synced_traces_contain_scoped_sync(self, cfg):
        trace = WORKLOADS["mst"].generate(cfg, seed=1, ops_scale=0.05)
        scoped = trace.scoped_op_counts()
        assert scoped.get((OpType.RELEASE, Scope.GPU), 0) > 0
        assert scoped.get((OpType.ACQUIRE, Scope.GPU), 0) > 0

    def test_unknown_pattern_rejected(self, cfg):
        spec = WorkloadSpec(name="x", abbrev="x", suite="t",
                            footprint_mb=1, pattern="nope", kernels=1,
                            ops_per_gpm_per_kernel=10)
        with pytest.raises(ValueError, match="unknown pattern"):
            spec.generate(cfg)

    def test_addresses_within_footprint(self, cfg):
        trace = WORKLOADS["lstm"].generate(cfg, seed=1, ops_scale=0.05)
        assert all(op.address < trace.footprint_bytes for op in trace)

    def test_fine_grained_access_sizes(self, cfg):
        trace = WORKLOADS["mst"].generate(cfg, seed=1, ops_scale=0.05)
        sizes = {op.size for op in trace if op.op == OpType.ATOMIC}
        assert sizes and max(sizes) <= 16  # sub-line conflicting updates
