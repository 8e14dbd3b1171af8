"""Pattern-generator internals: layouts, plans, cold streams."""

import math

import pytest

from repro.config import SystemConfig
from repro.core.types import NodeId, OpType
from repro.trace.generator import GenContext, WorkloadSpec
from repro.trace.patterns import (
    _ColdStream,
    _SharedReadPlan,
    _SharedRegion,
    _strided_cover,
)


@pytest.fixture
def ctx():
    cfg = SystemConfig.paper_scaled(1 / 64)
    spec = WorkloadSpec(name="t", abbrev="t", suite="t", footprint_mb=1,
                        pattern="dense_ml", kernels=4,
                        ops_per_gpm_per_kernel=400)
    return GenContext(cfg, spec, seed=1)


def make_plan(ctx, **kw):
    defaults = dict(total_reads=40, reuse=2, hier_frac=0.5)
    defaults.update(kw)
    return _SharedReadPlan(ctx, **defaults)


class TestStridedCover:
    def test_full_coverage_when_budget_suffices(self):
        assert _strided_cover(10, 20) == (1, 10)

    def test_even_spacing(self):
        stride, n = _strided_cover(100, 25)
        assert stride == 4 and n == 25

    def test_empty(self):
        assert _strided_cover(0, 5) == (1, 0)


class TestSharedReadPlan:
    def test_budget_conservation(self, ctx):
        plan = make_plan(ctx, total_reads=40, reuse=4)
        emitted = plan.reuse * plan.unique
        assert abs(emitted - plan.total_reads) <= plan.reuse

    def test_reuse_clamped_for_tiny_plans(self, ctx):
        plan = make_plan(ctx, total_reads=3, reuse=8)
        assert plan.reuse <= 3
        assert plan.reuse * plan.unique <= 6

    def test_hier_priv_split(self, ctx):
        plan = make_plan(ctx, total_reads=40, reuse=2, hier_frac=0.5)
        assert plan.hier_unique + plan.priv_unique == plan.unique
        assert plan.hier_unique == round(plan.unique * 0.5)

    def test_fresh_windows(self, ctx):
        plan = make_plan(ctx, fresh=True, windows=4)
        assert plan.windows == 4
        plan2 = make_plan(ctx, fresh=False, windows=4)
        assert plan2.windows == 1

    def test_zero_reads(self, ctx):
        plan = make_plan(ctx, total_reads=0)
        assert plan.unique == 0


class TestSharedRegion:
    def test_layout_injective(self, ctx):
        plan = make_plan(ctx, total_reads=200, reuse=1, hier_frac=1.0)
        region = _SharedRegion(ctx, "r", plan, 1)
        lines = [region.line_at(k) for k in range(region.lines)]
        assert len(set(lines)) == len(lines)

    def test_layout_spreads_across_pages(self, ctx):
        plan = make_plan(ctx, total_reads=64, reuse=1, hier_frac=1.0)
        region = _SharedRegion(ctx, "r2", plan, 1, min_pages=8)
        lpp = ctx.cfg.lines_per_page
        pages = {region.line_at(k) // lpp for k in range(32)}
        assert len(pages) >= 8

    def test_chunked_layout_keeps_sector_mates_adjacent(self, ctx):
        plan = make_plan(ctx, total_reads=64, reuse=1, hier_frac=1.0)
        region = _SharedRegion(ctx, "r3", plan, 1, chunk=4)
        for base in range(0, 32, 4):
            group = [region.line_at(base + o) for o in range(4)]
            assert group == list(range(group[0], group[0] + 4))
            assert group[0] % 4 == 0  # sector aligned

    def test_gcd_coprime(self, ctx):
        plan = make_plan(ctx)
        region = _SharedRegion(ctx, "r4", plan, 1, chunk=4)
        assert math.gcd(region.stride, region.groups) == 1

    def test_placement_pins_gpu(self, ctx):
        plan = make_plan(ctx)
        region = _SharedRegion(ctx, "r5", plan, 1, placement="gpu:2")
        # The init kernel's first-touch stores come from GPU2 only.
        touchers = {
            op.node.gpu
            for flat in range(ctx.n_gpms) for op in ctx.stream_ops(flat)
            if op.op == OpType.STORE
            and region.region.contains(op.address)
        }
        assert touchers == {2}


class TestColdStream:
    def _spec(self, frac):
        return WorkloadSpec(name="c", abbrev="c", suite="t",
                            footprint_mb=1, pattern="dense_ml", kernels=3,
                            ops_per_gpm_per_kernel=400,
                            params={"cold_frac": frac})

    def test_disabled_when_zero(self, ctx):
        cold = _ColdStream(ctx, self._spec(0.0))
        assert cold.region is None
        assert cold.total_reads == 0
        cold.emit(ctx, NodeId(0, 0), 0, 0)  # no-op, no crash

    def test_streams_are_disjoint_across_gpms_and_kernels(self, ctx):
        cold = _ColdStream(ctx, self._spec(0.1))
        seen = set()
        for flat in range(4):
            for kernel in range(3):
                before = len(ctx.stream_ops(flat))
                cold.emit(ctx, ctx.nodes[flat], flat, kernel)
                addrs = {op.address
                         for op in ctx.stream_ops(flat)[before:]}
                assert addrs
                assert not (addrs & seen)  # once-through, never reread
                seen |= addrs

    def test_respects_budget(self, ctx):
        cold = _ColdStream(ctx, self._spec(0.1))
        before = sum(len(ctx.stream_ops(f)) for f in range(ctx.n_gpms))
        cold.emit(ctx, ctx.nodes[0], 0, 0)
        emitted = sum(len(ctx.stream_ops(f))
                      for f in range(ctx.n_gpms)) - before
        assert emitted <= cold.reads_per_kernel


class TestSyncPages:
    def test_gpu_flags_homed_locally(self):
        """Each GPU's sync flag lives on its own page, so .gpu-scoped
        sync never crosses the inter-GPU network (the padding real
        runtimes apply)."""
        from repro.core.registry import make_protocol
        from repro.trace.workloads import WORKLOADS

        cfg = SystemConfig.paper_scaled(1 / 64)
        trace = WORKLOADS["mst"].generate(cfg, seed=1, ops_scale=0.05)
        proto = make_protocol("hmg", cfg)
        for op in trace:
            proto.process(op)
        releases = [op for op in trace
                    if op.op == OpType.RELEASE and op.scope.name == "GPU"]
        assert releases
        for op in releases[:32]:
            line = proto.amap.line_of(op.address)
            owner = proto.page_table.policy.lookup(
                proto.amap.page_of_line(line)
            )
            assert owner.gpu == op.node.gpu
