"""Vectorized batch throughput engine: numpy epoch accounting.

Drop-in alternative to :class:`repro.engine.throughput.ThroughputEngine`
that charges the same resource model (``ResourceTimes`` → overlap-taxed
cycle count) from columnar numpy arrays instead of a per-op Python
dispatch loop.  The scalar engine remains the reference semantics;
``simulate(engine="vectorized")`` (or the default auto dispatch) uses
this path when no sanitizer/tracer is attached.

Accounting splits into two tiers (DESIGN §15):

* **Exact** — everything derivable from the trace and the address map
  alone: op/kind counts, per-GPM issue ops, bulk-invalidate charges,
  store/atomic/release/fence message traffic and latencies, exposed
  synchronization stalls (except the load part of acquires), page
  placement, home mapping, hop classes.  These match the scalar engine
  bit-for-bit (modulo float summation order).
* **Epoch-approximate** — everything that depends on cache/directory
  *state*: load hit levels (and therefore DRAM traffic, LOAD_REQ /
  DATA_RESP messages, L2 byte movement for loads), cache-stat counters
  and directory fan-outs.  The trace is cut into epochs at kernel
  boundary waves (subdivided to a maximum span); within an epoch a
  probe hits when its line was resident at epoch start or any earlier
  same-epoch access left it resident, and capacity/invalidation events
  are folded in at epoch ends.  The differential gate
  (:mod:`repro.engine.equivalence`) bounds the resulting drift per
  field.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core import batchmap
from repro.core.protocol import ProtocolStats
from repro.core.types import MsgType, OpType, Scope
from repro.engine import vec_state as vs
from repro.engine.stats import (DegradationStats, ResourceTimes, SimResult,
                                apply_fault_expansion)
from repro.memsys.cache import CacheStats
from repro.trace.batch import as_batch, decoded

#: Registry protocols the vectorized engine can account for.  Anything
#: else (plugin protocols, detailed-engine-only models) falls back to
#: the scalar reference path in ``simulate()``.
VECTORIZED_PROTOCOLS = frozenset(
    {"noremote", "sw", "hsw", "nhcc", "gpuvi", "hmg", "ideal"}
)

_LOAD = int(OpType.LOAD)
_STORE = int(OpType.STORE)
_ATOMIC = int(OpType.ATOMIC)
_ACQUIRE = int(OpType.ACQUIRE)
_RELEASE = int(OpType.RELEASE)
_KB = int(OpType.KERNEL_BOUNDARY)
_CTA = int(Scope.CTA)
_GPU = int(Scope.GPU)
_SYS = int(Scope.SYS)


def _bc(n, idx, weights=None):
    """bincount with a fixed output length."""
    return np.bincount(idx, weights=weights, minlength=n)


class _Traffic:
    """Vectorized twin of ``Protocol.send`` + ``ThroughputSink``:
    message count/byte tallies plus crossbar/link routing."""

    __slots__ = ("counts", "bytes", "xbar", "link_out", "link_in", "gpms")

    def __init__(self, num_gpus: int, gpms_per_gpu: int):
        self.counts = {}
        self.bytes = {}
        self.xbar = np.zeros(num_gpus, np.int64)
        self.link_out = np.zeros(num_gpus, np.int64)
        self.link_in = np.zeros(num_gpus, np.int64)
        self.gpms = gpms_per_gpu

    def _tally(self, mtype, count, nbytes):
        if count:
            self.counts[mtype] = self.counts.get(mtype, 0) + int(count)
            self.bytes[mtype] = self.bytes.get(mtype, 0) + int(nbytes)

    def send(self, mtype, src_flat, dst_flat, size=None, sizes=None):
        """Emit one message per (src, dst) pair.  ``size`` is a scalar
        byte count, ``sizes`` a per-message array.  Like the scalar
        engine, messages are tallied even when src == dst, but only
        src != dst traffic occupies the crossbar/links."""
        n = src_flat.size
        if n == 0:
            return
        if sizes is None:
            self._tally(mtype, n, n * size)
        else:
            self._tally(mtype, n, int(sizes.sum()))
        moving = src_flat != dst_flat
        if not moving.any():
            return
        src = src_flat[moving]
        dst = dst_flat[moving]
        w = None if sizes is None else sizes[moving]
        sg = src // self.gpms
        dg = dst // self.gpms
        ng = self.xbar.size
        if w is None:
            self.xbar += _bc(ng, sg) * size
            cross = sg != dg
            if cross.any():
                self.xbar += _bc(ng, dg[cross]) * size
                self.link_out += _bc(ng, sg[cross]) * size
                self.link_in += _bc(ng, dg[cross]) * size
        else:
            self.xbar += _bc(ng, sg, w).astype(np.int64)
            cross = sg != dg
            if cross.any():
                wc = w[cross]
                self.xbar += _bc(ng, dg[cross], wc).astype(np.int64)
                self.link_out += _bc(ng, sg[cross], wc).astype(np.int64)
                self.link_in += _bc(ng, dg[cross], wc).astype(np.int64)

    def send_one(self, mtype, src_flat, dst_flat, size, count=1):
        """``count`` identical messages between two fixed GPMs."""
        if count == 0:
            return
        self._tally(mtype, count, count * size)
        if src_flat == dst_flat:
            return
        sg, dg = src_flat // self.gpms, dst_flat // self.gpms
        amount = count * size
        self.xbar[sg] += amount
        if sg != dg:
            self.xbar[dg] += amount
            self.link_out[sg] += amount
            self.link_in[dg] += amount


class _Prep:
    """Per-(geometry, placement) derived columns of one trace."""

    __slots__ = (
        "n", "line", "sector", "sh", "gh", "pay", "sl", "sc", "kind",
        "size", "hop_nh", "cuts", "byk", "upages", "owners",
    )


def _prepare(batch, cfg, placement: str,
             cta_atomics_place: bool = False) -> _Prep:
    """Build (and memoize on the batch) the engine's derived columns:
    sector indices, page placement, system/GPU homes, hop classes,
    per-kind index lists and epoch cuts, on top of the line, flat-GPM
    and L1-slot columns the scalar engine shares
    (:func:`repro.trace.batch.decoded`).

    ``cta_atomics_place`` mirrors a scalar subtlety: every protocol
    except ``ideal`` satisfies CTA-scope atomics entirely in the L1 and
    never consults the page table, so under first-touch placement such
    an atomic must not place its page; ``ideal`` routes atomics through
    its store path and does."""
    amap_key = (cfg.line_size, cfg.dir_lines_per_entry, cfg.page_size,
                cfg.num_gpus, cfg.gpms_per_gpu, cfg.l1_slices_per_gpm,
                placement, cta_atomics_place)
    hit = batch.prepared.get(amap_key)
    if hit is not None:
        return hit
    p = _Prep()
    G = cfg.gpms_per_gpu
    cols = decoded(batch, cfg)
    gpu = batch.gpu.astype(np.int64)
    p.kind = batch.kind.astype(np.int64)
    p.sc = batch.scope.astype(np.int64)
    p.size = batch.size.astype(np.int64)
    p.n = cols.flat.astype(np.int64)
    p.line = cols.line
    page = batchmap.pages_of_lines(p.line, cfg.lines_per_page)
    p.sector = batchmap.sectors_of_lines(p.line, cfg.dir_lines_per_entry)
    eligible = p.kind != _KB
    if not cta_atomics_place:
        eligible &= ~((p.kind == _ATOMIC) & (p.sc == _CTA))
    p.upages, p.owners = batchmap.placement_owners(
        placement, page, p.n, p.kind, _KB, cfg.num_gpus, G,
        eligible=eligible,
    )
    p.sh = batchmap.owners_of_pages(p.upages, p.owners, page)
    home_gpm = batchmap.home_gpm_of_sectors(p.sector, G)
    p.gh = np.where(p.sh // G == gpu, p.sh, gpu * G + home_gpm)
    p.pay = np.minimum(p.size, cfg.line_size)
    p.sl = cols.slot.astype(np.int64)
    same_gpu = p.n // G == p.sh // G
    p.hop_nh = np.where(
        p.n == p.sh, 0,
        np.where(same_gpu, cfg.latency.inter_gpm_hop,
                 cfg.latency.inter_gpu_hop),
    )
    p.byk = {k: np.flatnonzero(p.kind == k)
             for k in (_LOAD, _STORE, _ATOMIC, _ACQUIRE, _RELEASE, _KB)}
    p.cuts = vs.epoch_bounds(p.byk[_KB], len(batch))
    batch.prepared[amap_key] = p
    return p


class _Run:
    """Mutable accumulators for one vectorized run."""

    def __init__(self, cfg):
        T = cfg.total_gpms
        self.traffic = _Traffic(cfg.num_gpus, cfg.gpms_per_gpu)
        self.l2_bytes = np.zeros(T, np.int64)
        self.dram_reads = np.zeros(T, np.int64)
        self.dram_writes = np.zeros(T, np.int64)
        self.stall = np.zeros(T, np.float64)
        self.bulk_invs = np.zeros(T, np.int64)
        self.stats = ProtocolStats()
        # Aggregate cache-stat counters (SimResult only ever exposes the
        # merged CacheStats, so per-unit splits are not materialized).
        self.l1 = dict.fromkeys(
            ("hits", "misses", "fills", "evictions", "invalidated_lines",
             "bulk_invalidations"), 0)
        self.l2c = dict.fromkeys(
            ("hits", "misses", "fills", "evictions", "dirty_evictions",
             "invalidated_lines", "bulk_invalidations"), 0)


def _fence_nhcc(r, cfg, src_flat, count):
    """NHCC/GPU-VI release fence: RELEASE_FENCE + RELEASE_ACK pairs to
    every other GPM; returns the farthest rtt (the fence latency)."""
    G = cfg.gpms_per_gpu
    farthest = 0
    for t in range(cfg.total_gpms):
        if t == src_flat:
            continue
        r.traffic.send_one(MsgType.RELEASE_FENCE, src_flat, t,
                           cfg.message_sizes.release_fence, count)
        r.traffic.send_one(MsgType.RELEASE_ACK, t, src_flat,
                           cfg.message_sizes.acknowledgment, count)
        rtt = (2 * cfg.latency.inter_gpm_hop if t // G == src_flat // G
               else 2 * cfg.latency.inter_gpu_hop)
        farthest = max(farthest, rtt)
    return float(farthest)


def _fence_hmg(r, cfg, src_flat, count, sys_scope):
    """HMG hierarchical release fence (intra-GPU pairs; .sys adds the
    peer-GPU fan-out with their inner pairs)."""
    G = cfg.gpms_per_gpu
    sizes = cfg.message_sizes
    gpu, gpm = divmod(src_flat, G)
    farthest = 0
    for m in range(G):
        if m == gpm:
            continue
        t = gpu * G + m
        r.traffic.send_one(MsgType.RELEASE_FENCE, src_flat, t,
                           sizes.release_fence, count)
        r.traffic.send_one(MsgType.RELEASE_ACK, t, src_flat,
                           sizes.acknowledgment, count)
        farthest = max(farthest, 2 * cfg.latency.inter_gpm_hop)
    if sys_scope:
        for pg in range(cfg.num_gpus):
            if pg == gpu:
                continue
            peer = pg * G + gpm
            r.traffic.send_one(MsgType.RELEASE_FENCE, src_flat, peer,
                               sizes.release_fence, count)
            farthest = max(farthest, 2 * cfg.latency.inter_gpu_hop)
            for m in range(G):
                inner = pg * G + m
                if inner == peer:
                    continue
                r.traffic.send_one(MsgType.RELEASE_FENCE, peer, inner,
                                   sizes.release_fence, count)
                r.traffic.send_one(MsgType.RELEASE_ACK, inner, peer,
                                   sizes.acknowledgment, count)
            r.traffic.send_one(MsgType.RELEASE_ACK, peer, src_flat,
                               sizes.acknowledgment, count)
    return float(farthest)


def _store_latency(name, cfg, p, idx):
    """Unloaded store latency per op (exact for every protocol; only
    GPU-VI replaces it with the hidden-ack term, handled separately)."""
    lat = cfg.latency
    base = float(lat.l1_hit + lat.l2_hit)
    n, sh, gh = p.n[idx], p.sh[idx], p.gh[idx]
    if name == "ideal":
        return np.full(idx.size, base, np.float64)
    if name in ("hsw", "hmg"):
        return (base + (n != gh) * float(lat.inter_gpm_hop)
                + (gh != sh) * float(lat.inter_gpu_hop))
    if name == "noremote":
        cacheable = n // cfg.gpms_per_gpu == sh // cfg.gpms_per_gpu
        return (float(lat.l1_hit) + cacheable * float(lat.l2_hit)
                + (n != sh) * p.hop_nh[idx].astype(np.float64))
    # sw / nhcc / gpuvi: flat home, one-way hop when remote.
    return base + (n != sh) * p.hop_nh[idx].astype(np.float64)


def _static_charges(cfg, p, name, r):
    """Everything state-independent: store/atomic/release/fence/KB
    messages, byte movement, bulk-invalidate charges and exposed
    stalls.  Loads (and the load half of acquires) are the epoch
    loop's job."""
    lat, sizes, timing = cfg.latency, cfg.message_sizes, cfg.timing
    T, G = cfg.total_gpms, cfg.gpms_per_gpu
    tol = timing.latency_tolerance
    tr = r.traffic
    hdr = sizes.request_header
    data_size = sizes.data_payload_extra + cfg.line_size
    multi_gpu = cfg.num_gpus > 1
    sys_fence = float(2 * (lat.inter_gpu_hop if multi_gpu
                           else lat.inter_gpm_hop))
    binv = float(timing.bulk_invalidate_cycles)

    st = p.byk[_STORE]
    at = p.byk[_ATOMIC]
    rl = p.byk[_RELEASE]
    kb = p.byk[_KB]
    at_cta = at[p.sc[at] == _CTA]
    at_scoped = at[p.sc[at] != _CTA]
    rl_cta = rl[p.sc[rl] == _CTA]
    rl_scoped = rl[p.sc[rl] != _CTA]

    def store_traffic(idx):
        """STORE_REQ chains + store-path L2 byte movement for stores,
        scoped atomics (hier/ideal) and the store half of releases."""
        if idx.size == 0:
            return
        n, sh, gh = p.n[idx], p.sh[idx], p.gh[idx]
        pay = p.pay[idx]
        if name in ("hsw", "hmg", "ideal"):
            r.l2_bytes += _bc(T, n, pay).astype(np.int64)
            m1 = n != gh
            tr.send(MsgType.STORE_REQ, n[m1], gh[m1], sizes=hdr + pay[m1])
            r.l2_bytes += _bc(T, gh[m1], pay[m1]).astype(np.int64)
            m2 = gh != sh
            tr.send(MsgType.STORE_REQ, gh[m2], sh[m2], sizes=hdr + pay[m2])
            r.l2_bytes += _bc(T, sh[m2], pay[m2]).astype(np.int64)
        elif name == "noremote":
            cacheable = n // G == sh // G
            r.l2_bytes += _bc(T, n[cacheable], pay[cacheable]).astype(
                np.int64)
            m = n != sh
            tr.send(MsgType.STORE_REQ, n[m], sh[m], sizes=hdr + pay[m])
            r.l2_bytes += _bc(T, sh[m], pay[m]).astype(np.int64)
        else:  # sw / nhcc / gpuvi
            r.l2_bytes += _bc(T, n, pay).astype(np.int64)
            m = n != sh
            tr.send(MsgType.STORE_REQ, n[m], sh[m], sizes=hdr + pay[m])
            r.l2_bytes += _bc(T, sh[m], pay[m]).astype(np.int64)

    store_traffic(st)
    store_traffic(rl)  # every release performs its store first

    # -- atomics -------------------------------------------------------
    if name in ("hsw", "hmg"):
        store_traffic(at_scoped)
        n, sh, gh = p.n[at_scoped], p.sh[at_scoped], p.gh[at_scoped]
        target = np.where(p.sc[at_scoped] == _GPU, gh, sh)
        m = n != target
        tr.send(MsgType.ATOMIC_RESP, target[m], n[m], size=hdr)
    elif name == "ideal":
        store_traffic(at)  # ideal atomics run the full store at any scope
    elif at_scoped.size:
        # Flat protocols: request/response to the system home; the home
        # applies a full-line store.  NHCC additionally caches the
        # response locally (one extra line of L2 movement).
        n, sh = p.n[at_scoped], p.sh[at_scoped]
        m = n != sh
        tr.send(MsgType.ATOMIC_REQ, n[m], sh[m], size=hdr + 16)
        tr.send(MsgType.ATOMIC_RESP, sh[m], n[m], size=hdr)
        r.l2_bytes += _bc(T, sh) * cfg.line_size
        if name in ("nhcc", "gpuvi"):
            r.l2_bytes += _bc(T, n[m]) * cfg.line_size

    # CTA atomics are satisfied in the L1 and expose their latency.
    if name != "ideal" and at_cta.size:
        r.stall += _bc(T, p.n[at_cta]) * (float(lat.l1_hit) / tol)

    # -- releases ------------------------------------------------------
    if name != "ideal":
        if rl_cta.size:
            r.stall += _bc(T, p.n[rl_cta],
                           _store_latency(name, cfg, p, rl_cta)) / tol
        if rl_scoped.size:
            store_lat = _store_latency(name, cfg, p, rl_scoped)
            if name in ("nhcc", "gpuvi"):
                per_src = _bc(T, p.n[rl_scoped])
                fence = 0.0
                for s in np.flatnonzero(per_src):
                    fence = _fence_nhcc(r, cfg, s, int(per_src[s]))
                r.stall += _bc(T, p.n[rl_scoped], store_lat + fence) / tol
            elif name == "hmg":
                for scope, mask in ((_GPU, p.sc[rl_scoped] == _GPU),
                                    (_SYS, p.sc[rl_scoped] == _SYS)):
                    sel = rl_scoped[mask]
                    if sel.size == 0:
                        continue
                    per_src = _bc(T, p.n[sel])
                    fence = 0.0
                    for s in np.flatnonzero(per_src):
                        fence = _fence_hmg(r, cfg, s, int(per_src[s]),
                                           scope == _SYS)
                    r.stall += _bc(T, p.n[sel],
                                   _store_latency(name, cfg, p, sel)
                                   + fence) / tol
            elif name == "hsw":
                stall_c = np.where(
                    (p.sc[rl_scoped] == _GPU) | (not multi_gpu),
                    float(2 * lat.inter_gpm_hop), float(2 * lat.inter_gpu_hop))
                r.stall += _bc(T, p.n[rl_scoped], store_lat + stall_c) / tol
            else:  # sw / noremote: flat drain to the farthest GPM
                r.stall += _bc(T, p.n[rl_scoped],
                               store_lat + sys_fence) / tol

    # -- kernel boundaries ---------------------------------------------
    if kb.size:
        nkb = p.n[kb]
        if name in ("nhcc", "gpuvi", "hmg"):
            per_src = _bc(T, nkb)
            fence = 0.0
            for s in np.flatnonzero(per_src):
                if name == "hmg":
                    fence = _fence_hmg(r, cfg, s, int(per_src[s]), True)
                else:
                    fence = _fence_nhcc(r, cfg, s, int(per_src[s]))
            r.stall += _bc(T, nkb) * ((fence + binv) / tol)
            r.bulk_invs += _bc(T, nkb) * cfg.l1_slices_per_gpm
            r.l1["bulk_invalidations"] += kb.size * cfg.l1_slices_per_gpm
        elif name == "ideal":
            r.stall += _bc(T, nkb) * (sys_fence / tol)
        else:  # sw / hsw / noremote: drain + L1 flash + own-L2 sweep
            r.stall += _bc(T, nkb) * ((sys_fence + binv) / tol)
            r.bulk_invs += _bc(T, nkb) * (cfg.l1_slices_per_gpm + 1)
            r.l1["bulk_invalidations"] += kb.size * cfg.l1_slices_per_gpm
            r.l2c["bulk_invalidations"] += kb.size

    # -- acquires (flash part; the load part is epoch work) ------------
    aq = p.byk[_ACQUIRE]
    aq_scoped = aq[p.sc[aq] != _CTA] if name != "ideal" else aq[:0]
    if aq_scoped.size:
        naq = p.n[aq_scoped]
        r.l1["bulk_invalidations"] += aq_scoped.size
        if name in ("sw", "noremote"):
            r.bulk_invs += _bc(T, naq) * 2  # L1 slice + own-L2 sweep
            r.l2c["bulk_invalidations"] += aq_scoped.size
        elif name == "hsw":
            gpu_scope = p.sc[aq_scoped] == _GPU
            r.bulk_invs += _bc(T, naq[gpu_scope]) * 2
            r.l2c["bulk_invalidations"] += int(gpu_scope.sum())
            sys_sel = naq[~gpu_scope]
            if sys_sel.size:
                # .sys sweeps every L2 of the issuing GPU.
                r.bulk_invs += _bc(T, sys_sel)  # the L1 slice flash
                gpu0 = (sys_sel // G) * G
                for m in range(G):
                    r.bulk_invs += _bc(T, gpu0 + m)
                r.l2c["bulk_invalidations"] += sys_sel.size * G
        else:  # nhcc / gpuvi / hmg flash only the issuing L1 slice
            r.bulk_invs += _bc(T, naq)

    # -- per-kind op counters (all exact) ------------------------------
    s = r.stats
    s.loads = int(p.byk[_LOAD].size)
    s.stores = int(st.size)
    s.atomics = int(at.size)
    s.acquires = int(aq.size)
    s.releases = int(rl.size)
    s.kernel_boundaries = int(kb.size)
    for kind, count in (
        (OpType.LOAD, s.loads), (OpType.STORE, s.stores),
        (OpType.ATOMIC, s.atomics), (OpType.ACQUIRE, s.acquires),
        (OpType.RELEASE, s.releases), (OpType.KERNEL_BOUNDARY,
                                       s.kernel_boundaries),
    ):
        if count:
            s.op_counts[kind] = count


# ---------------------------------------------------------------------------
# Epoch machinery
# ---------------------------------------------------------------------------

def _or_key_reduce(keys, vals):
    """(sorted unique keys, OR of vals per key)."""
    order = np.argsort(keys, kind="stable")
    k, v = keys[order], vals[order]
    first = np.empty(k.size, bool)
    first[0] = True
    first[1:] = k[1:] != k[:-1]
    starts = np.flatnonzero(first)
    return k[starts], np.bitwise_or.reduceat(v, starts)


def _lookup_val(sorted_keys, vals, query):
    """Payload of each query key in a sorted table (0 when absent)."""
    out = np.zeros(query.size, np.int64)
    if sorted_keys.size and query.size:
        idx = np.searchsorted(sorted_keys, query)
        idx[idx >= sorted_keys.size] = sorted_keys.size - 1
        hit = sorted_keys[idx] == query
        out[hit] = vals[idx[hit]]
    return out


def _last_pos_per_unit(units, pos):
    """(sorted unique units, latest pos per unit)."""
    order = np.argsort(units, kind="stable")
    u, q = units[order], pos[order]
    first = np.empty(u.size, bool)
    first[0] = True
    first[1:] = u[1:] != u[:-1]
    starts = np.flatnonzero(first)
    return u[starts], np.maximum.reduceat(q, starts)


class _EpochSim:
    """State-dependent accounting: the trace is replayed epoch by epoch
    over global sorted-key tables (one per structure class)."""

    def __init__(self, cfg, p, name, r):
        self.cfg, self.p, self.name, self.r = cfg, p, name, r
        self.T, self.G = cfg.total_gpms, cfg.gpms_per_gpu
        self.LS = cfg.line_size
        self.SPL = cfg.dir_lines_per_entry
        self.l1_sets = cfg.l1_bytes_per_slice // self.LS // cfg.l1_ways
        self.l2_sets = cfg.l2_bytes_per_gpm // self.LS // cfg.l2_ways
        self.dir_sets = cfg.dir_entries_per_gpm // cfg.dir_ways
        self.hier = name in ("hsw", "hmg", "ideal")
        self.has_dir = name in ("nhcc", "gpuvi", "hmg")
        self.l1_tab = vs.Table()
        self.l2_tab = vs.Table()
        self.dir_tab = vs.Table()

        kind, sc, n = p.kind, p.sc, p.n
        lm = (kind == _LOAD) | (kind == _ACQUIRE)
        stm = (kind == _STORE) | (kind == _RELEASE)
        atm = kind == _ATOMIC
        cta = sc == _CTA
        at_sc = atm & ~cta
        cacheable = (n // self.G) == (p.sh // self.G)
        self.lm, self.cacheable = lm, cacheable

        # L1 residency events (loads fill on the way back; stores and
        # CTA atomics write through the L1) and probe gating.
        if name == "ideal":
            probe, gate, l1st = lm, lm, stm | atm
        elif name == "noremote":
            probe = lm & cta & cacheable
            gate = lm & cacheable
            l1st = (stm & cacheable) | (atm & cta)
        else:
            probe, gate, l1st = lm & cta, lm, stm | (atm & cta)
        ev = gate | l1st
        self.l1_idx = np.flatnonzero(ev)
        self.l1_keys = vs.make_keys(p.sl[self.l1_idx], p.line[self.l1_idx])
        self.l1_probe = probe[self.l1_idx]
        self.noremote_local = None if name != "noremote" else cacheable

        # Store-path L2 residency events, tagged dirty at the system
        # home (the only unit the scalar protocols ever dirty).
        units, lines, poss, dirt = [], [], [], []

        def add_st(mask, unit_arr):
            idx = np.flatnonzero(mask)
            units.append(unit_arr[idx])
            lines.append(p.line[idx])
            poss.append(idx)
            dirt.append((unit_arr[idx] == p.sh[idx]).astype(np.int64))

        if self.hier:
            ops2 = stm | (atm if name == "ideal" else at_sc)
            add_st(ops2, n)
            add_st(ops2 & (n != p.gh), p.gh)
            add_st(ops2 & (p.gh != p.sh), p.sh)
        elif name == "noremote":
            add_st(stm & cacheable, n)
            add_st(stm & (n != p.sh), p.sh)
            add_st(at_sc, p.sh)
        else:  # sw / nhcc / gpuvi
            add_st(stm, n)
            add_st(stm & (n != p.sh), p.sh)
            add_st(at_sc, p.sh)
            if name in ("nhcc", "gpuvi"):
                add_st(at_sc & (n != p.sh), n)
        sp = np.concatenate(poss)
        order = np.argsort(sp, kind="stable")
        su = np.concatenate(units)[order]
        self.st_pos = sp[order]
        self.st_keys = vs.make_keys(su, np.concatenate(lines)[order])
        self.st_val = np.concatenate(dirt)[order]

        # Directory update events: one per store-path op per tier.
        if self.has_dir:
            ops_u = stm | at_sc
            if name == "hmg":
                i1 = np.flatnonzero(ops_u)
                i2 = np.flatnonzero(ops_u & (p.gh != p.sh))
                uk = np.concatenate([
                    vs.make_keys(p.gh[i1], p.sector[i1]),
                    vs.make_keys(p.sh[i2], p.sector[i2]),
                ])
                me = np.concatenate([
                    np.where(n[i1] == p.gh[i1], 0,
                             np.int64(1) << (n[i1] % self.G)),
                    np.int64(1) << (32 + n[i2] // self.G),
                ])
                hl = np.concatenate([
                    n[i1] == p.gh[i1], np.zeros(i2.size, bool)])
                upos = np.concatenate([i1, i2])
            else:
                i1 = np.flatnonzero(ops_u)
                uk = vs.make_keys(p.sh[i1], p.sector[i1])
                me = np.where(n[i1] == p.sh[i1], 0, np.int64(1) << n[i1])
                hl = n[i1] == p.sh[i1]
                upos = i1
            order = np.argsort(upos, kind="stable")
            self.up_pos = upos[order]
            self.up_key, self.up_me, self.up_hl = (
                uk[order], me[order], hl[order])
            src = self.up_pos  # op index == event position
            self.up_kind = kind[src]
            self.up_n = n[src]
            self.up_hop = p.hop_nh[src].astype(np.float64)

        # Software flash events: L1 slice flashes and predicate-classed
        # L2 sweeps, applied position-aware at epoch ends.
        aqs = p.byk[_ACQUIRE]
        aqs = aqs[sc[aqs] != _CTA]
        kb = p.byk[_KB]
        S = cfg.l1_slices_per_gpm
        if name == "ideal":
            self.fl1_unit = self.fl1_pos = np.empty(0, np.int64)
        else:
            kb_slices = (p.n[kb][:, None] * S + np.arange(S)).ravel()
            self.fl1_unit = np.concatenate([p.sl[aqs], kb_slices])
            self.fl1_pos = np.concatenate([aqs, np.repeat(kb, S)])
        # (class, unit, pos) sweep tuples; classes index _sweep_preds.
        sw_cls, sw_unit, sw_pos = [], [], []
        if name in ("sw", "noremote"):
            both = np.concatenate([aqs, kb])
            sw_cls.append(np.zeros(both.size, np.int64))
            sw_unit.append(p.n[both])
            sw_pos.append(both)
        elif name == "hsw":
            aq_gpu = aqs[sc[aqs] == _GPU]
            aq_sys = aqs[sc[aqs] == _SYS]
            sw_cls.append(np.full(aq_gpu.size, 1, np.int64))
            sw_unit.append(p.n[aq_gpu])
            sw_pos.append(aq_gpu)
            self_ev = np.concatenate([aq_sys, kb])
            sw_cls.append(np.full(self_ev.size, 2, np.int64))
            sw_unit.append(p.n[self_ev])
            sw_pos.append(self_ev)
            if aq_sys.size:
                # .sys acquires also sweep the *other* GPMs of the GPU.
                tgt = ((p.n[aq_sys] // self.G)[:, None] * self.G
                       + np.arange(self.G))
                keep = tgt != p.n[aq_sys][:, None]
                sw_cls.append(np.full(int(keep.sum()), 3, np.int64))
                sw_unit.append(tgt[keep])
                sw_pos.append(np.repeat(aq_sys, self.G - 1))
        self.sw_cls = (np.concatenate(sw_cls) if sw_cls
                       else np.empty(0, np.int64))
        self.sw_unit = (np.concatenate(sw_unit) if sw_unit
                        else np.empty(0, np.int64))
        self.sw_pos = (np.concatenate(sw_pos) if sw_pos
                       else np.empty(0, np.int64))

        # Ideal's oracle invalidation: every store wipes all other
        # copies of its line machine-wide, at zero cost.
        if name == "ideal":
            mi = np.flatnonzero(stm | atm)
            self.mi_line, self.mi_pos = p.line[mi], mi
        else:
            self.mi_line = self.mi_pos = np.empty(0, np.int64)

    # -- per-epoch passes ----------------------------------------------

    def run(self):
        prev = 0
        for cut in self.p.cuts:
            a, b = prev, int(cut)
            prev = b
            alive = self._l1_pass(a, b)
            ev_keys, ev_pos, ev_val, adds = self._l2_pass(a, b, alive)
            was_new = self.l2_tab.merge(ev_keys, ev_pos, ev_val)
            self.r.l2c["fills"] += int(np.count_nonzero(was_new))
            if self.has_dir:
                self._dir_pass(a, b, adds)
            # Capacity first: the scalar engines evict continuously, so
            # by the time an epoch-ending flash lands only the surviving
            # working set is resident to be invalidated.
            self._capacity()
            self._flashes(a, b)
            self._magic(a, b)

    def _l1_pass(self, a, b):
        """Probe/refill the L1 tables; returns global indices of the
        load-class ops that continue to the L2 (missed or unprobed)."""
        r = self.r
        lo = np.searchsorted(self.l1_idx, a)
        hi = np.searchsorted(self.l1_idx, b)
        eidx = self.l1_idx[lo:hi]
        ekeys = self.l1_keys[lo:hi]
        eprobe = self.l1_probe[lo:hi]
        l1hit = np.zeros(b - a, bool)
        if eidx.size:
            resident = (vs.member(self.l1_tab.keys, ekeys)
                        | vs.has_prior(ekeys, eidx))
            phit = resident[eprobe]
            r.l1["hits"] += int(np.count_nonzero(phit))
            r.l1["misses"] += int(phit.size - np.count_nonzero(phit))
            l1hit[eidx[eprobe][phit] - a] = True
            was_new = self.l1_tab.merge(ekeys, eidx)
            r.l1["fills"] += int(np.count_nonzero(was_new))
        ld = np.flatnonzero(self.lm[a:b]) + a
        return ld[~l1hit[ld - a]]

    def _l2_pass(self, a, b, al):
        """Chase every alive load down the cache/home hierarchy.

        Returns the epoch's combined L2 residency events (store-path
        plus load fills) and the directory sharer-registration adds.
        """
        cfg, p, name, r = self.cfg, self.p, self.name, self.r
        T, G, LS = self.T, self.G, self.LS
        tr = r.traffic
        hdr = cfg.message_sizes.request_header
        data_size = cfg.message_sizes.data_payload_extra + LS
        l2h, dramlat = float(cfg.latency.l2_hit), float(cfg.latency.dram_access)
        hop_gpm = 2.0 * cfg.latency.inter_gpm_hop
        hop_gpu = 2.0 * cfg.latency.inter_gpu_hop

        slo = np.searchsorted(self.st_pos, a)
        shi = np.searchsorted(self.st_pos, b)
        keys = self.st_keys[slo:shi]
        poss = self.st_pos[slo:shi]
        vals = self.st_val[slo:shi]
        adds = []

        n, line, sh, gh = p.n[al], p.line[al], p.sh[al], p.gh[al]
        sc = p.sc[al]
        hop = p.hop_nh[al].astype(np.float64)
        lat = np.full(al.size, float(cfg.latency.l1_hit))

        def probe(q_keys, q_pos):
            """Membership against table state + all earlier epoch
            events, appending the probes themselves to the stream
            (they leave the line resident either way)."""
            nonlocal keys, poss, vals
            base = vs.member(self.l2_tab.keys, q_keys)
            keys = np.concatenate([keys, q_keys])
            poss = np.concatenate([poss, q_pos])
            vals = np.concatenate([vals, np.zeros(q_keys.size, np.int64)])
            return base | vs.has_prior(keys, poss)[keys.size - q_keys.size:]

        # -- local stage ----------------------------------------------
        if name == "noremote":
            locm = self.cacheable[al]
            may = locm & ((sc == _CTA) | (n == sh))
            res = np.zeros(al.size, bool)
            if locm.any():
                res[locm] = probe(vs.make_keys(n[locm], line[locm]), al[locm])
            lhit = may & res
            r.l2_bytes += _bc(T, n[may]) * LS
            lat[may] += l2h
            r.l2c["hits"] += int(np.count_nonzero(lhit))
            r.l2c["misses"] += int(np.count_nonzero(may) -
                                   np.count_nonzero(lhit))
        else:
            if name in ("sw", "nhcc", "gpuvi"):
                may = (sc == _CTA) | (n == sh)
            elif name == "ideal":
                may = np.ones(al.size, bool)
            else:  # hsw / hmg scope gating
                may = ((sc == _CTA)
                       | ((sc == _GPU) & ((n == gh) | (n == sh)))
                       | ((sc == _SYS) & (n == sh)))
            res = probe(vs.make_keys(n, line), al)
            lhit = may & res
            r.l2_bytes += _bc(T, n) * LS
            lat += l2h
            r.l2c["hits"] += int(np.count_nonzero(lhit))
            r.l2c["misses"] += int(al.size - np.count_nonzero(lhit))

        miss = ~lhit
        m0 = miss & (n == sh)
        r.dram_reads += _bc(T, n[m0]) * LS
        lat[m0] += dramlat

        if not self.hier:
            rm = np.flatnonzero(miss & (n != sh))
            if rm.size:
                nr, shr, liner = n[rm], sh[rm], line[rm]
                r.stats.remote_gpu_loads += int(np.count_nonzero(
                    nr // G != shr // G))
                tr.send(MsgType.LOAD_REQ, nr, shr, size=hdr)
                r.l2_bytes += _bc(T, shr) * LS
                lat[rm] += 2.0 * hop[rm] + l2h
                hh = probe(vs.make_keys(shr, liner), al[rm])
                r.l2c["hits"] += int(np.count_nonzero(hh))
                r.l2c["misses"] += int(hh.size - np.count_nonzero(hh))
                hm = ~hh
                r.dram_reads += _bc(T, shr[hm]) * LS
                lat[rm[hm]] += dramlat
                tr.send(MsgType.DATA_RESP, shr, nr, size=data_size)
                if name in ("nhcc", "gpuvi"):
                    r.l2_bytes += _bc(T, nr) * LS
                    adds.append((vs.make_keys(shr, p.sector[al][rm]),
                                 np.int64(1) << nr, al[rm]))
                elif name == "noremote":
                    cr = nr // G == shr // G
                    r.l2_bytes += _bc(T, nr[cr]) * LS
        else:
            sect = p.sector[al]
            t1m = miss & (n != sh) & (n != gh)
            t1 = np.flatnonzero(t1m)
            t1hit = np.zeros(al.size, bool)
            if t1.size:
                nt, gt = n[t1], gh[t1]
                tr.send(MsgType.LOAD_REQ, nt, gt, size=hdr)
                r.l2_bytes += _bc(T, gt) * LS
                lat[t1] += hop_gpm + l2h
                ghit = probe(vs.make_keys(gt, line[t1]), al[t1])
                if name != "ideal":
                    ghit &= ~((sc[t1] == _SYS) & (gt != sh[t1]))
                r.l2c["hits"] += int(np.count_nonzero(ghit))
                r.l2c["misses"] += int(ghit.size - np.count_nonzero(ghit))
                t1hit[t1[ghit]] = True
                if name == "hmg":
                    adds.append((vs.make_keys(gt, sect[t1]),
                                 np.int64(1) << (nt % G), al[t1]))
            t2 = np.flatnonzero(miss & (n != sh) & (gh != sh)
                                & ((n == gh) | (t1m & ~t1hit)))
            if t2.size:
                gt2, st2 = gh[t2], sh[t2]
                r.stats.remote_gpu_loads += t2.size
                tr.send(MsgType.LOAD_REQ, gt2, st2, size=hdr)
                r.l2_bytes += _bc(T, st2) * LS
                lat[t2] += hop_gpu + l2h
                shit = probe(vs.make_keys(st2, line[t2]), al[t2])
                r.l2c["hits"] += int(np.count_nonzero(shit))
                r.l2c["misses"] += int(shit.size - np.count_nonzero(shit))
                sm = ~shit
                r.dram_reads += _bc(T, st2[sm]) * LS
                lat[t2[sm]] += dramlat
                tr.send(MsgType.DATA_RESP, st2, gt2, size=data_size)
                mg = n[t2] != gt2
                r.l2_bytes += _bc(T, gt2[mg]) * LS
                if name == "hmg":
                    adds.append((vs.make_keys(st2, sect[t2]),
                                 np.int64(1) << (32 + n[t2] // G), al[t2]))
            m3 = t1m & ~t1hit & (gh == sh)
            r.dram_reads += _bc(T, sh[m3]) * LS
            lat[m3] += dramlat
            if t1.size:
                tr.send(MsgType.DATA_RESP, gh[t1], n[t1], size=data_size)

        # Acquires expose their load latency (+ the flash charge when
        # scoped); plain loads never stall the issue pipeline.
        if name != "ideal":
            aqi = np.flatnonzero(p.kind[a:b] == _ACQUIRE) + a
            if aqi.size:
                lat_ops = np.full(b - a, float(cfg.latency.l1_hit))
                lat_ops[al - a] = lat
                extra = ((p.sc[aqi] != _CTA)
                         * float(cfg.timing.bulk_invalidate_cycles))
                r.stall += _bc(T, p.n[aqi], (lat_ops[aqi - a] + extra)
                               / cfg.timing.latency_tolerance)
        return keys, poss, vals, adds

    # -- directory pass ------------------------------------------------

    def _dir_pass(self, a, b, adds):
        """Replay the epoch's sharer registrations (from remote loads)
        and store-side ownership updates against the directory table.

        Within an epoch the first update of a sector sees the start
        state plus every epoch registration at once; later updates of
        the same sector see the previous update's owner (the ping-pong
        approximation of DESIGN §15).
        """
        cfg, r = self.cfg, self.r
        lo = np.searchsorted(self.up_pos, a)
        hi = np.searchsorted(self.up_pos, b)
        if adds:
            ak = np.concatenate([k for k, _, _ in adds])
            av = np.concatenate([v for _, v, _ in adds])
            apos = np.concatenate([q for _, _, q in adds])
            aku, avu = _or_key_reduce(ak, av)
        else:
            ak = av = apos = aku = avu = np.empty(0, np.int64)
        prov = None
        if self.name == "hmg":
            pk = np.concatenate([self.dir_tab.keys, aku])
            pv = np.concatenate([self.dir_tab.val, avu])
            prov = _or_key_reduce(pk, pv) if pk.size else (pk, pv)

        removed = []
        if hi > lo:
            uk = self.up_key[lo:hi]
            upos = self.up_pos[lo:hi]
            order = np.lexsort((upos, uk))
            ku, qu = uk[order], upos[order]
            me_o = self.up_me[lo:hi][order]
            hl_o = self.up_hl[lo:hi][order]
            first = np.empty(ku.size, bool)
            first[0] = True
            first[1:] = ku[1:] != ku[:-1]
            start_val = _lookup_val(self.dir_tab.keys, self.dir_tab.val, ku)
            epoch_adds = _lookup_val(aku, avu, ku)
            cur_after = np.where(hl_o, 0, me_o)
            prev_after = np.empty_like(cur_after)
            prev_after[0] = 0
            prev_after[1:] = cur_after[:-1]
            cur_before = np.where(first, start_val | epoch_adds, prev_after)
            others = cur_before & ~me_o
            shared = others != 0
            r.stats.stores_on_shared += int(np.count_nonzero(shared))
            acks = self._fanout(ku[shared], others[shared], "store",
                                prov, removed)
            if self.name == "gpuvi" and acks is not None and acks.size:
                self._gpuvi_stalls(lo, hi, order, shared, acks)
            # Fold the epoch's end state back into the table: the last
            # update of each sector owns it (home-local stores remove
            # the entry outright).
            last = np.empty(ku.size, bool)
            last[:-1] = first[1:]
            last[-1] = True
            end = last & ~hl_o
            self.dir_tab.drop_keys(ku)
            if end.any():
                ak = np.concatenate([ak, ku[end]])
                apos = np.concatenate([apos, qu[end]])
                av = np.concatenate([av, me_o[end]])
        if removed:
            self.dir_tab.drop_keys(np.concatenate(removed))
            removed = []
        if ak.size:
            self.dir_tab.merge(ak, apos, av)
        # Directory capacity: evicted entries with sharers fan out
        # invalidations exactly like stores (Fig 10's traffic source).
        du = vs.units_of(self.dir_tab.keys)
        ds = vs.items_of(self.dir_tab.keys)
        gid = du * self.dir_sets + batchmap.dir_set_of(ds, self.dir_sets)
        vk, vv = self.dir_tab.capacity_evict(gid, cfg.dir_ways)
        live = vv != 0
        if live.any():
            r.stats.dir_evictions += int(np.count_nonzero(live))
            self._fanout(vk[live], vv[live], "evict", prov, removed)
            if removed:
                self.dir_tab.drop_keys(np.unique(np.concatenate(removed)))

    def _sector_keys(self, target_units, sects):
        """L2 table keys of every line of ``sects`` at the targets."""
        SPL = self.SPL
        lines = (sects[:, None] * SPL + np.arange(SPL)).ravel()
        units = np.repeat(target_units, SPL)
        return vs.make_keys(units, lines)

    def _fanout(self, keys, masks, cause, prov, removed):
        """Deliver invalidations for each (directory key, sharer mask)
        event.  Returns per-event farthest-ack latencies for GPU-VI."""
        cfg, r = self.cfg, self.r
        T, G = self.T, self.G
        tr = r.traffic
        inv_sz = cfg.message_sizes.invalidation
        ack_sz = cfg.message_sizes.acknowledgment
        units = vs.units_of(keys)
        sects = vs.items_of(keys)
        victims = []
        acks = None
        if self.name in ("nhcc", "gpuvi"):
            if self.name == "gpuvi":
                acks = np.zeros(keys.size, np.float64)
            for bit in range(T):
                sel = ((masks >> bit) & 1).astype(bool) & (units != bit)
                if not sel.any():
                    continue
                usel = units[sel]
                tgt = np.full(usel.size, bit, np.int64)
                tr.send(MsgType.INVALIDATION, usel, tgt, size=inv_sz)
                victims.append(self._sector_keys(tgt, sects[sel]))
                if acks is not None:
                    tr.send(MsgType.INV_ACK, tgt, usel, size=ack_sz)
                    rtt = np.where(usel // G == bit // G,
                                   2.0 * cfg.latency.inter_gpm_hop,
                                   2.0 * cfg.latency.inter_gpu_hop)
                    acks[sel] = np.maximum(acks[sel], rtt)
        else:  # hmg
            for bit in range(G):
                sel = ((masks >> bit) & 1).astype(bool)
                if not sel.any():
                    continue
                usel = units[sel]
                tgt = (usel // G) * G + bit
                keep = tgt != usel
                if keep.any():
                    tr.send(MsgType.INVALIDATION, usel[keep], tgt[keep],
                            size=inv_sz)
                    victims.append(self._sector_keys(tgt[keep],
                                                     sects[sel][keep]))
            for g in range(cfg.num_gpus):
                sel = ((masks >> (32 + g)) & 1).astype(bool)
                if not sel.any():
                    continue
                usel, ssel = units[sel], sects[sel]
                peer = g * G + batchmap.home_gpm_of_sectors(ssel, G)
                tr.send(MsgType.INVALIDATION, usel, peer, size=inv_sz)
                victims.append(self._sector_keys(peer, ssel))
                # The peer GPU home forwards to its own GPM sharers and
                # drops its directory entry (Table I's HMG transition).
                pk = vs.make_keys(peer, ssel)
                pv = _lookup_val(prov[0], prov[1], pk)
                for m in range(G):
                    s2 = ((pv >> m) & 1).astype(bool)
                    if not s2.any():
                        continue
                    inner = np.full(int(s2.sum()), g * G + m, np.int64)
                    fwd = inner != peer[s2]
                    if fwd.any():
                        tr.send(MsgType.INVALIDATION, peer[s2][fwd],
                                inner[fwd], size=inv_sz)
                        victims.append(self._sector_keys(inner[fwd],
                                                         ssel[s2][fwd]))
                removed.append(pk)
        dropped = (self.l2_tab.drop_keys(np.concatenate(victims))
                   if victims else 0)
        if cause == "store":
            r.stats.lines_inv_by_store += dropped
        else:
            r.stats.lines_inv_by_dir_evict += dropped
        r.l2c["invalidated_lines"] += dropped
        return acks

    def _gpuvi_stalls(self, lo, hi, order, shared, acks):
        """Multi-copy-atomic exposure: ops whose store fanned out
        invalidations stall for the farthest ack round trip (hidden by
        the transient-state factor).  Releases already charged their
        unloaded store latency in the static pass; the ack wait
        replaces it."""
        cfg, r = self.cfg, self.r
        hidden = acks / cfg.timing.mca_transient_hiding
        k = self.up_kind[lo:hi][order][shared]
        n = self.up_n[lo:hi][order][shared]
        hop = self.up_hop[lo:hi][order][shared]
        base = float(cfg.latency.l1_hit + cfg.latency.l2_hit)
        stall = np.where(
            k == _STORE, hidden,
            np.where(k == _ATOMIC,
                     float(cfg.latency.l2_hit) + 2.0 * hop + hidden,
                     hidden - (base + hop)))
        r.stall += _bc(self.T, n, stall / cfg.timing.latency_tolerance)

    # -- epoch-end state folding ---------------------------------------

    def _flashes(self, a, b):
        """Apply the epoch's software flash events position-aware: an
        entry survives a flash when it was (re)touched after the last
        flash of its unit."""
        r = self.r
        # L1 slice flashes.
        sel = (self.fl1_pos >= a) & (self.fl1_pos < b)
        if sel.any() and self.l1_tab.keys.size:
            uu, lastp = _last_pos_per_unit(self.fl1_unit[sel],
                                           self.fl1_pos[sel])
            tunit = vs.units_of(self.l1_tab.keys)
            idx = np.searchsorted(uu, tunit)
            idx[idx >= uu.size] = uu.size - 1
            match = uu[idx] == tunit
            drop = match & (self.l1_tab.pos < lastp[idx])
            cnt = self.l1_tab.drop(drop)
            r.l1["invalidated_lines"] += cnt
            r.stats.lines_inv_by_acquire += cnt
        # Predicate-classed L2 sweeps.
        sel = (self.sw_pos >= a) & (self.sw_pos < b)
        if not (sel.any() and self.l2_tab.keys.size):
            return
        G = self.G
        tk = self.l2_tab.keys
        tunit = vs.units_of(tk)
        tline = vs.items_of(tk)
        tsh = batchmap.owners_of_pages(
            self.p.upages, self.p.owners, tline // self.cfg.lines_per_page)
        if self.name == "hsw":
            tsect = tline // self.SPL
            gpu_home = np.where(tsh // G == tunit // G, tsh,
                                (tunit // G) * G
                                + batchmap.home_gpm_of_sectors(tsect, G))
            preds = {1: gpu_home != tunit,
                     2: (tsh // G != tunit // G) | (gpu_home != tunit),
                     3: tsh // G != tunit // G}
        else:
            preds = {0: tsh != tunit}
        drop = np.zeros(tk.size, bool)
        for cls, pred in preds.items():
            csel = sel & (self.sw_cls == cls)
            if not csel.any():
                continue
            uu, lastp = _last_pos_per_unit(self.sw_unit[csel],
                                           self.sw_pos[csel])
            idx = np.searchsorted(uu, tunit)
            idx[idx >= uu.size] = uu.size - 1
            match = uu[idx] == tunit
            drop |= match & (self.l2_tab.pos < lastp[idx]) & pred
        cnt = self.l2_tab.drop(drop)
        r.l2c["invalidated_lines"] += cnt
        r.stats.lines_inv_by_acquire += cnt

    def _magic(self, a, b):
        """Ideal's oracle: a store wipes every other copy of its line,
        machine-wide, for free."""
        sel = (self.mi_pos >= a) & (self.mi_pos < b)
        if not sel.any():
            return
        ul, lastp = _last_pos_per_unit(self.mi_line[sel], self.mi_pos[sel])
        for tab, counter in ((self.l1_tab, self.r.l1),
                             (self.l2_tab, self.r.l2c)):
            if not tab.keys.size:
                continue
            tline = vs.items_of(tab.keys)
            idx = np.searchsorted(ul, tline)
            idx[idx >= ul.size] = ul.size - 1
            match = ul[idx] == tline
            counter["invalidated_lines"] += tab.drop(
                match & (tab.pos < lastp[idx]))

    def _capacity(self):
        """Epoch-end capacity enforcement: LRU within each set, dirty
        L2 victims write back to their own DRAM partition."""
        cfg, r = self.cfg, self.r
        if self.l1_tab.keys.size:
            u = vs.units_of(self.l1_tab.keys)
            ln = vs.items_of(self.l1_tab.keys)
            gid = u * self.l1_sets + batchmap.cache_set_of(ln, self.l1_sets)
            vk, _ = self.l1_tab.capacity_evict(gid, cfg.l1_ways)
            r.l1["evictions"] += int(vk.size)
        if self.l2_tab.keys.size:
            u = vs.units_of(self.l2_tab.keys)
            ln = vs.items_of(self.l2_tab.keys)
            gid = u * self.l2_sets + batchmap.cache_set_of(ln, self.l2_sets)
            vk, vv = self.l2_tab.capacity_evict(gid, cfg.l2_ways)
            r.l2c["evictions"] += int(vk.size)
            dirty = (vv & 1) != 0
            if dirty.any():
                r.l2c["dirty_evictions"] += int(np.count_nonzero(dirty))
                r.dram_writes += _bc(self.T, vs.units_of(vk[dirty])) \
                    * self.LS


# ---------------------------------------------------------------------------
# Engine front-end
# ---------------------------------------------------------------------------

class VectorizedThroughputEngine:
    """Batch twin of :class:`repro.engine.throughput.ThroughputEngine`.

    Consumes a :class:`repro.trace.batch.BatchTrace` (decoded straight
    from the binary trace cache when available) and produces a
    :class:`SimResult` with the same shape and resource model as the
    scalar engine; :mod:`repro.engine.equivalence` bounds the drift of
    every field.
    """

    name = "vectorized"

    def __init__(self, cfg, fault_plan=None):
        self.cfg = cfg
        self.fault_plan = fault_plan

    def run(self, protocol_name: str, trace, workload_name: str = "trace",
            placement: str = "first_touch") -> SimResult:
        if protocol_name not in VECTORIZED_PROTOCOLS:
            raise ValueError(
                f"protocol {protocol_name!r} has no vectorized model; "
                "use the scalar throughput engine"
            )
        cfg = self.cfg
        batch = as_batch(trace)
        p = _prepare(batch, cfg, placement,
                     cta_atomics_place=protocol_name == "ideal")
        r = _Run(cfg)
        # The wall timer covers the accounting passes only (the scalar
        # engine likewise times just its per-op loop); trace decode and
        # geometry prep are memoized on the batch across runs.
        start = time.perf_counter()
        _static_charges(cfg, p, protocol_name, r)
        _EpochSim(cfg, p, protocol_name, r).run()
        wall_seconds = time.perf_counter() - start

        T = cfg.total_gpms
        ops_per_gpm = _bc(T, p.n)
        issue = (ops_per_gpm / cfg.timing.issue_rate_per_gpm
                 + r.stall
                 + r.bulk_invs * cfg.timing.bulk_invalidate_cycles)
        l2 = (r.l2_bytes / cfg.timing.l2_bytes_per_cycle).tolist()
        dram = ((r.dram_reads + r.dram_writes)
                / cfg.dram_bytes_per_cycle_per_gpm).tolist()
        xbar = (r.traffic.xbar / cfg.inter_gpm_bytes_per_cycle).tolist()
        link = [max(int(r.traffic.link_out[g]), int(r.traffic.link_in[g]))
                / cfg.inter_gpu_bytes_per_cycle
                for g in range(cfg.num_gpus)]
        l2, dram, xbar, link = apply_fault_expansion(
            self.fault_plan, l2, dram, xbar, link)
        resources = ResourceTimes(issue=issue.tolist(), l2=l2, dram=dram,
                                  xbar=xbar, link=link)
        cycles = max(resources.total_cycles(cfg.timing.overlap_tax), 1.0)

        stats = r.stats
        stats.msg_counts = dict(r.traffic.counts)
        stats.msg_bytes = dict(r.traffic.bytes)
        degradation = None
        plan = self.fault_plan
        if plan is not None and plan.message_loss is not None:
            total_messages = sum(
                stats.msg_counts.get(m, 0)
                for m in (MsgType.LOAD_REQ, MsgType.STORE_REQ)
            )
            degradation = DegradationStats(
                **plan.expected_loss_counters(total_messages)
            )
        return SimResult(
            protocol_name=protocol_name,
            workload_name=workload_name,
            cfg=cfg,
            cycles=cycles,
            resources=resources,
            stats=stats,
            l1_stats=CacheStats(**r.l1),
            l2_stats=CacheStats(**r.l2c),
            dram_bytes=int(r.dram_reads.sum() + r.dram_writes.sum()),
            ops=len(batch),
            link_bytes=[
                (int(r.traffic.link_out[g]), int(r.traffic.link_in[g]))
                for g in range(cfg.num_gpus)
            ],
            xbar_bytes=[int(x) for x in r.traffic.xbar],
            wall_seconds=wall_seconds,
            degradation=degradation,
        )
