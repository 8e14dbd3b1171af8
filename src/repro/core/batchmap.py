"""Vectorized address → line/page/sector/home mapping.

Array twins of the scalar mapping functions used on the coherence hot
path — :mod:`repro.memsys.address` (line/page/sector arithmetic),
:meth:`repro.memsys.cache.SetAssociativeCache.set_index` /
:meth:`repro.core.directory.Directory.set_index` (the Fibonacci-hash
set spreaders), :func:`repro.memsys.page_table.home_gpm_of_sector`
(the sector → GPM spreader), and the three page-placement policies of
:class:`repro.memsys.page_table.PageTable`.

Every function here must stay bit-identical to its scalar twin: the
vectorized engine's equivalence gate relies on homes, set indices and
placement being *exact*, with only stateful quantities (hits,
evictions, sharer sets) carrying epoch-granularity tolerances.
"""

from __future__ import annotations

import numpy as np

#: 64-bit Fibonacci multiplier used by both cache and directory set
#: hashes (mirrors ``repro.memsys.cache``).
_FIB = 0x9E3779B97F4A7C15
_MASK64 = 0xFFFFFFFFFFFFFFFF


def narrow(values: np.ndarray, max_value: int) -> np.ndarray:
    """``values`` (all in ``0..max_value``) in the smallest unsigned
    dtype that holds ``max_value``.  Arithmetic on the result stays in
    that dtype under numpy 2, so cast back before computing with it."""
    return values.astype(np.min_scalar_type(max_value))


def lines_of(addresses: np.ndarray, line_bits: int) -> np.ndarray:
    """Byte addresses → cache line indices (int64)."""
    return (addresses >> np.uint64(line_bits)).astype(np.int64)


def pages_of_lines(lines: np.ndarray, lines_per_page: int) -> np.ndarray:
    """Line indices → page indices."""
    return lines // lines_per_page


def sectors_of_lines(lines: np.ndarray, lines_per_sector: int) -> np.ndarray:
    """Line indices → directory sector indices."""
    return lines // lines_per_sector


def home_gpm_of_sectors(sectors: np.ndarray, gpms_per_gpu: int) -> np.ndarray:
    """Sector → owning GPM within a GPU.

    Twin of ``repro.memsys.page_table.home_gpm_of_sector``:
    ``((s ^ (s >> 7) ^ (s >> 13)) & 0x7FFFFFFF) % gpms_per_gpu``.
    """
    s = sectors.astype(np.int64)
    mixed = (s ^ (s >> 7) ^ (s >> 13)) & 0x7FFFFFFF
    return mixed % gpms_per_gpu


def _fib_spread(values: np.ndarray) -> np.ndarray:
    """The shared ``(v * FIB) >> 33`` spreader, as unsigned 64-bit."""
    mixed = (values.astype(np.uint64) * np.uint64(_FIB)) & np.uint64(_MASK64)
    return mixed >> np.uint64(33)


def cache_set_of(lines: np.ndarray, num_sets: int) -> np.ndarray:
    """Line → L1/L2 set index (twin of ``SetAssociativeCache.set_index``:
    mask when ``num_sets`` is a power of two, modulo otherwise)."""
    spread = _fib_spread(lines)
    if num_sets & (num_sets - 1) == 0:
        return (spread & np.uint64(num_sets - 1)).astype(np.int64)
    return (spread % np.uint64(num_sets)).astype(np.int64)


def dir_set_of(sectors: np.ndarray, num_sets: int) -> np.ndarray:
    """Sector → directory set index (twin of ``Directory.set_index``:
    always modulo)."""
    return (_fib_spread(sectors) % np.uint64(num_sets)).astype(np.int64)


def first_touch_owners(pages: np.ndarray, flats: np.ndarray,
                       eligible: np.ndarray):
    """First-touch page placement over a whole trace.

    ``eligible`` masks the ops that would call ``sys_home`` in the
    scalar engines (everything except kernel boundaries, which carry no
    address).  The first eligible op touching a page places it on that
    op's node, exactly like the memoized scalar
    ``PageTable.sys_home``.

    Returns ``(upages, owners)``: sorted unique page indices and the
    flat GPM index owning each.  Look up per-op (or per-line) homes
    with :func:`owners_of_pages`.
    """
    cand = pages[eligible]
    upages, first = np.unique(cand, return_index=True)
    idx = np.flatnonzero(eligible)[first]
    return upages, flats[idx]


def owners_of_pages(upages: np.ndarray, owners: np.ndarray,
                    pages: np.ndarray) -> np.ndarray:
    """Map page indices through a ``(upages, owners)`` placement table.

    Pages absent from the table (only possible for address-less kernel
    boundary ops) map to flat GPM 0 — scalar code never asks for them.
    """
    idx = np.searchsorted(upages, pages)
    idx[idx >= upages.size] = 0
    hit = upages[idx] == pages
    out = owners[idx]
    out[~hit] = 0
    return out


def placement_owners(placement: str, pages: np.ndarray, flats: np.ndarray,
                     kinds: np.ndarray, kb_kind: int,
                     num_gpus: int, gpms_per_gpu: int,
                     eligible: np.ndarray = None):
    """Unique-page owner table for any of the three placement policies.

    Mirrors :class:`repro.memsys.page_table.PageTable`:

    * ``first_touch`` — page goes to the node of its first toucher;
    * ``interleave`` — ``gpu = page % num_gpus``,
      ``gpm = (page // num_gpus) % gpms_per_gpu``;
    * ``single:<g>`` — ``gpu = g``, ``gpm = page % gpms_per_gpu``.

    ``eligible`` overrides the default placing mask (everything but
    kernel boundaries) for protocols whose scalar twins satisfy some
    ops without ever consulting the page table.
    """
    if placement == "first_touch":
        if eligible is None:
            eligible = kinds != kb_kind
        return first_touch_owners(pages, flats, eligible)
    upages = np.unique(pages)
    if placement == "interleave":
        gpu = upages % num_gpus
        gpm = (upages // num_gpus) % gpms_per_gpu
    elif placement.startswith("single"):
        _, _, arg = placement.partition(":")
        gpu = np.full(upages.shape, int(arg) if arg else 0, np.int64)
        gpm = upages % gpms_per_gpu
    else:
        raise ValueError(f"unknown placement policy: {placement!r}")
    return upages, gpu * gpms_per_gpu + gpm
