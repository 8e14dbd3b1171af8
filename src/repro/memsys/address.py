"""Address arithmetic and home-node mapping.

Memory is carved into 128 B cache lines and large pages (2 MB in the
paper).  Pages are placed on a GPU by a NUMA policy
(:mod:`repro.memsys.page_table`); *within* the owning GPU, lines
interleave across GPM DRAM partitions by a hash.  The same hash defines
the *GPU home node* for the address inside every other GPU, so HMG's
per-GPU home nodes line up structurally across the machine (Section V-A).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import SystemConfig
from repro.core.types import NodeId


def _log2(n: int) -> int:
    if n <= 0 or n & (n - 1):
        raise ValueError(f"{n} is not a positive power of two")
    return n.bit_length() - 1


@dataclass(frozen=True)
class AddressMap:
    """Pure address arithmetic derived from a :class:`SystemConfig`."""

    line_size: int
    page_size: int
    gpms_per_gpu: int
    dir_lines_per_entry: int

    @classmethod
    def from_config(cls, cfg: SystemConfig) -> "AddressMap":
        return cls(
            line_size=cfg.line_size,
            page_size=cfg.page_size,
            gpms_per_gpu=cfg.gpms_per_gpu,
            dir_lines_per_entry=cfg.dir_lines_per_entry,
        )

    def __post_init__(self):
        if self.page_size % self.line_size:
            raise ValueError("page size must be a multiple of line size")
        # Precomputed shift/divisor constants: every simulated op runs
        # through line_of/page_of_line/sector_of_line, so the log2s are
        # taken once here instead of per call.
        s = object.__setattr__
        s(self, "_line_bits", _log2(self.line_size))
        s(self, "_sector_bits", _log2(self.dir_lines_per_entry))
        s(self, "_lines_per_page", self.page_size // self.line_size)

    # -- line/page decomposition --------------------------------------

    @property
    def line_bits(self) -> int:
        return self._line_bits

    @property
    def sector_bits(self) -> int:
        """``log2(dir_lines_per_entry)``: ``line >> sector_bits`` is
        :meth:`sector_of_line`."""
        return self._sector_bits

    def line_of(self, address: int) -> int:
        """Cache-line index containing a byte address."""
        return address >> self._line_bits

    def line_address(self, line: int) -> int:
        """Base byte address of a line index."""
        return line << self._line_bits

    def page_of(self, address: int) -> int:
        """Page index containing a byte address."""
        return address // self.page_size

    def page_of_line(self, line: int) -> int:
        """Page index containing a line."""
        return line // self._lines_per_page

    def page_base(self, page: int) -> int:
        """Base byte address of a page."""
        return page * self.page_size

    def lines_in_page(self, page: int):
        """Iterate over all line indices of a page."""
        first = self.line_of(self.page_base(page))
        count = self.page_size // self.line_size
        return range(first, first + count)

    # -- directory sectoring -------------------------------------------

    def sector_of_line(self, line: int) -> int:
        """Directory-entry (sector) index covering a line.

        One directory entry tracks ``dir_lines_per_entry`` consecutive
        lines (4 in Table II), trading entry count for false sharing.
        """
        return line >> self._sector_bits

    def lines_in_sector(self, sector: int):
        """The consecutive lines one directory entry covers."""
        base = sector * self.dir_lines_per_entry
        return range(base, base + self.dir_lines_per_entry)

    # -- home mapping ----------------------------------------------------

    def home_gpm_index(self, line: int) -> int:
        """GPM index hosting the *GPU home node* for this line inside a
        non-owning GPU (Section V-A).

        The owning GPU needs no hash — its GPU home node is simply the
        GPM whose DRAM holds the page (first-touch placement); see
        :meth:`CoherenceProtocol.gpu_home`.  Inside every other GPU, a
        designated GPM is chosen by this hash, the same one in each GPU.
        The sector (not the raw line) is hashed so that all lines
        covered by one directory entry share one home.
        """
        sector = self.sector_of_line(line)
        return self.home_gpm_of_sector(sector)

    def home_gpm_of_sector(self, sector: int) -> int:
        """Designated-GPM hash at directory-sector granularity."""
        mixed = (sector ^ (sector >> 7) ^ (sector >> 13)) & 0x7FFFFFFF
        return mixed % self.gpms_per_gpu

    def gpu_home(self, line: int, gpu: int, owner: NodeId) -> NodeId:
        """GPU home node for this line inside GPU ``gpu``, given the
        system home (page owner) ``owner``."""
        if gpu == owner.gpu:
            return owner
        return NodeId(gpu, self.home_gpm_index(line))


@dataclass
class Region:
    """A contiguous, page-aligned allocation in the global address space."""

    name: str
    base: int
    size: int

    @property
    def end(self) -> int:
        return self.base + self.size

    def contains(self, address: int) -> bool:
        """True if the byte address falls inside the region."""
        return self.base <= address < self.end

    def offset(self, byte_offset: int) -> int:
        """Absolute address of a byte offset within the region."""
        if not 0 <= byte_offset < self.size:
            raise IndexError(
                f"offset {byte_offset} outside region {self.name!r} of {self.size}B"
            )
        return self.base + byte_offset


class AddressSpace:
    """Page-aligned bump allocator for synthetic workload data structures.

    Trace generators allocate named regions (weight matrices, graph CSR
    arrays, halo buffers, ...) and address them by offset, mirroring how
    a real allocator lays out a program's footprint.
    """

    def __init__(self, page_size: int, base: int = 0):
        if page_size <= 0:
            raise ValueError("page_size must be positive")
        self._page_size = page_size
        self._next = self._round_up(base)
        self._regions: dict[str, Region] = {}

    def _round_up(self, address: int) -> int:
        return -(-address // self._page_size) * self._page_size

    def allocate(self, name: str, size: int) -> Region:
        """Reserve a new page-aligned region."""
        if size <= 0:
            raise ValueError("allocation size must be positive")
        if name in self._regions:
            raise ValueError(f"region {name!r} already allocated")
        region = Region(name, self._next, size)
        self._regions[name] = region
        self._next = self._round_up(region.end)
        return region

    def region(self, name: str) -> Region:
        """Look up a previously allocated region by name."""
        return self._regions[name]

    @property
    def regions(self) -> dict:
        return dict(self._regions)

    @property
    def footprint(self) -> int:
        """Total bytes allocated, including page-alignment padding."""
        return self._next
