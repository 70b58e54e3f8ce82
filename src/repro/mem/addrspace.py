"""Simulated address space and buffer allocation.

Workloads allocate :class:`Buffer` objects from a shared
:class:`AddressSpace` (one per simulated node) with a simple bump
allocator. Buffers are line-aligned and never overlap, mirroring distinct
``malloc`` regions in the paper's threads; this is what guarantees that an
interference thread and the application never share cache lines.

On multi-socket nodes the address space additionally assigns every page a
*home socket* via a placement policy (the NUMA page-placement model the
:class:`~repro.engine.node.NodeSimulator` consumes):

- ``first_touch`` — a page is homed on the socket of the thread that
  allocates it (the simulator's stand-in for "the thread that initialises
  the buffer", which is how Linux first-touch behaves for apps that
  initialise their own data);
- ``interleave`` — pages are homed round-robin across sockets
  (``numactl --interleave``).

Single-domain spaces (the default) home everything on socket 0 and the
placement machinery is inert.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import AllocationError, ConfigError

#: Placement policies understood by :class:`AddressSpace`.
PLACEMENT_POLICIES = ("first_touch", "interleave")


@dataclass(frozen=True)
class Buffer:
    """A contiguous allocation in the simulated address space.

    ``base`` is a byte address, always line aligned. Index helpers convert
    element indices into **line addresses**, the unit the simulator
    consumes.
    """

    base: int
    size_bytes: int
    elem_bytes: int
    line_shift: int
    label: str = ""

    @property
    def n_elems(self) -> int:
        return self.size_bytes // self.elem_bytes

    @property
    def n_lines(self) -> int:
        """Number of distinct cache lines the buffer spans."""
        line = 1 << self.line_shift
        return (self.size_bytes + line - 1) >> self.line_shift

    @property
    def base_line(self) -> int:
        return self.base >> self.line_shift

    @property
    def end(self) -> int:
        return self.base + self.size_bytes

    def line_of_index(self, idx: int) -> int:
        """Line address of element ``idx`` (scalar)."""
        if not 0 <= idx < self.n_elems:
            raise IndexError(f"index {idx} out of range for {self.label or 'buffer'}")
        return (self.base + idx * self.elem_bytes) >> self.line_shift

    def lines_of_indices(self, idx: np.ndarray) -> np.ndarray:
        """Vectorised ``line_of_index`` for an int array (no bounds check:
        generators produce in-range indices by construction)."""
        return (self.base + idx.astype(np.int64) * self.elem_bytes) >> self.line_shift

    def sequential_lines(self) -> np.ndarray:
        """All line addresses of the buffer in layout order."""
        return np.arange(self.base_line, self.base_line + self.n_lines, dtype=np.int64)


class AddressSpace:
    """Bump allocator over a flat byte-addressed space.

    ``n_domains``/``placement``/``page_bytes`` configure NUMA page
    placement (see module docstring); the single-domain default keeps
    every page homed on socket 0.
    """

    #: Initial page-home table capacity (pages); doubled on demand.
    _PAGE_CAP0 = 1 << 12

    def __init__(
        self,
        line_bytes: int = 64,
        capacity_bytes: int = 1 << 44,
        *,
        n_domains: int = 1,
        placement: str = "first_touch",
        page_bytes: int = 4096,
    ):
        if line_bytes & (line_bytes - 1):
            raise ValueError("line size must be a power of two")
        if n_domains < 1:
            raise ConfigError(f"n_domains must be >= 1, got {n_domains}")
        if placement not in PLACEMENT_POLICIES:
            raise ConfigError(
                f"unknown placement {placement!r}; pick one of {PLACEMENT_POLICIES}"
            )
        if page_bytes & (page_bytes - 1) or page_bytes < line_bytes:
            raise ConfigError(
                f"page_bytes must be a power of two >= line size, got {page_bytes}"
            )
        self.line_bytes = line_bytes
        self.line_shift = line_bytes.bit_length() - 1
        self.capacity_bytes = capacity_bytes
        self.n_domains = n_domains
        self.placement = placement
        self.page_bytes = page_bytes
        self.page_shift = page_bytes.bit_length() - 1
        #: Page index of a line address = line_addr >> this.
        self.page_line_shift = self.page_shift - self.line_shift
        # Start allocations away from address 0 so line address 0 never
        # collides with sentinel values inside the fast path.
        self._next = line_bytes
        self._allocs: list[Buffer] = []
        #: Socket whose thread is currently allocating (first-touch home).
        self._touch_socket = 0
        #: page index -> home socket; -1 = never allocated (homed 0).
        self._page_home = np.full(self._PAGE_CAP0, -1, dtype=np.int64)

    @property
    def used_bytes(self) -> int:
        return self._next

    def alloc(
        self,
        size_bytes: int,
        elem_bytes: int = 4,
        label: str = "",
        home: int | None = None,
    ) -> Buffer:
        """Allocate a line-aligned buffer of ``size_bytes``.

        ``elem_bytes`` sets the granularity of index->address conversion
        (4 for the paper's ``int`` buffers, 8 for ``long long``).
        ``home`` overrides the placement policy for this buffer's pages
        (explicit pinning, like ``numactl --membind``).
        """
        if size_bytes <= 0:
            raise AllocationError(f"allocation size must be positive, got {size_bytes}")
        if elem_bytes <= 0 or size_bytes % elem_bytes:
            raise AllocationError(
                f"size {size_bytes} is not a multiple of elem_bytes {elem_bytes}"
            )
        base = self._next
        # Round the next pointer up to a line boundary past this buffer and
        # skip one guard line so adjacent buffers never share a cache line.
        # Capacity is checked *before* any allocator state moves: a failed
        # alloc must leave the bump pointer (and used_bytes) untouched.
        end = base + size_bytes
        nxt = _round_up(end, self.line_bytes) + self.line_bytes
        if nxt > self.capacity_bytes:
            raise AllocationError(
                f"address space exhausted: need {size_bytes} bytes at {base}"
            )
        self._next = nxt
        buf = Buffer(
            base=base,
            size_bytes=size_bytes,
            elem_bytes=elem_bytes,
            line_shift=self.line_shift,
            label=label,
        )
        self._allocs.append(buf)
        self._assign_homes(base, end, home)
        return buf

    def alloc_elems(self, n_elems: int, elem_bytes: int = 4, label: str = "") -> Buffer:
        """Allocate by element count instead of bytes."""
        return self.alloc(n_elems * elem_bytes, elem_bytes=elem_bytes, label=label)

    def allocations(self) -> list[Buffer]:
        """All live allocations, in allocation order."""
        return list(self._allocs)

    # -- NUMA page placement -------------------------------------------------

    def align_to_page(self) -> None:
        """Round the bump pointer up to the next page boundary.

        The node simulator calls this at thread boundaries (before each
        thread's ``start``) so that two threads never share a page: real
        first-touch placement acts on pages, and separate threads' heaps
        do not interleave within one page. Without this, the last page of
        one thread's arena would be first-touched by its neighbour and a
        "purely local" placement would leak a little remote traffic.
        """
        self._next = _round_up(self._next, self.page_bytes)

    def set_touch_socket(self, socket_idx: int) -> None:
        """Set the socket whose thread is about to allocate (the
        first-touch home for subsequent pages). The node simulator calls
        this around each thread's ``start``."""
        if not 0 <= socket_idx < self.n_domains:
            raise ConfigError(
                f"touch socket {socket_idx} out of range [0, {self.n_domains})"
            )
        self._touch_socket = socket_idx

    def _assign_homes(self, base: int, end: int, home: int | None) -> None:
        """Home the pages covering ``[base, end)``. First-touch semantics:
        a page already homed (it straddles an earlier allocation) keeps
        its home — only virgin pages are assigned."""
        if self.n_domains == 1 and home is None:
            return
        if home is not None and not 0 <= home < self.n_domains:
            raise ConfigError(f"home {home} out of range [0, {self.n_domains})")
        p0 = base >> self.page_shift
        p1 = (end - 1) >> self.page_shift
        if p1 >= self._page_home.size:
            self._grow_pages(p1)
        pages = np.arange(p0, p1 + 1, dtype=np.int64)
        if home is not None:
            homes = np.full(pages.size, home, dtype=np.int64)
        elif self.placement == "interleave":
            homes = pages % self.n_domains
        else:  # first_touch
            homes = np.full(pages.size, self._touch_socket, dtype=np.int64)
        virgin = self._page_home[pages] < 0
        self._page_home[pages[virgin]] = homes[virgin]

    def _grow_pages(self, max_page: int) -> None:
        new_cap = self._page_home.size
        while new_cap <= max_page:
            new_cap *= 2
        grown = np.full(new_cap, -1, dtype=np.int64)
        grown[: self._page_home.size] = self._page_home
        self._page_home = grown

    @property
    def page_homes(self) -> np.ndarray:
        """The page-home table: page index -> home socket, -1 for a page
        never allocated. An allocation past its end replaces it with a
        larger array, so re-read it rather than hold it."""
        return self._page_home

    def home_of_line(self, line_addr: int) -> int:
        """Home socket of one line address: 0 for a page never
        allocated, beyond the table included."""
        page = line_addr >> self.page_line_shift
        if not 0 <= page < self._page_home.size:
            return 0
        h = int(self._page_home[page])
        return h if h >= 0 else 0

    def homes_of_lines(self, lines: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`home_of_line` for an int64 line-address
        array (the node kernel's per-chunk lookup)."""
        pages = lines >> self.page_line_shift
        table = self._page_home
        homes = np.maximum(table.take(pages, mode="clip"), 0)
        homes[(pages < 0) | (pages >= table.size)] = 0
        return homes


def _round_up(n: int, align: int) -> int:
    return (n + align - 1) & ~(align - 1)
