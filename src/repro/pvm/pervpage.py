"""Per-virtual-page copy-on-write (section 4.3).

For relatively small copies (e.g. an IPC message) the PVM does not
build a history tree: each source page present in real memory is
protected read-only and each destination page gets a *copy-on-write
page stub* in the global map.  The stub points at the source page
descriptor (or at (source cache, offset) when the source page is not
resident), and all the stubs for one source page are threaded together
on that page descriptor, so the source page remains readable through
every cache it was copied to.
"""

from __future__ import annotations

from repro.kernel.clock import CostEvent
from repro.obs.metrics import series_key
from repro.pvm.cache import PvmCache
from repro.pvm.page import CowStub, RealPageDescriptor
from repro.units import page_range


class PerPageMixin:
    """Per-virtual-page deferred copy, grafted onto the PVM."""

    def _deferred_copy_per_page(self, src: PvmCache, src_offset: int,
                                dst: PvmCache, dst_offset: int,
                                size: int) -> None:
        self._prepare_destination(dst, dst_offset, size)
        # Resident source pages are protected read-only, all at once.
        self.hw.downgrade_pages(src.resident_in(src_offset, size))
        for index, offset in enumerate(
                page_range(src_offset, size, self.page_size)):
            dst_page_offset = dst_offset + index * self.page_size
            src_page = src.pages.get(offset)
            if src_page is not None:
                # Source page resident: the stub points straight at
                # the page descriptor.
                stub = CowStub(dst, dst_page_offset, src_page=src_page)
            else:
                # Not resident: the stub carries (cache, offset) instead.
                stub = CowStub(dst, dst_page_offset,
                               src_cache=src, src_offset=offset)
            self.global_map.insert(dst, dst_page_offset, stub)
            dst.stub_offsets.add(dst_page_offset)
            self.clock.charge(CostEvent.COW_STUB_INSERT)

    # ------------------------------------------------------------------
    # Stub resolution
    # ------------------------------------------------------------------

    def _resolve_cow_stub_write(self, stub: CowStub) -> RealPageDescriptor:
        """Write violation on a stub: allocate a new frame with a copy
        of the source page and insert it in the global map in place of
        the stub (section 4.3)."""
        cache, offset = stub.cache, stub.offset
        with self.probe.span("cow.materialize") as span:
            if span:
                span.set(cache=cache.name, offset=offset, kind="stub")
            if stub.src_page is not None:
                source = stub.src_page
            else:
                source = self._get_page_for_read(stub.src_cache,
                                                 stub.src_offset)
            frame = self._allocate_frame()
            # The source page may have been evicted by the allocation
            # above; re-resolve defensively.
            if stub.src_page is None and source.cache is not stub.src_cache:
                pass  # source was an ancestor's page: still valid to copy from
            self.memory.copy_frame(source.frame, frame)
            self.clock.charge(CostEvent.BCOPY_PAGE)
            self.clock.charge(CostEvent.COW_STUB_RESOLVE)
            stub.unthread()
            page = RealPageDescriptor(cache, offset, frame)
            page.dirty = True
            cache.owned.add(offset)
            self.global_map.replace(cache, offset, page)
            # Readers that mapped the stub's source frame on this cache's
            # behalf must refault onto the private copy.
            self.hw.shootdown_served(cache, offset)
            self.cache_engine.insert(page)
            cache.stats.copy_faults += 1
            self.probe.count(series_key("cow.materialized",
                                        ("backend", self.name),
                                        ("kind", "stub")))
        return page

    def _stub_source_page(self, stub: CowStub) -> RealPageDescriptor:
        """Resident page a read through *stub* resolves to."""
        if stub.src_page is not None:
            stub.src_page.referenced = True
            return stub.src_page
        return self._get_page_for_read(stub.src_cache, stub.src_offset)

    def _break_stubs(self, page: RealPageDescriptor) -> int:
        """Materialize every stub threaded on *page*.

        Called before the source page is written, moved or discarded:
        each destination gets its private copy now, so the source frame
        becomes exclusively the source's again.
        """
        count = 0
        for stub in list(page.cow_stubs):
            self._resolve_cow_stub_write(stub)
            count += 1
        return count

    def _detach_stubs_to_segment(self, page: RealPageDescriptor) -> int:
        """Re-target stubs from a page being evicted to (cache, offset);
        the source page is clean-or-saved at that point, so the segment
        holds the value the stubs reference."""
        count = 0
        for stub in list(page.cow_stubs):
            stub.detach_to_segment()
            count += 1
        return count
