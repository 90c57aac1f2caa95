"""The in-flight table: one entry per extent being pulled in.

Section 4.1.2's synchronization page stub marks a single page "in
transit"; this table is the extent-granular generalization the staged
engine shares across backends.  When a fault (or prefetch) drives a
pullIn for ``[offset, offset+size)``, the puller registers **one**
:class:`InFlightEntry` for the whole run — composing with the extent
refactor's ranged pulls — and every page stub of the run shares the
entry's condition variable.  A second faulter landing anywhere in the
run finds a stub, joins the entry's waiter queue (``join``), and
sleeps on the shared condition: the pull is never duplicated, the
cost events are never charged twice, and the stub-synchronization
protocol (sleep until ``done``, then re-look-up the installed
mapping) replays identically for every backend.

The table is manipulated only under the owning manager's lock (the
same lock the shared condition wraps), so its bookkeeping needs no
locking of its own.  Entries complete from the *filling* side: each
resolved stub calls :meth:`InFlightEntry.page_done`, and the entry
retires when its last page lands — whether fills arrive synchronously,
from an asynchronous mapper thread, or out of order.

Layer contract: no backend, no hardware (rule 2); reachable through
the ``repro.engine`` facade.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.errors import InvalidOperation
from repro.extents import IntervalMap
from repro.obs.metrics import series_name
from repro.obs.probe import NULL_PROBE


class InFlightEntry:
    """One extent in transit: ``[offset, offset+size)`` of one cache."""

    __slots__ = ("cache", "offset", "size", "mode", "condition",
                 "remaining", "joiners", "done", "_table")

    def __init__(self, table: "InFlightTable", cache, offset: int,
                 size: int, mode, condition, pages: int):
        self._table = table
        self.cache = cache
        self.offset = offset
        self.size = size
        self.mode = mode
        #: shared by every SyncStub of the run: one wakeup broadcast
        #: covers all sleepers, whichever page they faulted on.
        self.condition = condition
        #: pages of the run still in transit.
        self.remaining = pages
        #: faulters that coalesced onto this pull instead of issuing
        #: their own.
        self.joiners = 0
        self.done = False

    def page_done(self) -> None:
        """One page of the run landed (its stub resolved)."""
        self.remaining -= 1
        if self.remaining <= 0 and not self.done:
            self._table._finish(self)

    @property
    def end(self) -> int:
        return self.offset + self.size

    def __repr__(self) -> str:
        state = "done" if self.done else f"{self.remaining} pages left"
        return (f"InFlightEntry([{self.offset:#x}, {self.end:#x}), "
                f"{state}, joiners={self.joiners})")


class InFlightTable:
    """Extent-granular dedup of concurrent pulls, per memory manager."""

    def __init__(self, sync_factory, lock, page_size: int, probe=None):
        self._sync = sync_factory
        self._lock = lock
        self._page_size = page_size
        self.probe = probe if probe is not None else NULL_PROBE
        #: cache_id -> IntervalMap of in-transit extents.
        self._extents: Dict[int, IntervalMap] = {}
        #: cache_id -> precomputed (begin, coalesced) labeled series
        #: keys, so a paused registry costs one attribute check per
        #: begin/join instead of a label dict and format.
        self._series: Dict[int, Tuple[str, str]] = {}
        self._depth = 0
        self.stats = {"begun": 0, "completed": 0, "joined": 0,
                      "depth_peak": 0}

    def _series_for(self, cache) -> Tuple[str, str]:
        series = self._series.get(cache.cache_id)
        if series is None:
            label = {"segment": cache.name}
            series = self._series[cache.cache_id] = (
                series_name("engine.inflight.begin", label),
                series_name("engine.inflight.coalesced", label),
            )
        return series

    # -- registration (the pulling side) -------------------------------------

    def begin(self, cache, offset: int, size: int,
              mode=None) -> InFlightEntry:
        """Register ``[offset, offset+size)`` as in transit.

        Caller holds the manager lock.  Overlap with an extent already
        in flight is a protocol violation — the overlapping pages carry
        stubs, so a correct caller joins instead of re-pulling."""
        page = self._page_size
        start = offset - offset % page
        end = (offset + size + page - 1) // page * page
        extents = self._extents.get(cache.cache_id)
        if extents is None:
            extents = self._extents[cache.cache_id] = IntervalMap()
        if extents.overlapping(start, end):
            raise InvalidOperation(
                f"pull of [{start:#x}, {end:#x}) overlaps an extent "
                "already in flight")
        entry = InFlightEntry(self, cache, start, end - start, mode,
                              self._sync.condition(self._lock),
                              pages=(end - start) // page)
        extents.add(start, end, entry)
        self._depth += 1
        self.stats["begun"] += 1
        if self._depth > self.stats["depth_peak"]:
            self.stats["depth_peak"] = self._depth
        if self.probe.registry.enabled:
            self.probe.count(self._series_for(cache)[0])
        return entry

    def _finish(self, entry: InFlightEntry) -> None:
        entry.done = True
        extents = self._extents.get(entry.cache.cache_id)
        if extents is not None and extents.get(entry.offset) is entry:
            extents.remove(entry.offset)
            if not extents:
                del self._extents[entry.cache.cache_id]
        self._depth -= 1
        self.stats["completed"] += 1

    # -- the waiting side ----------------------------------------------------

    def join(self, entry: InFlightEntry) -> None:
        """A faulter coalesced onto an in-flight pull (it will sleep on
        the entry's condition instead of issuing its own pullIn)."""
        entry.joiners += 1
        self.stats["joined"] += 1
        if self.probe.registry.enabled:
            self.probe.count(self._series_for(entry.cache)[1])

    def covering(self, cache, offset: int) -> Optional[InFlightEntry]:
        """The in-flight entry covering (cache, offset), if any."""
        extents = self._extents.get(cache.cache_id)
        if extents is None:
            return None
        return extents.get(offset)

    def in_transit(self, cache, offset: int, size: int) -> bool:
        """True when some extent of *cache* in flight intersects
        ``[offset, offset+size)``."""
        extents = self._extents.get(cache.cache_id)
        return bool(extents) and bool(
            extents.overlapping(offset, offset + size))

    # -- introspection -------------------------------------------------------

    @property
    def depth(self) -> int:
        """Extents currently in transit."""
        return self._depth

    def release(self, cache_id: int) -> None:
        """Forget a destroyed cache's (necessarily completed) extents
        and its cached series keys."""
        self._extents.pop(cache_id, None)
        self._series.pop(cache_id, None)

    def __repr__(self) -> str:
        return (f"InFlightTable({self._depth} in flight, "
                f"{self.stats['joined']} joined)")
