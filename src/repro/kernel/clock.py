"""Virtual clock and cost model.

The paper's evaluation (section 5.3) was run on a Sun-3/60: about
3 MIPS, 8 Kbyte pages, ``bcopy`` of a page = 1.4 ms, ``bzero`` of a
page = 0.87 ms.  Re-running the benchmarks on modern hardware in Python
would measure the Python interpreter, not the algorithms.  Instead, the
simulation charges a **virtual clock** with calibrated unit costs per
mechanism event: every page fault dispatched, frame allocated, page
mapped, page protected, object created and page copied or zeroed is an
event *produced by actually executing the mechanism*; the cost model
merely prices the events.

Two pricing profiles are provided (see :mod:`repro.bench.costmodel`):
one calibrated from the paper's Chorus figures, one from its Mach
figures, so that Tables 6 and 7 can be regenerated with the measured
event streams of our PVM (history objects) and our Mach-style baseline
(shadow objects).

Time is kept as an integer count of ticks, :data:`TICKS_PER_MS` per
virtual millisecond.  Every shipped price is a whole number of ticks,
so a charge adds an exact integer: the total does not depend on the
order or grouping of charges, as in the paper's own per-event
decomposition of virtual time (section 5.3.2).
"""

from __future__ import annotations

import enum
from typing import Dict, Iterable, Optional

from repro.obs.metrics import MetricsRegistry


class CostEvent(enum.Enum):
    """Mechanism events priced by a :class:`CostModel`.

    The decomposition follows the paper's own accounting in
    section 5.3.2 (fault dispatch, page protection, history-tree
    management, per-page copy / zero-fill).
    """

    # Data movement (priced directly from the paper's microprimitives).
    BCOPY_PAGE = "bcopy_page"            # copy one page of real memory
    BZERO_PAGE = "bzero_page"            # zero-fill one page of real memory
    BCOPY_BYTE = "bcopy_byte"            # sub-page copies (IPC small path)

    # Address-space management.
    REGION_CREATE = "region_create"
    REGION_DESTROY = "region_destroy"
    REGION_INVALIDATE_PAGE = "region_invalidate_page"
    CONTEXT_CREATE = "context_create"
    CONTEXT_SWITCH = "context_switch"

    # Fault path.
    FAULT_DISPATCH = "fault_dispatch"        # trap + region + global-map lookup
    FRAME_ALLOC = "frame_alloc"
    FRAME_FREE = "frame_free"
    PAGE_MAP = "page_map"                    # enter a translation in the MMU
    PAGE_UNMAP = "page_unmap"
    PAGE_PROTECT = "page_protect"            # change protection of one mapping
    PROT_FAULT_RESOLVE = "prot_fault_resolve"  # COW bookkeeping on write violation
    FIRST_TOUCH = "first_touch"              # first fault in a region (object init)

    # Deferred-copy machinery.
    HISTORY_TREE_SETUP = "history_tree_setup"    # link one history object
    HISTORY_LOOKUP = "history_lookup"            # one hop up the history tree
    SHADOW_CREATE = "shadow_create"              # create one Mach shadow object
    SHADOW_LOOKUP = "shadow_lookup"              # one hop down a shadow chain
    SHADOW_MERGE_PAGE = "shadow_merge_page"      # move one page during merge GC
    HISTORY_MERGE_PAGE = "history_merge_page"    # collapse GC of dead history chains
    CACHE_CREATE = "cache_create"
    COW_STUB_INSERT = "cow_stub_insert"          # per-virtual-page stub (4.3)
    COW_STUB_RESOLVE = "cow_stub_resolve"

    # Segment / mapper traffic.
    PULL_IN = "pull_in"                  # upcall overhead (not data movement)
    PUSH_OUT = "push_out"
    DISK_READ_PAGE = "disk_read_page"
    DISK_WRITE_PAGE = "disk_write_page"

    # IPC.
    IPC_SEND = "ipc_send"
    IPC_RECEIVE = "ipc_receive"
    TRANSIT_SLOT = "transit_slot"

    # Misc kernel work.
    SYSCALL = "syscall"
    TLB_FILL = "tlb_fill"


#: Every event's counter key (its value), for the read-side helpers.
_EVENT_KEYS = tuple(event.value for event in CostEvent)

#: Clock ticks per virtual millisecond: 1/8192 ns, so that a byte of a
#: page copy (``BCOPY_BYTE``, a page copy / 8192) is a whole tick like
#: every other shipped price.
TICKS_PER_MS = 10**6 * 8192


class CostModel:
    """Maps :class:`CostEvent` to a cost in virtual milliseconds.

    Unpriced events cost zero; this lets functional tests run with an
    empty model while benchmarks install a calibrated profile.
    ``ticks`` holds each price rounded once to whole clock ticks.
    """

    def __init__(self, prices: Optional[Dict[CostEvent, float]] = None,
                 name: str = "free"):
        self.name = name
        self._prices: Dict[CostEvent, float] = dict(prices or {})
        self.ticks: Dict[CostEvent, int] = {
            event: round(cost * TICKS_PER_MS)
            for event, cost in self._prices.items()}

    def price(self, event: CostEvent) -> float:
        """Return the cost of one occurrence of *event*, in virtual ms."""
        return self._prices.get(event, 0.0)

    def with_overrides(self, overrides: Dict[CostEvent, float],
                       name: Optional[str] = None) -> "CostModel":
        """Return a copy of this model with some prices replaced."""
        merged = dict(self._prices)
        merged.update(overrides)
        return CostModel(merged, name=name or self.name)

    def priced_events(self) -> Iterable[CostEvent]:
        """Events with a non-zero price."""
        return [event for event, cost in self._prices.items() if cost]

    def __repr__(self) -> str:
        return f"CostModel({self.name!r}, {len(self._prices)} prices)"


class VirtualClock:
    """Accumulates virtual time from priced mechanism events.

    The clock also counts every charged event, so experiments can report
    both virtual milliseconds *and* raw mechanism counts (faults taken,
    frames allocated, shadow objects created, ...).  Each charge is one
    ``inc`` of the plain counter named by the event's value in a
    :class:`~repro.obs.metrics.MetricsRegistry` — by default a fresh
    one, but a memory manager shares a single registry between its
    clock, TLB, probe and reporting tools, which is what makes
    ``vm.metrics_snapshot()`` one coherent document.

    Listeners registered with :meth:`add_listener` observe every charge
    as ``(time_before_charge_ms, event, count)``; this single hook
    serves both the :class:`repro.tools.trace.EventTrace` shim and the
    probe's per-span event attribution.  With no listeners the charge
    path pays only an empty-tuple truth test.
    """

    def __init__(self, model: Optional[CostModel] = None,
                 registry: Optional[MetricsRegistry] = None):
        self.model = model or CostModel()
        self._ticks = 0
        self.registry = registry or MetricsRegistry()
        self._listeners = ()
        self._capture: Optional[list] = None

    # -- time ---------------------------------------------------------------

    def now(self) -> float:
        """Current virtual time in milliseconds."""
        return self._ticks / TICKS_PER_MS

    def charge(self, event: CostEvent, count: int = 1) -> float:
        """Record *count* occurrences of *event*; return the cost added
        in virtual ms."""
        if count <= 0:
            return 0.0
        if self._capture is not None:
            self._capture.append((event, count))
            return 0.0
        registry = self.registry
        if registry.enabled:
            # A paused registry drops the increment inside inc()
            # anyway; checking here keeps the idle fast path to one
            # attribute check per charge.  ``_value_`` is the member's
            # stored value: ``.value`` is a descriptor call that costs
            # more than the increment itself.
            registry.inc(event._value_, count)
        start = self._ticks
        cost = self.model.ticks.get(event, 0) * count
        self._ticks = start + cost
        if self._listeners:
            start_ms = start / TICKS_PER_MS
            for listener in self._listeners:
                listener(start_ms, event, count)
        return cost / TICKS_PER_MS

    def charge_each(self, event: CostEvent, count: int) -> float:
        """Synonym of :meth:`charge`, kept for the per-page bulk paths
        and the profilers that wrap it by name."""
        return self.charge(event, count)

    def capture(self) -> "CaptureRegion":
        """Divert charges into a list instead of applying them.

        While the returned context manager is active, :meth:`charge`
        appends ``(event, count)`` to ``region.charges`` — no time
        advances, no counter moves, no listener fires.  A caller can
        later replay (or discard) the recorded charges; the fault-
        clustering prefetcher uses this to speculate without touching
        the golden virtual-time accounting.  :meth:`advance` during a
        capture marks the region ``tainted`` (the advanced time is
        still diverted, recorded as an ``(None, ms)`` entry) because an
        opaque latency cannot be re-attributed per page.  Captures do
        not nest.
        """
        return CaptureRegion(self)

    # -- charge listeners ----------------------------------------------------

    def add_listener(self, listener) -> None:
        """Register ``listener(time_ms, event, count)`` for every charge."""
        self._listeners = (*self._listeners, listener)

    def remove_listener(self, listener) -> None:
        """Unregister a charge listener (no-op when absent)."""
        # == not `is`: bound methods are re-created on each attribute
        # access, so identity would never match.
        self._listeners = tuple(
            registered for registered in self._listeners
            if registered != listener
        )

    def advance(self, milliseconds: float) -> None:
        """Advance virtual time directly (e.g. simulated disk latency)."""
        if milliseconds < 0:
            raise ValueError("cannot move virtual time backwards")
        if self._capture is not None:
            self._capture.append((None, milliseconds))
            return
        self._ticks += round(milliseconds * TICKS_PER_MS)

    # -- bookkeeping ----------------------------------------------------------

    def count(self, event: CostEvent) -> int:
        """Number of times *event* has been charged."""
        return self.registry.counter_value(event.value)

    def reset(self) -> None:
        """Zero the clock and all event counts (other counters in a
        shared registry are untouched); bumps the registry generation."""
        self._ticks = 0
        self.registry.drop_counters(_EVENT_KEYS)

    def snapshot(self) -> Dict[str, int]:
        """Copy of all event counts, keyed by event value."""
        values = self.registry.counter_values()
        return {key: values[key] for key in _EVENT_KEYS if key in values}

    def __repr__(self) -> str:
        return f"VirtualClock(t={self.now():.3f}ms, model={self.model.name})"


class CaptureRegion:
    """Context manager diverting clock charges into ``self.charges``.

    ``charges`` holds ``(CostEvent, count)`` tuples in charge order;
    an ``advance`` made while capturing shows up as ``(None, ms)``.
    ``tainted`` is True when any advance was diverted — a capture that
    cannot be replayed as discrete events.
    """

    def __init__(self, clock: VirtualClock):
        self.clock = clock
        self.charges: list = []

    @property
    def tainted(self) -> bool:
        return any(event is None for event, _ in self.charges)

    def __enter__(self) -> "CaptureRegion":
        if self.clock._capture is not None:
            raise RuntimeError("clock captures do not nest")
        self.clock._capture = self.charges
        return self

    def __exit__(self, *exc_info) -> None:
        self.clock._capture = None


class ClockRegion:
    """Context manager measuring virtual time elapsed in a block.

    >>> clock = VirtualClock()
    >>> with ClockRegion(clock) as region:
    ...     clock.advance(2.5)
    >>> region.elapsed
    2.5
    """

    def __init__(self, clock: VirtualClock):
        self.clock = clock
        self.start = 0.0
        self.elapsed = 0.0

    def __enter__(self) -> "ClockRegion":
        self._start_ticks = self.clock._ticks
        self.start = self._start_ticks / TICKS_PER_MS
        return self

    def __exit__(self, *exc_info) -> None:
        self.elapsed = ((self.clock._ticks - self._start_ticks)
                        / TICKS_PER_MS)
