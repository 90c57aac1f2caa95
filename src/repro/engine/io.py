"""Scheduled mapper I/O: one request queue for all BaseMapper traffic.

Every fault used to resolve synchronously end to end, so modeled disk
latency — and the very real python cost of moving the bytes — ran
strictly inside the fault path.  The :class:`IoScheduler` splits each
mapper operation into the two halves the determinism contract needs:

* the **protocol half** runs on the submitting kernel thread, in
  program order: request counting, the partial-page read-modify-write
  and *every* virtual-clock charge (``BaseMapper.prepare_write`` /
  ``charge_read``).  The charges and their order are therefore the
  same whether or not worker threads exist, which keeps virtual time,
  counters and the goldens' charge-stream digests exact;
* the **byte half** (``read_range`` / ``write_range``) is charge-free
  store access, and only this half may run on a pool thread.

Reads always execute on the submitting thread (the faulter needs the
bytes to make progress); writes classified ``WRITE_BEHIND`` are
deferred to the pool when ``threads > 0``.  Deferred writes to the
same segment coalesce by adjacency — overlapping or touching buffers
merge into one request that keeps the earliest queue position — and
drain in strict ``(priority, sequence)`` order: demand pull before
read-ahead before write-behind.  A read (or synchronous write) that
overlaps queued write-behind data *forces* those requests: they are
executed (or superseded) on the submitting thread before the read, so
the store never serves stale bytes.

With ``threads == 0`` the scheduler is a transparent pass-through:
the exact call sequence of the old direct-mapper path, no locks, no
queue — which is what the synchronous-fallback determinism test pins.

Layer contract (rule 6): this module imports no backend and no
hardware; backends and the cache subsystem reach it only through the
``repro.engine`` facade (or the ``vm.io`` attribute, duck-typed).
"""

from __future__ import annotations

import heapq
import threading
from contextlib import nullcontext
from typing import Callable, Dict, List, Optional, Tuple

from repro.obs.metrics import series_name
from repro.obs.probe import NULL_PROBE

#: Request classes, in strict priority order (lower drains first).
DEMAND = 0
READAHEAD = 1
WRITE_BEHIND = 2

_CLASS_LABELS = {DEMAND: "demand", READAHEAD: "readahead",
                 WRITE_BEHIND: "writebehind"}


class IoWrite:
    """One deferred write: prepared (charged) bytes awaiting
    ``write_range``.  ``scopes`` are the classification scopes whose
    completion callbacks this request still owes.

    The bytes live as ``(seq, offset, data, ctx)`` fragments: adjacency
    coalescing *appends* to the list (zero-copy on the submitting
    thread — the fault path never pays a merge memcpy); execution
    applies the fragments in global submit order, so later writes of
    an overlap land last whichever request absorbed them.  ``ctx`` is
    the submitting span's ``Probe.span_context()`` capture (or None):
    the byte half executed on a pool thread re-parents under the fault
    or push span that paid for the write, not under whatever the kernel
    thread is doing at drain time."""

    __slots__ = ("mapper", "key", "offset", "end", "size", "fragments",
                 "priority", "seq", "scopes", "taken")

    def __init__(self, mapper, key: int, offset: int, data: bytes,
                 priority: int, seq: int, scopes: list, ctx=None):
        self.mapper = mapper
        self.key = key
        self.offset = offset
        self.end = offset + len(data)
        #: bytes buffered (fragment lengths, pre-dedup of overlap).
        self.size = len(data)
        self.fragments = [(seq, offset, data, ctx)]
        self.priority = priority
        self.seq = seq
        self.scopes = scopes
        #: lazily-deleted from the heap once claimed, merged or forced
        #: (a request taken off the worker path also drops its bytes).
        self.taken = False

    def __repr__(self) -> str:
        return (f"IoWrite(key={self.key:#x}, "
                f"[{self.offset:#x}, {self.end:#x}), "
                f"prio={_CLASS_LABELS[self.priority]}, seq={self.seq})")


class IoScope:
    """A classification scope (``with io.classify(...)``).

    Requests submitted inside carry the scope's priority; ``on_done``
    fires exactly once, after the scope closes *and* every write it
    deferred has drained — immediately at exit when nothing was
    deferred (the caller's work completed synchronously).
    """

    __slots__ = ("priority", "on_done", "deferred", "outstanding",
                 "closed", "fired", "_scheduler")

    def __init__(self, scheduler: "IoScheduler", priority: int,
                 on_done: Optional[Callable[[], None]]):
        self._scheduler = scheduler
        self.priority = priority
        self.on_done = on_done
        #: writes this scope sent to the queue (0 == fully synchronous).
        self.deferred = 0
        #: queued requests still owing this scope a completion.
        self.outstanding = 0
        self.closed = False
        self.fired = False

    def __enter__(self) -> "IoScope":
        self._scheduler._scopes.append(self)
        return self

    def __exit__(self, *exc_info) -> None:
        scopes = self._scheduler._scopes
        if scopes and scopes[-1] is self:
            scopes.pop()
        else:                                   # pragma: no cover
            scopes.remove(self)
        with self._scheduler._mutex:
            self.closed = True
            fire = self.outstanding == 0
        if fire:
            self._fire()

    def _fire(self) -> None:
        if self.fired:
            return
        self.fired = True
        if self.on_done is not None:
            self.on_done()


class IoScheduler:
    """Thread-pooled mapper request queue with priority + coalescing."""

    #: re-exported as attributes so callers holding a scheduler (the
    #: cache engine's duck-typed ``vm.io``) never import this module
    #: directly — layer rule 6 reserves that for the engine facade.
    DEMAND = DEMAND
    READAHEAD = READAHEAD
    WRITE_BEHIND = WRITE_BEHIND

    def __init__(self, threads: int = 0, probe=None,
                 max_buffered_bytes: int = 8 * 1024 * 1024,
                 wake_bytes: int = 4 * 1024 * 1024,
                 max_coalesce_bytes: int = 128 * 1024,
                 pressure=None):
        #: pool size; 0 means strictly synchronous pass-through.
        self.threads = max(0, int(threads))
        self.probe = probe if probe is not None else NULL_PROBE
        #: optional duck-typed pressure board (repro.obs.pressure):
        #: queue-overflow backpressure is noted as a stall event.
        self.pressure = pressure
        self.max_buffered_bytes = max_buffered_bytes
        #: dispatch watermark: workers are woken only once this many
        #: bytes are pending (or at flush/close).  Batched dispatch
        #: keeps pool threads off the submitting thread's back — they
        #: contend for the interpreter lock, so draining one write at
        #: a time costs the fault path more than it hides — and it
        #: widens the adjacency-coalescing window.
        self.wake_bytes = wake_bytes
        #: largest merged request adjacency coalescing may build; past
        #: this a new request starts (the classic max-transfer-size
        #: bound — unbounded merging re-copies the accumulated buffer
        #: on every submit, quadratic in run length).
        self.max_coalesce_bytes = max_coalesce_bytes
        self._mutex = threading.Lock()
        #: workers sleep here for queued requests.
        self._work = threading.Condition(self._mutex)
        #: submitters sleep here for completions (flush / force).
        self._done = threading.Condition(self._mutex)
        self._heap: List[Tuple[int, int, IoWrite]] = []
        #: heap entries already taken off the worker path (merged,
        #: forced, superseded, discarded) and not yet popped; the heap
        #: is compacted once they outnumber the live ones.
        self._stale = 0
        #: (id(mapper), key) -> queued requests, for overlap lookups.
        self._queued: Dict[Tuple[int, int], List[IoWrite]] = {}
        #: (id(mapper), key) -> requests a worker is executing.
        self._executing: Dict[Tuple[int, int], List[IoWrite]] = {}
        #: one execution lock per mapper: the byte stores (SparseStore,
        #: block dicts) are not thread-safe, so every range op on a
        #: mapper serializes through its lock when workers exist.
        self._mapper_locks: Dict[int, threading.Lock] = {}
        self._scopes: List[IoScope] = []
        self._seq = 0
        self._depth = 0
        self._pending_bytes = 0
        self._closed = False
        self._errors: List[BaseException] = []
        self.stats = {
            "reads": 0, "writes": 0, "deferred": 0, "inline": 0,
            "coalesced": 0, "forced": 0, "superseded": 0, "stalls": 0,
            "executed": 0, "flushes": 0, "depth_peak": 0,
        }
        self._read_series = {
            prio: series_name("io.queue.read", {"priority": label})
            for prio, label in _CLASS_LABELS.items()
        }
        self._write_series = {
            prio: series_name("io.queue.write", {"priority": label})
            for prio, label in _CLASS_LABELS.items()
        }
        self._workers: List[threading.Thread] = []
        for index in range(self.threads):
            worker = threading.Thread(target=self._worker, daemon=True,
                                      name=f"repro-io-{index}")
            self._workers.append(worker)
            worker.start()

    # -- classification ------------------------------------------------------

    def classify(self, priority: int,
                 on_done: Optional[Callable[[], None]] = None) -> IoScope:
        """Open a scope: requests submitted inside carry *priority*."""
        return IoScope(self, priority, on_done)

    def _current_priority(self) -> int:
        return self._scopes[-1].priority if self._scopes else DEMAND

    # -- submission ----------------------------------------------------------

    def read_segment(self, mapper, key: int, offset: int, size: int,
                     priority: Optional[int] = None) -> bytes:
        """Serve a segment read on the calling thread.

        Queued writes overlapping the range are forced first, so the
        read observes every byte already charged for."""
        if priority is None:
            priority = self._current_priority()
        self.stats["reads"] += 1
        self.probe.count(self._read_series[priority])
        if not getattr(mapper, "split_io", True):
            # Opaque proxy: no local byte store, nothing ever deferred
            # against it — the full segment op, on this thread.
            return mapper.read_segment(key, offset, size)
        if self.threads:
            self._force_range(mapper, key, offset, offset + size)
            with self._mapper_lock(mapper):
                return mapper.read_segment(key, offset, size)
        return mapper.read_segment(key, offset, size)

    def write_segment(self, mapper, key: int, offset: int, data,
                      priority: Optional[int] = None) -> None:
        """Submit a segment write.

        The protocol half (``prepare_write``: counting, RMW, charges)
        always runs here, on the calling thread, in program order.
        The byte half is deferred to the pool for ``WRITE_BEHIND``
        requests, executed inline otherwise."""
        scope = self._scopes[-1] if self._scopes else None
        if priority is None:
            priority = scope.priority if scope is not None else DEMAND
        self.stats["writes"] += 1
        self.probe.count(self._write_series[priority])
        if not getattr(mapper, "split_io", True):
            self.stats["inline"] += 1
            mapper.write_segment(key, offset, data)
            return
        data = bytes(data)
        page = mapper.page_size
        if page and (offset % page or len(data) % page):
            # The read-modify-write inside prepare_write must observe
            # queued bytes of the touched blocks: force them first.
            lo = offset - offset % page
            hi = offset + len(data)
            hi = (hi + page - 1) // page * page
            self._force_range(mapper, key, lo, hi)
        if self.threads:
            # prepare_write reads the store (RMW) and mutates mapper
            # tables (block allocation): serialize against workers.
            with self._mapper_lock(mapper):
                offset, data = mapper.prepare_write(key, offset, data)
        else:
            offset, data = mapper.prepare_write(key, offset, data)
        if not (self.threads and priority == WRITE_BEHIND
                and not self._closed):
            # Synchronous: supersede queued writes the new data fully
            # covers, execute the partially-covered ones first.
            self._force_range(mapper, key, offset, offset + len(data),
                              supersede=True)
            self.stats["inline"] += 1
            self._execute(mapper, key, offset, data)
            return
        self.stats["deferred"] += 1
        if scope is not None:
            scope.deferred += 1
        # Captured on the submitting thread: the span the byte half
        # will re-parent under when a pool thread drains it.
        ctx = self.probe.span_context()
        overflowed = False
        with self._mutex:
            if self._coalesce_locked(mapper, key, offset, data, scope,
                                     ctx):
                self.stats["coalesced"] += 1
                self.probe.count("io.queue.coalesced")
                return
            if self._pending_bytes + len(data) > self.max_buffered_bytes:
                overflowed = True
            else:
                self._enqueue_locked(mapper, key, offset, data, priority,
                                     scope, ctx)
                return
        # Queue over budget: the submitter absorbs the write itself —
        # backpressure by stalling the producer, never by dropping.
        self.stats["stalls"] += 1
        self.probe.count("io.queue.stall")
        if self.pressure is not None:
            # The inline byte half is charge-free (zero virtual time),
            # so this is a counted stall event, not an interval.
            self.pressure.note_stall("io.queue")
        if overflowed:
            self.stats["inline"] += 1
            self._wait_executing(mapper, key, offset, offset + len(data))
            self._execute(mapper, key, offset, data)

    # -- draining ------------------------------------------------------------

    def flush(self) -> None:
        """Block until every queued and executing request has drained;
        re-raise the first worker-side error, if any."""
        self.stats["flushes"] += 1
        if self.threads:
            with self._mutex:
                self._work.notify_all()
                while self._queued or self._executing:
                    self._done.wait()
        self._raise_errors()

    def discard(self, mapper, key: int) -> None:
        """Drop queued writes for (mapper, key) — the segment is being
        destroyed, its bytes are irrelevant — and wait out executing
        ones so the store is quiescent before it disappears."""
        if not self.threads:
            return
        mapper_key = (id(mapper), key)
        fires: List[IoScope] = []
        with self._mutex:
            for request in self._queued.pop(mapper_key, []):
                self._take_locked(request)
                request.fragments = []
                self._depth -= 1
                self._pending_bytes -= request.size
                self.stats["superseded"] += 1
                fires.extend(self._settle_locked(request))
            while self._executing.get(mapper_key):
                self._done.wait()
        for scope in fires:
            scope._fire()

    def close(self) -> None:
        """Drain the queue, stop the workers, surface their errors.

        Subsequent submissions execute inline (synchronous fallback)."""
        with self._mutex:
            self._closed = True
            self._work.notify_all()
        for worker in self._workers:
            worker.join()
        self._workers = []
        self._raise_errors()

    def _raise_errors(self) -> None:
        with self._mutex:
            if not self._errors:
                return
            error = self._errors.pop(0)
        raise error

    # -- introspection -------------------------------------------------------

    @property
    def depth(self) -> int:
        """Requests currently queued (not yet executing)."""
        return self._depth

    @property
    def pending_bytes(self) -> int:
        return self._pending_bytes

    @property
    def coalesce_rate(self) -> float:
        """Fraction of deferred writes absorbed into an earlier one."""
        deferred = self.stats["deferred"]
        return self.stats["coalesced"] / deferred if deferred else 0.0

    # -- internals -----------------------------------------------------------

    def _mapper_lock(self, mapper) -> threading.Lock:
        with self._mutex:
            lock = self._mapper_locks.get(id(mapper))
            if lock is None:
                lock = self._mapper_locks[id(mapper)] = threading.Lock()
            return lock

    def _execute(self, mapper, key: int, offset: int, data: bytes) -> None:
        """The byte half: charge-free store access."""
        if self.threads:
            with self._mapper_lock(mapper):
                mapper.write_range(key, offset, data)
        else:
            mapper.write_range(key, offset, data)

    def _write_run(self, request: IoWrite, offset: int,
                   parts: List[bytes], ctx) -> None:
        """One contiguous ``write_range``, traced as an adopted span
        nested under the span that submitted the run's first fragment
        (a no-op when tracing was off at submit time)."""
        data = parts[0] if len(parts) == 1 else b"".join(parts)
        span = self.probe.adopted_span("io.write_range", ctx)
        if span:
            with span:
                span.set(key=request.key, offset=offset, size=len(data))
                request.mapper.write_range(request.key, offset, data)
        else:
            request.mapper.write_range(request.key, offset, data)

    def _execute_request(self, request: IoWrite) -> None:
        """Drain one queued request: fragments in global submit order,
        so overlapping bytes land newest-last.  Contiguous fragments
        are stitched into single ``write_range`` calls."""
        fragments = request.fragments
        if len(fragments) > 1:
            # Sequence numbers are unique, so the sort never compares
            # the data or span-context elements.
            fragments.sort()
        with self._mapper_lock(request.mapper) if self.threads \
                else nullcontext():
            run_offset = run_end = None
            run_parts: List[bytes] = []
            run_ctx = None
            for _, offset, data, ctx in fragments:
                if run_offset is not None and offset == run_end:
                    run_parts.append(data)
                    run_end += len(data)
                    continue
                if run_offset is not None:
                    self._write_run(request, run_offset, run_parts,
                                    run_ctx)
                run_offset, run_end, run_parts, run_ctx = \
                    offset, offset + len(data), [data], ctx
            if run_offset is not None:
                self._write_run(request, run_offset, run_parts, run_ctx)

    def _enqueue_locked(self, mapper, key: int, offset: int, data: bytes,
                        priority: int, scope: Optional[IoScope],
                        ctx=None) -> None:
        self._seq += 1
        scopes = [] if scope is None else [scope]
        request = IoWrite(mapper, key, offset, data, priority, self._seq,
                          scopes, ctx)
        if scope is not None:
            scope.outstanding += 1
        heapq.heappush(self._heap, (priority, self._seq, request))
        self._queued.setdefault((id(mapper), key), []).append(request)
        self._depth += 1
        self._pending_bytes += len(data)
        if self._depth > self.stats["depth_peak"]:
            self.stats["depth_peak"] = self._depth
        if self._pending_bytes >= self.wake_bytes:
            self._work.notify()

    def _coalesce_locked(self, mapper, key: int, offset: int, data: bytes,
                         scope: Optional[IoScope], ctx=None) -> bool:
        """Fold the write into queued requests it overlaps or touches.

        The new range and every touching request collapse into the
        earliest request — same heap key, same queue position — by
        *appending fragments*, never by copying bytes: the merged
        buffer is only materialized when the request executes, on the
        pool thread (or a forcing reader), off the submit path."""
        queued = self._queued.get((id(mapper), key))
        if not queued:
            return False
        end = offset + len(data)
        touching = [request for request in queued
                    if request.offset <= end and offset <= request.end]
        if not touching:
            return False
        lo = min(offset, min(request.offset for request in touching))
        hi = max(end, max(request.end for request in touching))
        if hi - lo > self.max_coalesce_bytes:
            return False
        self._seq += 1
        base = min(touching, key=lambda request: request.seq)
        for request in touching:
            if request is base:
                continue
            self._take_locked(request)
            queued.remove(request)
            self._depth -= 1
            base.fragments.extend(request.fragments)
            request.fragments = []
            base.size += request.size
            base.scopes.extend(request.scopes)
            request.scopes = []
        base.fragments.append((self._seq, offset, data, ctx))
        base.size += len(data)
        base.offset = lo
        base.end = hi
        self._pending_bytes += len(data)
        if scope is not None:
            scope.outstanding += 1
            base.scopes.append(scope)
        return True

    def _force_range(self, mapper, key: int, lo: int, hi: int,
                     supersede: bool = False) -> None:
        """Give [lo, hi) priority *now*: queued writes overlapping it
        are executed on the calling thread (or dropped when *supersede*
        and the new data fully covers them), and overlapping executing
        requests are waited out."""
        if not self.threads:
            return
        mapper_key = (id(mapper), key)
        to_run: List[IoWrite] = []
        fires: List[IoScope] = []
        with self._mutex:
            queued = self._queued.get(mapper_key)
            if queued:
                for request in [r for r in queued
                                if r.offset < hi and lo < r.end]:
                    self._take_locked(request)
                    queued.remove(request)
                    self._depth -= 1
                    self._pending_bytes -= request.size
                    if supersede and lo <= request.offset \
                            and request.end <= hi:
                        # Fully covered by newer data: never executes.
                        request.fragments = []
                        self.stats["superseded"] += 1
                        fires.extend(self._settle_locked(request))
                    else:
                        to_run.append(request)
                if not queued:
                    del self._queued[mapper_key]
            while any(r.offset < hi and lo < r.end
                      for r in self._executing.get(mapper_key, ())):
                self._done.wait()
        for scope in fires:
            scope._fire()
        if not to_run:
            return
        self.stats["forced"] += len(to_run)
        self.probe.count("io.queue.forced", len(to_run))
        for request in sorted(to_run,
                              key=lambda r: (r.priority, r.seq)):
            self._execute_request(request)
            request.fragments = []
            self._finish(request)

    def _wait_executing(self, mapper, key: int, lo: int, hi: int) -> None:
        mapper_key = (id(mapper), key)
        with self._mutex:
            while any(r.offset < hi and lo < r.end
                      for r in self._executing.get(mapper_key, ())):
                self._done.wait()

    def _take_locked(self, request: IoWrite) -> None:
        """Claim a queued request off the worker path (mutex held).
        Its heap entry goes stale; once stale entries outnumber live
        ones the heap is rebuilt without them, so forced and superseded
        writes cannot pile up.  Live entries keep their (priority,
        sequence) keys, so the drain order is unchanged."""
        request.taken = True
        self._stale += 1
        heap = self._heap
        if self._stale * 2 > len(heap):
            self._heap = [item for item in heap if not item[2].taken]
            heapq.heapify(self._heap)
            self._stale = 0

    def _settle_locked(self, request: IoWrite) -> List[IoScope]:
        """Completion bookkeeping (mutex held); returns scopes whose
        ``on_done`` must fire once the mutex is released."""
        self.stats["executed"] += 1
        fires = []
        for scope in request.scopes:
            scope.outstanding -= 1
            if scope.closed and scope.outstanding == 0:
                fires.append(scope)
        request.scopes = []
        self._done.notify_all()
        return fires

    def _finish(self, request: IoWrite) -> None:
        with self._mutex:
            fires = self._settle_locked(request)
        for scope in fires:
            scope._fire()

    def _worker(self) -> None:
        while True:
            with self._mutex:
                request = None
                while True:
                    while self._heap:
                        _, _, candidate = self._heap[0]
                        if candidate.taken:
                            heapq.heappop(self._heap)
                            self._stale -= 1
                            continue
                        request = candidate
                        break
                    if request is not None or self._closed:
                        break
                    self._work.wait()
                if request is None:
                    return
                heapq.heappop(self._heap)
                request.taken = True
                mapper_key = (id(request.mapper), request.key)
                queued = self._queued.get(mapper_key)
                if queued is not None:
                    queued.remove(request)
                    if not queued:
                        del self._queued[mapper_key]
                self._depth -= 1
                self._pending_bytes -= request.size
                self._executing.setdefault(mapper_key, []).append(request)
            try:
                self._execute_request(request)
            except BaseException as exc:          # noqa: BLE001
                with self._mutex:
                    self._errors.append(exc)
            finally:
                with self._mutex:
                    executing = self._executing[mapper_key]
                    executing.remove(request)
                    if not executing:
                        del self._executing[mapper_key]
                    fires = self._settle_locked(request)
                for scope in fires:
                    scope._fire()

    def __repr__(self) -> str:
        return (f"IoScheduler(threads={self.threads}, depth={self._depth}, "
                f"pending={self._pending_bytes}B)")
