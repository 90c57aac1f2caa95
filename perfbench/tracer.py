"""Layer-attributed host-time tracing from outside the program.

:func:`install` replaces the public methods named in :data:`LAYERS`
with timing wrappers, at class level, so it must run before the system
is built: some callers bind methods at construction (the memory bus
keeps the manager's ``handle_fault``).  Every call through a wrapper
becomes a span ``(name, start, end, parent, op, error)`` kept in
per-thread in-memory columns; :func:`fold` turns the spans into
per-layer call counts, self time and errors.

Self time is a span's duration minus the time covered by its child
spans on the same thread.  Time spent in unwrapped callees counts
toward the caller's layer.  Spans on I/O pool threads have no parent
on the main thread's stack: they count toward their layer's busy time but
are subtracted from nothing on the main thread's blocking path.  A
generator function's span would cover creating the generator only, so
:func:`install` refuses generator functions.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import threading
import time
import types
from array import array

#: layer -> [(module, class, (method, ...)), ...].  Layer names are the
#: ``repro.*`` packages.
LAYERS = {
    "hardware": [
        ("repro.hardware.bus", "MemoryBus", ("read", "write")),
        ("repro.hardware.vbus", "VectorBus", ("replay",)),
        ("repro.hardware.tlb", "TLB",
         ("probe", "fill", "retire_run", "invalidate_range",
          "flush_space")),
        ("repro.hardware.paged_mmu", "PagedMMU",
         ("translate", "translate_batch", "map_batch", "unmap_batch",
          "protect_range", "unmap_range")),
        ("repro.hardware.physmem", "PhysicalMemory",
         ("allocate_frame", "free_frame", "copy_frame", "zero_frame")),
    ],
    "extents": [
        ("repro.extents.runmap", "RunMap",
         ("set", "set_run", "delete", "clear_range", "set_attr_range",
          "clear", "get", "first_gap", "covered_count", "runs", "runs_in",
          "keys_in")),
        ("repro.extents.intervalmap", "IntervalMap",
         ("add", "remove", "set_end", "clear", "get", "interval_at",
          "overlapping", "items", "values")),
        ("repro.extents.runs", "ExtentSet",
         ("add", "add_range", "discard", "discard_range", "clear", "runs",
          "runs_in", "count_in")),
    ],
    "kernel": [
        ("repro.kernel.clock", "VirtualClock", ("charge", "charge_each")),
    ],
    "engine": [
        ("repro.engine.pipeline", "FaultPipeline", ("run",)),
        ("repro.engine.inflight", "InFlightTable", ("begin", "join")),
        ("repro.engine.io", "IoScheduler",
         ("read_segment", "write_segment", "flush")),
        ("repro.engine.admission", "AdmissionGate", ("admit",)),
    ],
    "cache": [
        ("repro.cache.engine", "CacheEngine",
         ("pull", "push", "reclaim", "insert", "forget", "drain")),
        ("repro.cache.writeback", "WriteBehindQueue", ("offer",)),
    ],
    "segments": [
        ("repro.segments.file_mapper", "DiskMapper",
         ("read_range", "write_range")),
        ("repro.segments.swap_mapper", "SwapMapper",
         ("read_range", "write_range")),
        ("repro.segments.mem_mapper", "MemoryMapper",
         ("read_range", "write_range")),
    ],
    "pvm": [
        ("repro.pvm.pvm", "PagedVirtualMemory",
         ("handle_fault", "cache_copy", "cache_move", "collapse_history",
          "cache_read", "cache_write")),
        ("repro.pvm.hw_interface", "HardwareLayer",
         ("map_page", "unmap_range", "shootdown", "downgrade_page")),
    ],
    "pressure": [
        ("repro.pressure.arbiter", "FrameArbiter",
         ("charge", "release", "adopt", "note_pull", "note_evicted")),
        ("repro.pressure.balancer", "BalancerDaemon", ("tick",)),
        ("repro.pressure.workingset", "WorkingSetEstimator", ("observe",)),
        ("repro.pressure.throttle", "AdmissionController", ("penalty",)),
    ],
    "obs": [
        ("repro.obs.metrics", "MetricsRegistry",
         ("inc", "set_gauge", "observe")),
        ("repro.obs.probe", "Probe", ("count", "gauge", "span")),
        ("repro.obs.pressure", "PressureBoard",
         ("fault", "pulled", "pushed", "eviction", "stall")),
    ],
    "nucleus": [
        ("repro.nucleus.actor", "Actor", ("read", "write")),
        ("repro.nucleus.vm_ops", "VmOpsMixin",
         ("rgn_allocate", "rgn_map", "rgn_init", "rgn_map_from_actor",
          "rgn_init_from_actor", "rgn_free")),
        ("repro.nucleus.nucleus", "Nucleus",
         ("create_actor", "destroy_actor")),
    ],
    "mix": [
        ("repro.mix.process_manager", "ProcessManager",
         ("spawn", "fork", "exec", "exit", "wait")),
    ],
}

#: Root index of a span with no parent on its thread.
NO_PARENT = -1


class _ThreadSpans:
    """Span columns of one thread, appended in start order."""

    __slots__ = ("name", "start", "end", "parent", "op", "error", "top")

    def __init__(self):
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.error = bytearray()
        self.top = NO_PARENT


class Recorder:
    """In-memory span store shared by every installed wrapper."""

    def __init__(self):
        #: wrapped function names, indexed by span ``name`` id.
        self.names = []
        self.layer_of = []
        self.threads = {}
        #: the thread that built the recorder: the benchmark's main thread.
        self.main_thread = threading.get_ident()
        #: the main thread's current op number (spans are tagged with it).
        self.op = -1
        self._lock = threading.Lock()

    def set_op(self, op: int) -> None:
        self.op = op

    def thread_spans(self) -> _ThreadSpans:
        ident = threading.get_ident()
        with self._lock:
            spans = self.threads.get(ident)
            if spans is None:
                spans = self.threads[ident] = _ThreadSpans()
        return spans

    def span_count(self) -> int:
        return sum(len(spans.name) for spans in self.threads.values())

    def write(self, directory: str) -> None:
        """Write the spans out: ``names.json`` plus one raw column file
        per thread and column (native byte order)."""
        os.makedirs(directory, exist_ok=True)
        with open(os.path.join(directory, "names.json"), "w") as out:
            json.dump({"names": self.names, "layers": self.layer_of,
                       "threads": len(self.threads),
                       "columns": {"name": "i", "start": "q", "end": "q",
                                   "parent": "i", "op": "i",
                                   "error": "B"}}, out)
        for index, spans in enumerate(self.threads.values()):
            for column in ("name", "start", "end", "parent", "op"):
                with open(os.path.join(directory,
                                       f"t{index}.{column}"), "wb") as out:
                    getattr(spans, column).tofile(out)
            with open(os.path.join(directory, f"t{index}.error"),
                      "wb") as out:
                out.write(spans.error)


def _wrap(fn, name_id: int, recorder: Recorder):
    clock = time.perf_counter_ns
    get_ident = threading.get_ident
    threads = recorder.threads
    thread_spans = recorder.thread_spans

    def traced(*args, **kwargs):
        spans = threads.get(get_ident())
        if spans is None:
            spans = thread_spans()
        index = len(spans.name)
        parent = spans.top
        spans.name.append(name_id)
        spans.parent.append(parent)
        spans.op.append(recorder.op)
        spans.error.append(0)
        spans.end.append(0)
        spans.start.append(0)
        spans.top = index
        spans.start[index] = clock()
        try:
            return fn(*args, **kwargs)
        except BaseException:
            spans.error[index] = 1
            raise
        finally:
            spans.end[index] = clock()
            spans.top = parent

    traced.__wrapped__ = fn
    traced.__name__ = fn.__name__
    traced.__qualname__ = fn.__qualname__
    traced.__doc__ = fn.__doc__
    return traced


def install(recorder: Recorder, layers=None):
    """Wrap every method in *layers* (default :data:`LAYERS`); return
    the list of ``(class, name, original)`` needed by :func:`uninstall`.

    Raises ``AttributeError`` or ``TypeError`` when a listed method is
    missing or is not a plain, non-generator function, so a renamed
    method shows up as a broken benchmark, not as a silently idle
    layer."""
    layers = LAYERS if layers is None else layers
    undo = []
    try:
        for layer, targets in layers.items():
            for module_name, class_name, methods in targets:
                cls = getattr(importlib.import_module(module_name),
                              class_name)
                for method in methods:
                    original = cls.__dict__.get(method)
                    fn = inspect.getattr_static(cls, method)
                    if not isinstance(fn, types.FunctionType) \
                            or inspect.isgeneratorfunction(fn):
                        raise TypeError(f"{class_name}.{method} is not a "
                                        "plain, non-generator function")
                    name_id = len(recorder.names)
                    recorder.names.append(f"{class_name}.{method}")
                    recorder.layer_of.append(layer)
                    setattr(cls, method, _wrap(fn, name_id, recorder))
                    undo.append((cls, method, original))
    except BaseException:
        uninstall(undo)
        raise
    return undo


def uninstall(undo) -> None:
    """Restore what :func:`install` replaced."""
    for cls, method, original in reversed(undo):
        if original is None:
            delattr(cls, method)
        else:
            setattr(cls, method, original)


def fold(recorder: Recorder) -> dict:
    """Fold every recorded span into per-layer ``{"calls", "self_ns",
    "errors"}`` and per-function ``{"calls", "span_ns"}`` totals."""
    layers = {layer: {"calls": 0, "self_ns": 0, "errors": 0}
              for layer in dict.fromkeys(recorder.layer_of)}
    functions = {name: {"calls": 0, "span_ns": 0}
                 for name in recorder.names}
    by_id = [functions[name] for name in recorder.names]
    layer_of = [layers[layer] for layer in recorder.layer_of]
    for spans in recorder.threads.values():
        starts, ends = spans.start, spans.end
        parents, names, errors = spans.parent, spans.name, spans.error
        count = len(names)
        child_ns = [0] * count
        for index in range(count):
            parent = parents[index]
            if parent != NO_PARENT:
                child_ns[parent] += ends[index] - starts[index]
        for index in range(count):
            duration = ends[index] - starts[index]
            name = names[index]
            function = by_id[name]
            function["calls"] += 1
            function["span_ns"] += duration
            stats = layer_of[name]
            stats["calls"] += 1
            stats["self_ns"] += duration - child_ns[index]
            stats["errors"] += errors[index]
    return {"layers": layers, "functions": functions}
