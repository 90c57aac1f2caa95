"""The three benchmark workloads, their seeded inputs and reference models.

Every workload drives the shipping PVM on the SUN-3/60 configuration
(:func:`build_nucleus`) from one main thread, one operation at a
time, in a closed loop.  Inputs come from ``random.Random(seed)`` in
this file only -- never from the program's own generators -- so a
change to the program cannot change what the benchmark feeds it.

Each workload object has these steps:

``__init__(seed)``
    input generation (excluded from every timing);
``setup()``
    builds the system and brings it to steady state (timed as
    ``setup_s``); returns a state dict;
``prepare(state)`` (optional)
    input preparation that needs the built system (untimed);
``run_round(state, log)``
    one round of operations.  Each operation is timed on its own and
    checked against the workload's reference model; the outcome goes
    into the :class:`OpLog`;
``verify(state, log)`` (optional)
    an end-of-run check of the model against the system's state.

A round is the unit at which the measured phase may stop, so the
virtual time of the first ``REFERENCE_ROUNDS`` rounds (``sim_ms``) is
deterministic for a seed whatever the host speed.
"""

from __future__ import annotations

import random
import time
from array import array
from bisect import bisect_left

from repro.bench.costmodel import CHORUS_SUN360, SUN360_MEMORY, SUN360_PAGE
from repro.hardware.vbus import VectorBus
from repro.mix.process_manager import ProcessManager
from repro.mix.program import Program, ProgramStore
from repro.nucleus.nucleus import Nucleus
from repro.pressure import (
    AdmissionController, BalancerDaemon, FrameArbiter, WorkingSetEstimator,
)
from repro.pvm.pvm import PagedVirtualMemory
from repro.segments.disk import SimulatedDisk
from repro.segments.file_mapper import DiskMapper

#: The modelled machine and manager knobs every workload shares.
CONFIG = {
    "backend": "pvm",
    "cost_model": CHORUS_SUN360.name,
    "frames": SUN360_MEMORY // SUN360_PAGE,
    "page_size": SUN360_PAGE,
    "tlb_entries": 64,
    "cluster": "adaptive",
    "io_threads": 1,
}

REGION_BASE = 0x0010_0000


def build_nucleus(arbiter=None) -> Nucleus:
    """A fresh Nucleus over the PVM with the :data:`CONFIG` knobs."""
    return Nucleus(vm_class=PagedVirtualMemory, cost_model=CHORUS_SUN360,
                   memory_size=SUN360_MEMORY, page_size=SUN360_PAGE,
                   tlb_entries=CONFIG["tlb_entries"],
                   cluster_policy=CONFIG["cluster"],
                   io_threads=CONFIG["io_threads"], arbiter=arbiter)


def close_system(state: dict) -> None:
    """Drain and stop the manager's I/O pool thread."""
    io = state["vm"].io
    io.flush()
    io.close()


class OpLog:
    """Per-operation outcomes of one run: host latency of every op that
    completed, and failures (an op that raised, or whose result
    disagreed with the reference model)."""

    def __init__(self):
        self.latency_ns = array("q")
        self.attempted = 0
        self.failed = 0
        self.errors = []
        #: called with the op number before each op (the tracer sets
        #: it to tag spans); None when tracing is off.
        self.on_op = None

    def begin(self) -> None:
        if self.on_op is not None:
            self.on_op(self.attempted)
        self.attempted += 1

    def fail(self, what: str, op: bool = True) -> None:
        """Count a failure; *op* False for a check outside any one op."""
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(f"op {self.attempted - 1}: {what}"
                               if op else what)


def zero_fill_write_survives_eviction() -> bool:
    """Whether a write in place to a page zero-filled by a *read* fault
    survives that page's eviction, on a 16-frame nucleus with the
    :data:`CONFIG` knobs.  False while the program's known defect
    stands: the page is mapped writable but never marked dirty."""
    nucleus = Nucleus(vm_class=PagedVirtualMemory, cost_model=CHORUS_SUN360,
                      memory_size=16 * SUN360_PAGE, page_size=SUN360_PAGE,
                      tlb_entries=CONFIG["tlb_entries"],
                      cluster_policy=CONFIG["cluster"],
                      io_threads=CONFIG["io_threads"])
    actor = nucleus.create_actor("probe")
    nucleus.rgn_allocate(actor, 64 * SUN360_PAGE, address=REGION_BASE)
    try:
        actor.read(REGION_BASE, 1)
        actor.write(REGION_BASE, b"\x2a")
        for page in range(1, 64):
            actor.read(REGION_BASE + page * SUN360_PAGE, 1)
        return actor.read(REGION_BASE, 1) == b"\x2a"
    finally:
        close_system({"vm": nucleus.vm})


# -- overcommit_mix -----------------------------------------------------------

class OvercommitMix:
    """24 tenants overcommit a 960-frame budget under the pressure
    policy layer: one 400-page thrasher and 23 tenants of 24-64 pages.

    One op is one ``Actor.read`` or ``Actor.write`` of byte 0 of a
    page.  Reference model: a read returns the last byte written to
    that page.

    Setup's first touch writes every page (a seeded nonzero byte), so
    the measured phase never zero-fills on a read fault: the program
    loses a write made in place to a page zero-filled by a read fault
    once that page is evicted (see README.md, "Known program defect").
    Every run checks that path apart, with
    :func:`zero_fill_write_survives_eviction`, and reports the outcome
    without counting it as a failed op."""

    name = "overcommit_mix"
    op_unit = "access"
    TENANTS = 24
    THRASHER_PAGES = 400
    MIN_WS, MAX_WS = 24, 64
    BUDGET = 960
    FLOOR = 8
    WRITE_SHARE = 0.3
    #: distinct round schedules generated; longer runs cycle them.
    CYCLE_ROUNDS = 32
    REFERENCE_ROUNDS = 4

    def __init__(self, seed: int):
        rng = random.Random(f"{self.name}:{seed}")
        # The 23 well-behaved sizes are a seeded shuffle of an even
        # spread over 24..64 pages: every seed puts the same total
        # pressure on the arbiter, so seeds differ in which tenant is
        # large and in access order, not in how overcommitted RAM is.
        spread = [self.MIN_WS + round(i * (self.MAX_WS - self.MIN_WS)
                                      / (self.TENANTS - 2))
                  for i in range(self.TENANTS - 1)]
        rng.shuffle(spread)
        self.sizes = [self.THRASHER_PAGES] + spread
        #: per round, per tenant: (page order, write payload per page
        #: index or 0 for a read) -- exactly 30% writes per tenant.
        self.rounds = []
        for _ in range(self.CYCLE_ROUNDS):
            schedule = []
            for pages in self.sizes:
                order = list(range(pages))
                rng.shuffle(order)
                writes = set(rng.sample(range(pages),
                                        round(pages * self.WRITE_SHARE)))
                schedule.append(array("H", order))
                schedule.append(bytes(rng.randrange(1, 256)
                                      if index in writes else 0
                                      for index in range(pages)))
            self.rounds.append(schedule)
        #: per tenant, the byte setup's first touch writes to each page.
        self.initial = [bytes(rng.randrange(1, 256) for _ in range(pages))
                        for pages in self.sizes]
        self.ops_per_round = sum(self.sizes)

    def setup(self) -> dict:
        arbiter = FrameArbiter(
            global_budget=self.BUDGET, floor_pages=self.FLOOR,
            ws=WorkingSetEstimator(),
            qos=AdmissionController(window_ms=10.0, fault_limit=64))
        nucleus = build_nucleus(arbiter=arbiter)
        vm = nucleus.vm
        page_size = vm.page_size
        actors = []
        for index, pages in enumerate(self.sizes):
            actor = nucleus.create_actor(f"tenant-{index}")
            nucleus.rgn_allocate(actor, pages * page_size,
                                 address=REGION_BASE)
            actors.append(actor)
        daemon = BalancerDaemon(vm)
        # One first-touch round: every page zero-fills once, on a write
        # fault, and holds its initial byte.
        for actor, initial in zip(actors, self.initial):
            for page, value in enumerate(initial):
                actor.write(REGION_BASE + page * page_size, bytes((value,)))
        daemon.tick()
        return {"nucleus": nucleus, "vm": vm, "clock": nucleus.clock,
                "actors": actors, "daemon": daemon, "round": 0,
                "model": [bytearray(initial) for initial in self.initial]}

    def run_round(self, state: dict, log: OpLog) -> int:
        schedule = self.rounds[state["round"] % self.CYCLE_ROUNDS]
        state["round"] += 1
        page_size = state["vm"].page_size
        now = time.perf_counter_ns
        latency = log.latency_ns
        for tenant, actor in enumerate(state["actors"]):
            model = state["model"][tenant]
            order = schedule[2 * tenant]
            payloads = schedule[2 * tenant + 1]
            for page in order:
                vaddr = REGION_BASE + page * page_size
                value = payloads[page]
                log.begin()
                try:
                    if value:
                        data = bytes((value,))
                        start = now()
                        actor.write(vaddr, data)
                        latency.append(now() - start)
                        model[page] = value
                        continue
                    start = now()
                    data = actor.read(vaddr, 1)
                    latency.append(now() - start)
                except Exception as exc:  # counted, run continues
                    log.fail(f"{type(exc).__name__}: {exc}")
                    continue
                if data[0] != model[page]:
                    log.fail(f"tenant {tenant} page {page} read "
                             f"{data[0]}, model {model[page]}")
        state["daemon"].tick()
        return self.ops_per_round


# -- replay_zipf --------------------------------------------------------------

class ReplayZipf:
    """Vectorized replay of a Zipf(1.2) trace over 4 prewarmed spaces
    of 192 pages, round-robin timeslices of 1024 accesses, fed to
    ``VectorBus.replay`` in chunks of 4096.

    One op is one chunk.  Reference model: every replay executes the
    whole chunk; at the end each page holds the fill byte if some
    executed access wrote it and the prewarm byte otherwise."""

    name = "replay_zipf"
    op_unit = "chunk"
    SPACES = 4
    PAGES = 192
    SKEW = 1.2
    WRITE_SHARE = 0.2
    TIMESLICE = 1024
    CHUNK = 4096
    #: accesses generated; longer runs replay the trace cyclically.
    TRACE_CHUNKS = 256
    CHUNKS_PER_ROUND = 16
    REFERENCE_ROUNDS = 16
    PREWARM_BYTE = 0x5A

    def __init__(self, seed: int):
        rng = random.Random(f"{self.name}:{seed}")
        weights = [1.0 / (rank + 1) ** self.SKEW
                   for rank in range(self.PAGES)]
        total = sum(weights)
        cumulative = []
        running = 0.0
        for weight in weights:
            running += weight / total
            cumulative.append(running)
        # Each space ranks its pages in its own seeded order, so the
        # hot pages differ between spaces.
        ranks = []
        for _ in range(self.SPACES):
            order = list(range(self.PAGES))
            rng.shuffle(order)
            ranks.append(order)
        length = self.TRACE_CHUNKS * self.CHUNK
        rand = rng.random
        last = self.PAGES - 1
        pages = array("q")
        writes = bytearray()
        slots = array("q")
        for start in range(0, length, self.TIMESLICE):
            slot = (start // self.TIMESLICE) % self.SPACES
            rank = ranks[slot]
            for _ in range(self.TIMESLICE):
                pages.append(rank[min(bisect_left(cumulative, rand()),
                                      last)])
                writes.append(1 if rand() < self.WRITE_SHARE else 0)
            slots.extend([slot] * self.TIMESLICE)
        self.pages, self.writes, self.slots = pages, writes, slots
        self.fill = rng.choice([b for b in range(1, 256)
                                if b != self.PREWARM_BYTE])
        #: first chunk that writes each (slot, page); absent = never.
        self.first_write = {}
        for index in range(length):
            if writes[index]:
                key = (slots[index], pages[index])
                if key not in self.first_write:
                    self.first_write[key] = index // self.CHUNK

    def setup(self) -> dict:
        nucleus = build_nucleus()
        vm = nucleus.vm
        page_size = vm.page_size
        prewarm = bytes((self.PREWARM_BYTE,))
        actors = []
        for index in range(self.SPACES):
            actor = nucleus.create_actor(f"space-{index}")
            nucleus.rgn_allocate(actor, self.PAGES * page_size,
                                 address=REGION_BASE)
            for page in range(self.PAGES):
                actor.write(REGION_BASE + page * page_size, prewarm)
            actors.append(actor)
        vbus = VectorBus(vm.bus, registry=vm.probe.registry)
        return {"nucleus": nucleus, "vm": vm, "clock": nucleus.clock,
                "actors": actors, "vbus": vbus, "chunk": 0}

    def prepare(self, state: dict) -> None:
        """Input preparation that needs the built system (untimed): the
        chunked (pages, writes, spaces) columns for *state*'s hardware
        space ids, as the replay engine wants them."""
        space_of = [actor.context.space for actor in state["actors"]]
        spaces = array("q", (space_of[slot] for slot in self.slots))
        if state["vbus"].backend == "numpy":
            import numpy

            columns = (numpy.frombuffer(self.pages, dtype=numpy.int64),
                       numpy.frombuffer(bytes(self.writes),
                                        dtype=numpy.uint8),
                       numpy.frombuffer(spaces, dtype=numpy.int64))
        else:
            columns = (self.pages, self.writes, spaces)
        state["chunks"] = [tuple(column[start:start + self.CHUNK]
                                 for column in columns)
                           for start in range(0, len(self.pages),
                                              self.CHUNK)]

    def run_round(self, state: dict, log: OpLog) -> int:
        chunks = state["chunks"]
        replay = state["vbus"].replay
        base_vpn = REGION_BASE // state["vm"].page_size
        first_space = state["actors"][0].context.space
        fill = self.fill
        now = time.perf_counter_ns
        latency = log.latency_ns
        for _ in range(self.CHUNKS_PER_ROUND):
            pages, writes, spaces = chunks[state["chunk"] % len(chunks)]
            state["chunk"] += 1
            log.begin()
            try:
                start = now()
                done = replay(first_space, pages, writes, spaces=spaces,
                              base_vpn=base_vpn, fill=fill)
                latency.append(now() - start)
            except Exception as exc:  # counted, run continues
                log.fail(f"{type(exc).__name__}: {exc}")
                continue
            if done != self.CHUNK:
                log.fail(f"replay executed {done} of {self.CHUNK}")
        return self.CHUNKS_PER_ROUND

    def verify(self, state: dict, log: OpLog) -> None:
        """End-of-run model check of every page's byte 0."""
        page_size = state["vm"].page_size
        executed = min(state["chunk"], self.TRACE_CHUNKS)
        for slot, actor in enumerate(state["actors"]):
            for page in range(self.PAGES):
                first = self.first_write.get((slot, page))
                expected = self.fill if first is not None \
                    and first < executed else self.PREWARM_BYTE
                got = actor.read(REGION_BASE + page * page_size, 1)[0]
                if got != expected:
                    log.fail(f"space {slot} page {page} holds {got}, "
                             f"model {expected}", op=False)


# -- fork_exec ----------------------------------------------------------------

class ForkExec:
    """Unix process lifecycle on history objects through ``repro.mix``.

    A long-lived ``sh`` dirties one data page and forks; two thirds of
    the children exec cc/as/ld from a disk-backed program store, read
    3 text pages, write their data, reserve a 16 MB sparse heap and
    touch 4 pages of it; the rest stay subshells that read and write 4
    inherited data pages.  Each child exits and ``sh`` waits.

    One op is one job.  Reference model: a child sees the parent's
    bytes as they were at fork, the parent never sees a child's
    writes, and exec'd text equals the program image."""

    name = "fork_exec"
    op_unit = "job"
    #: (text bytes, data bytes), the sizes of the tools in a make run.
    TOOLS = {"cc": (48 * 1024, 16 * 1024),
             "as": (24 * 1024, 8 * 1024),
             "ld": (32 * 1024, 8 * 1024)}
    SH_TEXT = 16 * 1024
    SH_DATA = 256 * 1024
    HEAP_BASE = 0x2000_0000
    HEAP_SIZE = 16 * 1024 * 1024
    TEXT_READS = 3
    HEAP_TOUCHES = 4
    SUBSHELL_PAGES = 4
    READ_SIZE = 32
    #: jobs generated (2/3 exec, 1/3 subshell); longer runs cycle them.
    CYCLE_JOBS = 600
    JOBS_PER_ROUND = 25
    REFERENCE_ROUNDS = 40

    def __init__(self, seed: int):
        rng = random.Random(f"{self.name}:{seed}")
        page = SUN360_PAGE
        self.images = {}
        for name, (text, data) in self.TOOLS.items():
            self.images[name] = (rng.randbytes(text),
                                 rng.randbytes(data))
        self.images["sh"] = (rng.randbytes(self.SH_TEXT),
                             rng.randbytes(self.SH_DATA))
        sh_pages = self.SH_DATA // page
        heap_pages = self.HEAP_SIZE // page
        kinds = ["exec"] * (2 * self.CYCLE_JOBS // 3)
        kinds += ["sh"] * (self.CYCLE_JOBS - len(kinds))
        rng.shuffle(kinds)
        tools = sorted(self.TOOLS)
        self.jobs = []
        for kind in kinds:
            job = {"dirty": (rng.randrange(sh_pages) * page
                             + rng.randrange(page - 8),
                             rng.randbytes(8)),
                   "kind": kind}
            if kind == "exec":
                tool = rng.choice(tools)
                text_pages = self.TOOLS[tool][0] // page
                job["tool"] = tool
                job["text"] = [p * page + rng.randrange(page - self.READ_SIZE)
                               for p in rng.sample(range(text_pages),
                                                   self.TEXT_READS)]
                job["data"] = rng.randbytes(16)
                job["heap"] = [(p * page, rng.randbytes(8))
                               for p in rng.sample(range(heap_pages),
                                                   self.HEAP_TOUCHES)]
            else:
                job["pages"] = [(p * page
                                 + rng.randrange(page - self.READ_SIZE),
                                 rng.randbytes(self.READ_SIZE))
                                for p in rng.sample(range(sh_pages),
                                                    self.SUBSHELL_PAGES)]
            self.jobs.append(job)

    def setup(self) -> dict:
        nucleus = build_nucleus()
        vm = nucleus.vm
        disk = SimulatedDisk(vm.page_size, clock=nucleus.clock)
        mapper = DiskMapper(disk)
        nucleus.register_mapper(mapper)
        store = ProgramStore(mapper, vm.page_size)
        for name, (text, data) in self.images.items():
            store.install(name, text=text, data=data)
        manager = ProcessManager(nucleus, store)
        sh = manager.spawn("sh")
        # Warm the segment cache: one exec of each tool.
        for tool in sorted(self.TOOLS):
            child = sh.fork()
            child.exec(tool)
            child.exit(0)
            manager.wait(sh)
        return {"nucleus": nucleus, "vm": vm, "clock": nucleus.clock,
                "manager": manager, "sh": sh, "job": 0,
                "model": bytearray(self.images["sh"][1])}

    def run_round(self, state: dict, log: OpLog) -> int:
        manager, sh, model = state["manager"], state["sh"], state["model"]
        nucleus = state["nucleus"]
        data_base, text_base = Program.DATA_BASE, Program.TEXT_BASE
        size = self.READ_SIZE
        now = time.perf_counter_ns
        for _ in range(self.JOBS_PER_ROUND):
            job = self.jobs[state["job"] % self.CYCLE_JOBS]
            state["job"] += 1
            log.begin()
            mismatches = []
            try:
                start = now()
                offset, payload = job["dirty"]
                sh.write(data_base + offset, payload)
                model[offset:offset + len(payload)] = payload
                child = sh.fork()
                if job["kind"] == "exec":
                    child.exec(job["tool"])
                    text = self.images[job["tool"]][0]
                    for where in job["text"]:
                        if child.read(text_base + where, size) \
                                != text[where:where + size]:
                            mismatches.append(f"text@{where:#x}")
                    child.write(data_base, job["data"])
                    nucleus.rgn_allocate(child.actor, self.HEAP_SIZE,
                                         address=self.HEAP_BASE)
                    for where, data in job["heap"]:
                        child.write(self.HEAP_BASE + where, data)
                else:
                    for where, data in job["pages"]:
                        if child.read(data_base + where, size) \
                                != bytes(model[where:where + size]):
                            mismatches.append(f"inherited@{where:#x}")
                        child.write(data_base + where, data)
                child.exit(0)
                reaped = manager.wait(sh)
                log.latency_ns.append(now() - start)
            except Exception as exc:  # counted, run continues
                log.fail(f"{type(exc).__name__}: {exc}")
                continue
            if reaped is not child:
                mismatches.append("wait reaped the wrong child")
            # The parent must not see the child's writes.
            checks = [(offset, len(payload))]
            if job["kind"] != "exec":
                checks += [(where, size) for where, _ in job["pages"]]
            for where, length in checks:
                if sh.read(data_base + where, length) \
                        != bytes(model[where:where + length]):
                    mismatches.append(f"parent@{where:#x}")
            if mismatches:
                log.fail(", ".join(mismatches))
        return self.JOBS_PER_ROUND


WORKLOADS = {cls.name: cls for cls in (OvercommitMix, ReplayZipf, ForkExec)}
