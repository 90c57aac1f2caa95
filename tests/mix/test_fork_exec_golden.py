"""Golden lock on a 25-job fork/exec/exit script through ``repro.mix``.

A shell dirties a data page and forks, 25 times; two thirds of the
children exec a tool, read its text, write its data and touch a sparse
heap, the rest stay subshells that read and write inherited pages.
Every fork is a history-object deferred copy, every exit a teardown,
so the script pins the event stream of the fork path: the exact
``metrics_snapshot()`` counters (all but the segment-labeled series),
the virtual clock, compared with ``==``, and a digest of the clock's
charge stream in order (:mod:`tests.charge_stream`; the integer clock's
total does not depend on order, so the digest is what pins it).

If a deliberate mechanism change moves these numbers, regenerate the
golden and say so in the commit message::

    PYTHONPATH=src python -m tests.mix.test_fork_exec_golden
"""

import json
import pathlib
import random

from repro.bench.costmodel import CHORUS_SUN360, SUN360_MEMORY, SUN360_PAGE
from repro.mix import ProcessManager, ProgramStore
from repro.mix.program import Program
from repro.nucleus import Nucleus
from repro.segments import MemoryMapper
from tests.charge_stream import ChargeStream

GOLDEN_PATH = (pathlib.Path(__file__).resolve().parents[1]
               / "goldens" / "fork_exec_mix.json")

JOBS = 25
#: tool -> (text pages, data pages)
TOOLS = {"as": (3, 1), "cc": (6, 2), "ld": (4, 1)}
SH_DATA_PAGES = 32
HEAP_BASE = 0x2000_0000
HEAP_PAGES = 64


def run_script() -> dict:
    """Run the script on a fresh SUN-3/60 nucleus; return the virtual
    time, the counters of the final metrics snapshot and the charge
    stream's digest."""
    nucleus = Nucleus(cost_model=CHORUS_SUN360, memory_size=SUN360_MEMORY,
                      page_size=SUN360_PAGE, tlb_entries=64)
    stream = ChargeStream()
    nucleus.clock.add_listener(stream)
    page = nucleus.vm.page_size
    mapper = MemoryMapper()
    nucleus.register_mapper(mapper)
    store = ProgramStore(mapper, page)
    rng = random.Random(14)
    for name, (text, data) in TOOLS.items():
        store.install(name, text=rng.randbytes(text * page),
                      data=rng.randbytes(data * page))
    store.install("sh", text=rng.randbytes(2 * page),
                  data=rng.randbytes(SH_DATA_PAGES * page))
    manager = ProcessManager(nucleus, store)
    sh = manager.spawn("sh")
    data_size = SH_DATA_PAGES * page
    for job in range(JOBS):
        sh.write(Program.DATA_BASE + rng.randrange(data_size - 8),
                 rng.randbytes(8))
        child = sh.fork()
        if job % 3 != 2:
            tool = sorted(TOOLS)[job % 3]
            child.exec(tool)
            child.read(Program.TEXT_BASE
                       + rng.randrange(TOOLS[tool][0] * page - 32), 32)
            child.write(Program.DATA_BASE, rng.randbytes(16))
            nucleus.rgn_allocate(child.actor, HEAP_PAGES * page,
                                 address=HEAP_BASE)
            child.write(HEAP_BASE + rng.randrange(HEAP_PAGES) * page,
                        rng.randbytes(8))
        else:
            for _ in range(4):
                where = Program.DATA_BASE + rng.randrange(data_size - 32)
                child.read(where, 32)
                child.write(where, rng.randbytes(32))
        child.exit(0)
        assert manager.wait(sh) is child
    snapshot = nucleus.vm.metrics_snapshot()
    # Segment labels name process-wide actor and segment ids, which
    # depend on what else ran in the process; the plain-name rollups
    # still count those series.
    counters = {name: value
                for name, value in snapshot["counters"].items()
                if "segment=" not in name}
    return {"virtual_ms": nucleus.clock.now(), "counters": counters,
            "charges_sha256": stream.hexdigest()}


def test_fork_exec_script_matches_golden():
    golden = json.loads(GOLDEN_PATH.read_text())
    measured = run_script()
    # Exact equality on purpose: see the module docstring.
    assert measured["virtual_ms"] == golden["virtual_ms"]
    assert measured["counters"] == golden["counters"]
    assert measured["charges_sha256"] == golden["charges_sha256"]


if __name__ == "__main__":
    GOLDEN_PATH.write_text(
        json.dumps(run_script(), indent=2, sort_keys=True) + "\n")
