"""How fast the host runs right now, against a fixed reference loop.

On a host shared with other tenants, their load can slow every thread
by up to 2x for seconds to minutes at a time.  The
worker times this fixed, program-independent loop between rounds and
scales each round's host time by it, so a slow phase of the machine
does not read as a slow program.

The loop is timed in the calling thread's CPU time: a core slowed by
its neighbours slows that clock too, but time spent waiting for the
interpreter lock, which the manager's I/O thread may hold, does not
count.  The fastest of a few short repeats is used.
"""

from __future__ import annotations

import time

#: Seconds one reference loop takes on the nominal host (an otherwise
#: idle core of a 2-vCPU x86-64 Linux VM running CPython 3.11).  Only
#: ratios of scaled times matter; this constant just keeps scaled
#: figures near raw ones on a quiet host.
NOMINAL_S = 0.001

#: Repeats of the loop per measurement; the fastest one counts.
REPEATS = 3


def _reference_loop() -> int:
    table = {}
    total = 0
    for index in range(8000):
        table[index & 1023] = index
        total += table.get(index & 511, 0)
    return total


def slowdown() -> float:
    """Host time of the reference loop now, over :data:`NOMINAL_S`."""
    best = None
    for _ in range(REPEATS):
        start = time.thread_time()
        _reference_loop()
        spent = time.thread_time() - start
        if best is None or spent < best:
            best = spent
    return best / NOMINAL_S
