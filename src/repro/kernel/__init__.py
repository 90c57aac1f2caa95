"""Host-kernel substrate: virtual time, event counts, synchronization.

The GMI paper requires the "host" kernel to provide only a simple
synchronization interface (section 2).  This package provides that
interface, plus the virtual clock / cost model used to reproduce the
paper's timing tables on simulated hardware.  The clock counts events
into a :class:`~repro.obs.metrics.MetricsRegistry`, re-exported here
for the hardware layer, which counts into the same kind of store.
"""

from repro.kernel.clock import CostEvent, CostModel, VirtualClock
from repro.kernel.sync import HostSync
from repro.obs.metrics import MetricsRegistry

__all__ = [
    "CostEvent",
    "CostModel",
    "VirtualClock",
    "MetricsRegistry",
    "HostSync",
]
