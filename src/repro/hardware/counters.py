"""Read access to a hardware component's counters in a metrics registry.

The MMU ports, the TLB and the buses count events straight into a
:class:`~repro.obs.metrics.MetricsRegistry` with ``registry.inc(key)``
on series keys they build once: ``<prefix><name><suffix>``, e.g.
``tlb.hit`` or ``mmu.walk_level1{port=paged}``.  A :class:`CounterView`
names those keys and reads them back by short name, so ``tlb.stats.get
("hit")`` answers from the same registry the manager snapshots.
"""

from __future__ import annotations

from typing import Dict

from repro.kernel import MetricsRegistry


class CounterView:
    """One component's counters: ``<prefix><name><suffix>`` series."""

    __slots__ = ("registry", "prefix", "suffix")

    def __init__(self, registry: MetricsRegistry, prefix: str = "",
                 suffix: str = ""):
        self.registry = registry
        self.prefix = prefix
        #: a fixed label set, already formatted (``{port=paged}``).
        self.suffix = suffix

    def key(self, name: str) -> str:
        """The series key counter *name* is stored under."""
        return self.prefix + name + self.suffix

    def add(self, name: str, count: int = 1) -> None:
        """Increment counter *name* (hot paths pass a precomputed key
        to ``registry.inc`` instead)."""
        self.registry.inc(self.prefix + name + self.suffix, count)

    def get(self, name: str) -> int:
        """Current value of counter *name* (0 if never incremented)."""
        return self.registry.counter_value(self.prefix + name + self.suffix)

    def snapshot(self) -> Dict[str, int]:
        """This component's counters, keyed by short name."""
        prefix, suffix = self.prefix, self.suffix
        start, stop = len(prefix), -len(suffix) or None
        return {
            key[start:stop]: value
            for key, value in self.registry.counter_values().items()
            if key.startswith(prefix) and (
                key.endswith(suffix) if suffix else "{" not in key)
        }

    def rebind(self, registry: MetricsRegistry) -> None:
        """Move these counters into *registry*, counts preserved.

        Used when a component built before its manager (an MMU or a
        TLB handed to the constructor) is adopted into the manager's
        shared registry.
        """
        if registry is self.registry:
            return
        moved = {self.key(name): value
                 for name, value in self.snapshot().items()}
        self.registry.drop_counters(moved)
        for key, value in moved.items():
            if value:
                registry.inc(key, value)
        self.registry = registry

    def __repr__(self) -> str:
        nonzero = {k: v for k, v in self.snapshot().items() if v}
        return f"CounterView({self.prefix!r}, {nonzero!r})"
