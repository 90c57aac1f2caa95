"""Model-based property test of the metrics registry's counter contract.

The registry stores only the series that were incremented and sums
plain-name rollups when read.  The reference model below is the
original two-write bookkeeping: every labeled increment also writes
its rollup, and dropping one labeled series subtracts from it.  Random
increments (plain, labeled, precomputed key, count 0), scoped drops
(plain and labeled) and resets must leave both reading the same
values, rollups, snapshot keys and generation.
"""

import sys
import threading

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.obs.metrics import MetricsRegistry, series_name


class TwoWriteModel:
    """Counters as two writes per labeled increment."""

    def __init__(self):
        self.counters = {}
        self.generation = 0

    def inc(self, name, count):
        self.counters[name] = self.counters.get(name, 0) + count
        if "{" in name:
            base = name.partition("{")[0]
            self.counters[base] = self.counters.get(base, 0) + count

    def drop(self, names):
        for name in names:
            if "{" in name:
                base = name.partition("{")[0]
                dropped = self.counters.pop(name, 0)
                if dropped and base in self.counters:
                    remaining = self.counters[base] - dropped
                    if remaining > 0:
                        self.counters[base] = remaining
                    else:
                        del self.counters[base]
                continue
            self.counters.pop(name, None)
            for key in [key for key in self.counters
                        if key.startswith(name + "{")]:
                del self.counters[key]
        self.generation += 1

    def reset(self):
        self.counters.clear()
        self.generation += 1


BASES = ("a", "b.c")
#: A small label universe, so increments and drops keep meeting the
#: same series (zero-valued ones included).
LABEL_SETS = (None, {"x": "1"}, {"y": "2", "x": "1"})
KEYS = [series_name(base, labels) for base in BASES for labels in LABEL_SETS]


class RegistryMachine(RuleBasedStateMachine):
    """The registry and the two-write model, driven in lockstep."""

    def __init__(self):
        super().__init__()
        self.registry = MetricsRegistry()
        self.model = TwoWriteModel()

    @rule(base=st.sampled_from(BASES), labels=st.sampled_from(LABEL_SETS),
          count=st.sampled_from((0, 1, 2)), precomputed=st.booleans())
    def inc(self, base, labels, count, precomputed):
        key = series_name(base, labels)
        if labels and not precomputed:
            self.registry.inc(base, count, labels=labels)
        else:
            self.registry.inc(key, count)
        self.model.inc(key, count)

    @rule(data=st.data())
    def drop(self, data):
        # Mostly series that exist right now, where the rollup
        # bookkeeping happens; sometimes any key at all.
        present = sorted(self.model.counters) or KEYS
        names = data.draw(st.lists(
            st.sampled_from(present) | st.sampled_from(KEYS),
            min_size=1, max_size=2))
        self.registry.drop_counters(names)
        self.model.drop(names)

    @rule()
    def reset(self):
        self.registry.reset()
        self.model.reset()

    @invariant()
    def reads_agree(self):
        registry, values = self.registry, self.model.counters
        assert registry.counter_values() == values
        snapshot = registry.snapshot()
        assert snapshot["counters"] == values
        assert snapshot["generation"] == registry.generation \
            == self.model.generation
        for base in BASES:
            assert registry.counter_value(base) == values.get(base, 0)
            assert registry.labeled_counters(base) == {
                key: value for key, value in values.items()
                if key.startswith(base + "{")}
        for key in KEYS:
            assert registry.counter_value(key) == values.get(key, 0)


TestRegistryModel = RegistryMachine.TestCase
TestRegistryModel.settings = settings(max_examples=150,
                                      stateful_step_count=30,
                                      deadline=None)


def test_two_threads_increment_exactly():
    # The kernel thread and an I/O pool thread count into one
    # registry; a lost update between the read and the write of an
    # increment would break the totals.  A short switch interval makes
    # the threads interleave inside inc() as often as possible.
    registry = MetricsRegistry()
    rounds = 20000
    start = threading.Barrier(2)

    def work(own):
        start.wait()
        for _ in range(rounds):
            registry.inc("shared")
            registry.inc("shared{thread=both}")
            registry.inc(own)

    threads = [threading.Thread(target=work, args=(f"own{{thread={n}}}",))
               for n in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert registry.counter_value("shared{thread=both}") == 2 * rounds
    assert registry.counter_value("shared") == 4 * rounds
    assert registry.counter_value("own{thread=0}") == rounds
    assert registry.counter_value("own{thread=1}") == rounds
    assert registry.counter_value("own") == 2 * rounds
