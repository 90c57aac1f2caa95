"""The metrics registry: named counters, gauges and histograms.

One registry per memory manager; the virtual clock, the TLB, the
probe and the reporting tools all read and write the same instance.
Counters are plain integers in a dict (the cheapest thing Python can
increment under a lock); histograms keep a bounded sample plus exact
count/sum/min/max, so percentiles stay available without unbounded
memory growth.

Metrics may carry **label dimensions**: ``inc("fault.write",
labels={"backend": "pvm"})`` (or the precomputed series key
``"fault.write{backend=pvm}"``) increments the labeled
``name{k=v,...}`` series — one dict write.  The plain-name rollup is
summed over its series when read, so every consumer that predates
labels (vmstat columns, snapshot schemas, ``counter_value``) keeps
reading the aggregate it always read, while new consumers can
decompose the same cost by backend, MMU port, pipeline stage or
segment.
"""

from __future__ import annotations

import threading
from functools import lru_cache
from typing import Dict, Iterable, List, Mapping, Optional, Tuple


def series_name(name: str, labels: Optional[Mapping[str, object]]) -> str:
    """The storage key of a labeled series: ``name{k=v,...}``.

    Label keys are sorted so the same label set always produces the
    same series, whatever order the call site wrote it in.
    """
    if not labels:
        return name
    inner = ",".join(f"{key}={labels[key]}" for key in sorted(labels))
    return f"{name}{{{inner}}}"


@lru_cache(maxsize=4096)
def series_key(name: str, *pairs: Tuple[str, object]) -> str:
    """Memoized :func:`series_name` for hot call sites whose label
    values vary per call (a segment name, an access mode): label pairs
    are passed positionally, ``series_key("cache.miss", ("segment",
    name))``, and a repeated label set costs one cache probe instead
    of a sort and a format."""
    return series_name(name, dict(pairs))


def split_series(series: str) -> Tuple[str, Dict[str, str]]:
    """Invert :func:`series_name`: ``(base name, labels dict)``.

    Plain names come back with an empty labels dict.
    """
    if "{" not in series:
        return series, {}
    base, _, raw = series.partition("{")
    raw = raw.rstrip("}")
    labels: Dict[str, str] = {}
    for pair in raw.split(","):
        if pair:
            key, _, value = pair.partition("=")
            labels[key] = value
    return base, labels


class Histogram:
    """A latency/depth distribution: exact moments, sampled quantiles."""

    __slots__ = ("name", "count", "total", "min", "max", "_sample",
                 "_sample_limit")

    def __init__(self, name: str, sample_limit: int = 8192):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._sample: List[float] = []
        self._sample_limit = sample_limit

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if len(self._sample) < self._sample_limit:
            self._sample.append(value)
        else:
            # Deterministic decimating reservoir: overwrite round-robin,
            # keeping the sample representative without randomness.
            self._sample[self.count % self._sample_limit] = value

    @property
    def mean(self) -> float:
        """Arithmetic mean of every observation (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """The *q*-th percentile (0 <= q <= 100) over the kept sample.

        An empty histogram answers 0.0 for any *q*.  The extremes are
        answered from the exact running min/max, not the bounded
        sample, so ``percentile(0)`` / ``percentile(100)`` stay correct
        even after the reservoir started decimating observations.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile {q!r} outside [0, 100]")
        if not self._sample:
            return 0.0
        if q == 0.0:
            return self.min if self.min is not None else self._sample[0]
        if q == 100.0:
            return self.max if self.max is not None else self._sample[0]
        ordered = sorted(self._sample)
        if len(ordered) == 1:
            return ordered[0]
        rank = (q / 100.0) * (len(ordered) - 1)
        low = int(rank)
        high = min(low + 1, len(ordered) - 1)
        fraction = rank - low
        return ordered[low] * (1 - fraction) + ordered[high] * fraction

    def summary(self) -> Dict[str, float]:
        """The JSON-friendly digest used by ``MetricsRegistry.snapshot``."""
        return {
            "count": self.count,
            "min": self.min if self.min is not None else 0.0,
            "max": self.max if self.max is not None else 0.0,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
        }

    def __repr__(self) -> str:
        return f"Histogram({self.name!r}, n={self.count}, mean={self.mean:.3f})"


class MetricsRegistry:
    """A thread-safe bag of named counters, gauges and histograms.

    The counter store holds only the series that were incremented, a
    plain name or a labeled ``name{k=v,...}`` key, so one event is one
    dict write.  A plain name reads as its rollup: the sum of the plain
    series and every labeled series of that name, computed by
    :meth:`counter_value`, :meth:`counter_values`,
    :meth:`labeled_counters` and :meth:`snapshot`.

    The *generation* number increments on every (partial or full)
    counter reset; interval samplers compare generations to detect that
    their baseline went stale (the ``VmStat`` resampling contract).
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {}
        #: rollup name -> the stored series it sums (its own plain
        #: series included).  A rollup reads as present while it is
        #: listed here, even with no series left to sum.
        self._rollups: Dict[str, Dict[str, None]] = {}
        #: labeled series that read as 0 after a drop took their
        #: rollup to zero and removed it; the next increment stores
        #: them again (and so brings the rollup back).
        self._zeroed: Dict[str, None] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, Histogram] = {}
        self.generation = 0
        #: When False the write paths (inc / set_gauge / observe)
        #: return after a single attribute check: the idle fast path.
        #: Every counter an event-heavy run would have produced is
        #: simply absent, so pause a registry only around code whose
        #: metrics nobody will read (the bench harness does this for
        #: its timed repeats; the instrumented pass re-enables).
        self.enabled = True

    # -- counters -----------------------------------------------------------

    def inc(self, name: str, count: int = 1,
            labels: Optional[Mapping[str, object]] = None) -> None:
        """Increment counter *name* by *count*.

        With *labels* (or a precomputed ``name{k=v,...}`` series key)
        only the labeled series is written; the plain-name rollup
        includes it when read.
        """
        if not self.enabled:
            return
        if labels:
            name = series_name(name, labels)
        # acquire/try/finally rather than `with`: the same guarantee
        # for a fraction of the cost on the per-event path.
        lock = self._lock
        lock.acquire()
        try:
            counters = self._counters
            value = counters.get(name)
            if value is None:
                self._store(name, count)
            else:
                counters[name] = value + count
        finally:
            lock.release()

    def _store(self, name: str, count: int) -> None:
        """First increment of a series: store it under its rollup
        (lock held)."""
        self._counters[name] = count
        base = name.partition("{")[0]
        series = self._rollups.get(base)
        if series is None:
            series = self._rollups[base] = {}
        series[name] = None
        self._zeroed.pop(name, None)

    def _values(self) -> Dict[str, int]:
        """Every readable counter: stored series plus rollups (lock
        held)."""
        counters = self._counters
        values = dict.fromkeys(self._zeroed, 0)
        for base, series in self._rollups.items():
            total = 0
            for key in series:
                value = values[key] = counters[key]
                total += value
            values[base] = total
        return values

    def counter_value(self, name: str,
                      labels: Optional[Mapping[str, object]] = None) -> int:
        """Current value of counter *name* (0 if never incremented).

        A plain *name* reads the rollup (every labeled increment is
        included); pass *labels* or a series key for one breakdown.
        """
        if labels:
            name = series_name(name, labels)
        with self._lock:
            if "{" in name:
                return self._counters.get(name, 0)
            counters = self._counters
            return sum(counters[key] for key in self._rollups.get(name, ()))

    def counter_values(self) -> Dict[str, int]:
        """A copy of every counter (labeled series and rollups)."""
        with self._lock:
            return self._values()

    def labeled_counters(self, name: str) -> Dict[str, int]:
        """Every labeled series of counter *name*, keyed by series."""
        prefix = name + "{"
        with self._lock:
            return {
                key: value for key, value in self._values().items()
                if key.startswith(prefix)
            }

    def drop_counters(self, names: Iterable[str]) -> None:
        """Remove the given counters entirely (a scoped reset).

        A plain name takes its labeled series with it.  Dropping one
        labeled series takes its value out of the rollup; a rollup
        that falls to zero that way is removed (its zero-valued series
        stay), while dropping a zero-valued series leaves the rollup
        as it was.  Bumps the generation so samplers resample their
        baselines.
        """
        with self._lock:
            counters = self._counters
            for name in names:
                base, brace, _ = name.partition("{")
                if not brace:
                    for key in self._rollups.pop(name, ()):
                        del counters[key]
                    prefix = name + "{"
                    for key in [key for key in self._zeroed
                                if key.startswith(prefix)]:
                        del self._zeroed[key]
                    continue
                self._zeroed.pop(name, None)
                dropped = counters.pop(name, None)
                if dropped is None:
                    continue
                series = self._rollups[base]
                del series[name]
                if not dropped:
                    continue
                if sum(counters[key] for key in series) <= 0:
                    del self._rollups[base]
                    for key in series:
                        del counters[key]
                        if key != base:
                            self._zeroed[key] = None
            self.generation += 1

    # -- gauges -------------------------------------------------------------

    def set_gauge(self, name: str, value: float,
                  labels: Optional[Mapping[str, object]] = None) -> None:
        """Set gauge *name* to *value* (last write wins).

        A labeled gauge has no meaningful rollup (last-write-wins does
        not aggregate), so only the labeled series is written.
        """
        if not self.enabled:
            return
        if labels:
            name = series_name(name, labels)
        with self._lock:
            self._gauges[name] = value

    def gauge_value(self, name: str, default: float = 0.0,
                    labels: Optional[Mapping[str, object]] = None) -> float:
        """Current value of gauge *name*."""
        if labels:
            name = series_name(name, labels)
        with self._lock:
            return self._gauges.get(name, default)

    def labeled_gauges(self, name: str) -> Dict[str, float]:
        """Every labeled series of gauge *name*, keyed by series."""
        prefix = name + "{"
        with self._lock:
            return {
                key: value for key, value in self._gauges.items()
                if key.startswith(prefix)
            }

    def drop_gauges(self, names: Iterable[str]) -> None:
        """Remove the given gauges (a plain name takes its labeled
        series with it).  Gauges have no rollups to adjust and no
        samplers tracking them, so the generation does not move."""
        with self._lock:
            for name in names:
                self._gauges.pop(name, None)
                if "{" in name:
                    continue
                prefix = name + "{"
                for key in [key for key in self._gauges
                            if key.startswith(prefix)]:
                    del self._gauges[key]

    # -- histograms ---------------------------------------------------------

    def observe(self, name: str, value: float,
                labels: Optional[Mapping[str, object]] = None) -> None:
        """Record one observation into histogram *name*.

        With *labels* the observation lands in both the labeled series
        and the plain-name rollup histogram.
        """
        if not self.enabled:
            return
        if labels:
            name = series_name(name, labels)
        with self._lock:
            histograms = self._histograms
            histogram = histograms.get(name)
            if histogram is None:
                histogram = histograms[name] = Histogram(name)
            histogram.observe(value)
            if "{" in name:
                base = name.partition("{")[0]
                rollup = histograms.get(base)
                if rollup is None:
                    rollup = histograms[base] = Histogram(base)
                rollup.observe(value)

    def histogram(self, name: str,
                  labels: Optional[Mapping[str, object]] = None) -> Histogram:
        """The histogram named *name* (created empty if absent)."""
        if labels:
            name = series_name(name, labels)
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = Histogram(name)
            return histogram

    # -- lifecycle ----------------------------------------------------------

    def reset(self) -> None:
        """Clear every metric; bump the generation."""
        with self._lock:
            self._counters.clear()
            self._rollups.clear()
            self._zeroed.clear()
            self._gauges.clear()
            self._histograms.clear()
            self.generation += 1

    def snapshot(self) -> Dict[str, object]:
        """One atomic, JSON-serializable copy of everything."""
        with self._lock:
            return {
                "generation": self.generation,
                "counters": self._values(),
                "gauges": dict(self._gauges),
                "histograms": {
                    name: histogram.summary()
                    for name, histogram in self._histograms.items()
                },
            }

    def __repr__(self) -> str:
        with self._lock:
            return (f"MetricsRegistry({len(self._values())} counters, "
                    f"{len(self._gauges)} gauges, "
                    f"{len(self._histograms)} histograms, "
                    f"gen={self.generation})")
