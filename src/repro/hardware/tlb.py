"""A small fully-associative TLB with LRU replacement.

Optional: an MMU works without one.  When attached, ``translate``
consults it first; map/unmap/protect shoot down the affected entry.
Hit/miss statistics feed the MMU-port ablation benchmark.

Internally the TLB is **generation-tagged**: each entry carries the
generation its space had when it was filled, and ``flush_space`` just
bumps the space's generation and drops the space's key index — O(1)
in the TLB capacity instead of a linear scan.  Stale entries (older
generation than their space) are invisible to ``probe`` and are
reaped lazily when encountered; because a stale entry is exactly one
the eager implementation would already have deleted, every observable
counter (hit/miss/evict/shootdown/space_flush/full_flush) and
``occupancy`` matches the eager behaviour bit for bit.

The TLB also supports **extent-granular entries** (opt-in via the
keyword-only ``run_entries`` capacity): one run entry covers a whole
contiguous vpn->pfn run with uniform protection, probed when the exact
per-page array misses.  Run entries are conservative on invalidation —
any overlap drops the whole run — so they can never return a stale
translation.  With ``run_entries=0`` (the default) every counter and
behaviour is exactly that of the page-granular TLB.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from collections import OrderedDict, deque
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.hardware.counters import CounterView
from repro.hardware.mmu import Mapping
from repro.kernel import MetricsRegistry


class TLB:
    """Translation lookaside buffer: (space, vpn) -> Mapping, LRU."""

    def __init__(self, entries: int = 64, registry=None, *,
                 run_entries: int = 0):
        if entries <= 0:
            raise ValueError("TLB must have at least one entry")
        self.capacity = entries
        # key -> (mapping, generation-at-fill); insertion order is LRU.
        self._entries: "OrderedDict[Tuple[int, int], Tuple[Mapping, int]]" \
            = OrderedDict()
        self._space_gen: Dict[int, int] = {}
        # Live keys per space: what an eager TLB would actually hold.
        self._space_keys: Dict[int, Set[Tuple[int, int]]] = {}
        self._live = 0
        #: extent-granular entries: space -> sorted [start, end, frame,
        #: prot] runs.  Empty unless run_entries > 0.
        self.run_capacity = run_entries
        self._runs: Dict[int, List[List[int]]] = {}
        self._run_fifo: "deque[Tuple[int, int]]" = deque()
        self._run_count = 0
        #: ``tlb.*`` counters; the hot paths increment the literal keys.
        self.stats = CounterView(registry or MetricsRegistry(), "tlb.")

    def bind_registry(self, registry) -> None:
        """Re-home the hit/miss counters into *registry* (preserving
        counts), so a TLB built before its VM reports alongside it."""
        self.stats.rebind(registry)

    def probe(self, space: int, vpn: int) -> Optional[Mapping]:
        """Look up a translation; None on miss."""
        key = (space, vpn)
        entry = self._entries.get(key)
        if entry is not None:
            if entry[1] == self._space_gen.get(space, 0):
                self._entries.move_to_end(key)
                self.stats.registry.inc("tlb.hit")
                return entry[0]
            # Stale: a flushed-away entry the eager TLB no longer had.
            del self._entries[key]
        if self._runs:
            mapping = self._probe_runs(space, vpn)
            if mapping is not None:
                self.stats.registry.inc("tlb.hit")
                self.stats.registry.inc("tlb.run_hit")
                return mapping
        self.stats.registry.inc("tlb.miss")
        return None

    def fill(self, space: int, vpn: int, mapping: Mapping) -> None:
        """Install a translation after a successful table walk."""
        key = (space, vpn)
        gen = self._space_gen.get(space, 0)
        entry = self._entries.get(key)
        if entry is not None:
            if entry[1] == gen:
                self._entries.move_to_end(key)
                self._entries[key] = (mapping, gen)
                return
            # Stale: the eager TLB had already dropped it, so this is
            # a fresh install — including the capacity eviction.
            del self._entries[key]
        if self._live >= self.capacity:
            self._evict_one()
        self._track_live(space, key)
        self._entries[key] = (mapping, gen)

    def fill_batch(self, space: int,
                   entries: Iterable[Tuple[int, Mapping]]) -> None:
        """Install several translations of one space in order."""
        for vpn, mapping in entries:
            self.fill(space, vpn, mapping)

    def access_run(self, space: int, vpns: Iterable[int], walk,
                   base: int = 0) -> int:
        """Replay the probe/fill sequence of ``MMU.translate`` for a
        run of same-space *vpns* (each offset by *base*) known to be
        mapped; returns the number of TLB misses (table walks
        performed).

        This is the vectorized bus's TLB leg: for every vpn it performs
        exactly the state transitions :meth:`probe` (+ :meth:`fill` on
        a miss) would — LRU reordering, lazy stale reaping, run-entry
        probing, capacity eviction — with the fill inlined (the key is
        known absent at fill time: a hit was taken or the stale entry
        reaped) and the hit/run_hit/miss/evict counters batched into at
        most four adds.  *walk* is called on each miss with the vpn and
        must return the :class:`Mapping` a table walk finds; it must be
        statistic-free — the caller charges the port's per-miss walk
        statistics in aggregate from the returned miss count (constant
        per port for a mapped vpn; see ``MMU.walk_stats_mapped``).

        Counter totals, entry order and occupancy are bit-identical to
        a per-vpn ``probe``/``fill`` loop; only the number of registry
        increments differs.  An access repeating the vpn whose entry is
        already most-recently used is a hit that changes no state, so
        it is only counted.
        """
        gen = self._space_gen.get(space, 0)
        space_gen_get = self._space_gen.get
        entries = self._entries
        entries_get = entries.get
        move_to_end = entries.move_to_end
        popitem = entries.popitem
        space_keys = self._space_keys
        keys_add = space_keys.setdefault(space, set()).add
        probe_runs = self._probe_runs
        have_runs = bool(self._runs)
        capacity = self.capacity
        live = self._live
        if base:
            vpns = [vpn + base for vpn in vpns]
        hits = run_hits = misses = evicts = 0
        # The vpn whose live entry is at the MRU end (run-entry hits
        # leave the entry order alone, so they never set it).
        mru = None
        try:
            for vpn in vpns:
                if vpn == mru:
                    hits += 1
                    continue
                key = (space, vpn)
                entry = entries_get(key)
                if entry is not None:
                    if entry[1] == gen:
                        move_to_end(key)
                        hits += 1
                        mru = vpn
                        continue
                    # Stale: the eager TLB would already have dropped it.
                    del entries[key]
                if have_runs and probe_runs(space, vpn) is not None:
                    hits += 1
                    run_hits += 1
                    continue
                misses += 1
                # Inlined fill() fresh-install branch (the key is known
                # absent here): evict the LRU live entry when full,
                # shedding stale ones silently on the way.
                if live >= capacity:
                    while entries:
                        old_key, (_, old_gen) = popitem(last=False)
                        if old_gen == space_gen_get(old_key[0], 0):
                            space_keys[old_key[0]].discard(old_key)
                            live -= 1
                            evicts += 1
                            break
                keys_add(key)
                live += 1
                entries[key] = (walk(vpn), gen)
                mru = vpn
        finally:
            self._live = live
            # Guarded adds: a counter the scalar loop never created
            # must not appear here as a zero-valued series.
            if hits:
                self.stats.registry.inc("tlb.hit", hits)
            if run_hits:
                self.stats.registry.inc("tlb.run_hit", run_hits)
            if misses:
                self.stats.registry.inc("tlb.miss", misses)
            if evicts:
                self.stats.registry.inc("tlb.evict", evicts)
        return misses

    def retire_run(self, space: int, vpns, walk, base: int = 0) -> int:
        """Bulk-retire a run of same-space mapped accesses (page
        numbers offset by *base*); returns the number of TLB misses.

        Fast path: when every distinct page of the run is already a
        *live* entry (the common steady state), no access can miss, so
        the per-access replay collapses to its final effect — each
        touched entry moves to most-recently-used position in order of
        its **last** access (untouched entries keep their relative
        order below them, exactly as repeated ``move_to_end`` leaves
        them) and the hit counter moves once.  That retires an
        arbitrarily long run in O(distinct pages).  The residency scan
        aborts at the first non-resident page and defers to
        :meth:`access_run`, so a thrashing run pays almost nothing for
        the attempt.
        """
        keys = self._space_keys.get(space)
        if keys:
            seen: Set[int] = set()
            seen_add = seen.add
            order_rev: List[int] = []
            append = order_rev.append
            for vpn in reversed(vpns):
                if vpn not in seen:
                    if (space, vpn + base) not in keys:
                        return self.access_run(space, vpns, walk, base)
                    seen_add(vpn)
                    append(vpn)
            move_to_end = self._entries.move_to_end
            for vpn in reversed(order_rev):
                move_to_end((space, vpn + base))
            if len(vpns):
                self.stats.registry.inc("tlb.hit", len(vpns))
            return 0
        return self.access_run(space, vpns, walk, base)

    def _track_live(self, space: int, key: Tuple[int, int]) -> None:
        self._space_keys.setdefault(space, set()).add(key)
        self._live += 1

    def _evict_one(self) -> None:
        """Pop LRU entries until a *live* one goes (counted); stale
        entries shed on the way are dropped silently — the eager TLB
        would already have removed them."""
        while self._entries:
            key, (_, gen) = self._entries.popitem(last=False)
            if gen == self._space_gen.get(key[0], 0):
                self._space_keys[key[0]].discard(key)
                self._live -= 1
                self.stats.registry.inc("tlb.evict")
                return

    # -- extent-granular entries -------------------------------------------------

    def fill_run(self, space: int, start_vpn: int, count: int,
                 base_frame: int, prot) -> None:
        """Install one extent entry covering ``count`` pages from
        *start_vpn* mapped to contiguous frames from *base_frame*.
        No-op unless the TLB was built with ``run_entries > 0``."""
        if self.run_capacity <= 0 or count <= 0:
            return
        self._drop_runs(space, start_vpn, start_vpn + count)
        runs = self._runs.setdefault(space, [])
        insort(runs, [start_vpn, start_vpn + count, base_frame, prot])
        self._run_fifo.append((space, start_vpn))
        self._run_count += 1
        while self._run_count > self.run_capacity:
            self._evict_run()

    def _probe_runs(self, space: int, vpn: int) -> Optional[Mapping]:
        runs = self._runs.get(space)
        if not runs:
            return None
        index = bisect_right(runs, [vpn + 1]) - 1
        if index >= 0:
            start, end, frame, prot = runs[index]
            if start <= vpn < end:
                return Mapping(frame + (vpn - start), prot)
        return None

    def _drop_runs(self, space: int, start_vpn: int, end_vpn: int) -> None:
        """Drop every run entry of *space* overlapping [start_vpn,
        end_vpn) — conservative whole-run invalidation."""
        runs = self._runs.get(space)
        if not runs:
            return
        survivors = [run for run in runs
                     if run[1] <= start_vpn or run[0] >= end_vpn]
        if len(survivors) != len(runs):
            self._run_count -= len(runs) - len(survivors)
            if survivors:
                self._runs[space] = survivors
            else:
                del self._runs[space]

    def _drop_space_runs(self, space: int) -> None:
        runs = self._runs.pop(space, None)
        if runs:
            self._run_count -= len(runs)

    def _evict_run(self) -> None:
        while self._run_fifo:
            space, start_vpn = self._run_fifo.popleft()
            runs = self._runs.get(space)
            if not runs:
                continue
            index = bisect_right(runs, [start_vpn + 1]) - 1
            # The FIFO may reference a run already invalidated (or one
            # re-filled at the same start); only a live exact match is
            # an eviction.
            if 0 <= index < len(runs) and runs[index][0] == start_vpn:
                del runs[index]
                if not runs:
                    del self._runs[space]
                self._run_count -= 1
                self.stats.registry.inc("tlb.run_evict")
                return

    @property
    def run_occupancy(self) -> int:
        """Extent entries currently cached."""
        return self._run_count

    # -- invalidation ------------------------------------------------------------

    def invalidate(self, space: int, vpn: int) -> None:
        """Shoot down one entry (after map/unmap/protect)."""
        key = (space, vpn)
        entry = self._entries.pop(key, None)
        if entry is not None and entry[1] == self._space_gen.get(space, 0):
            self._space_keys[space].discard(key)
            self._live -= 1
            self.stats.registry.inc("tlb.shootdown")
        if self._runs:
            self._drop_runs(space, vpn, vpn + 1)

    def invalidate_batch(self, space: int, vpns: Iterable[int]) -> None:
        """Shoot down several entries of one space (one call from the
        MMU batch ops instead of a per-page loop)."""
        gen = self._space_gen.get(space, 0)
        keys = self._space_keys.get(space)
        entries = self._entries
        dropped = 0
        for vpn in vpns:
            key = (space, vpn)
            entry = entries.pop(key, None)
            if entry is not None and entry[1] == gen:
                keys.discard(key)
                dropped += 1
            if self._runs:
                self._drop_runs(space, vpn, vpn + 1)
        if dropped:
            self._live -= dropped
            self.stats.registry.inc("tlb.shootdown", dropped)

    def invalidate_range(self, space: int, start_vpn: int,
                         count: int) -> int:
        """Shoot down every entry in ``[start_vpn, start_vpn+count)``
        with one call — the extent-granular shootdown.  Cost is
        O(min(count, live entries of the space)), never O(count) alone,
        so invalidating a million-page range with three cached
        translations touches three entries.  Returns how many live
        entries were dropped (counted as ``shootdown``s, exactly as the
        per-page batch would)."""
        if count <= 0:
            return 0
        end_vpn = start_vpn + count
        keys = self._space_keys.get(space)
        dropped = 0
        if keys:
            if len(keys) <= count:
                victims = [key for key in keys
                           if start_vpn <= key[1] < end_vpn]
                for key in victims:
                    # Keys index only live entries, so each victim is a
                    # guaranteed drop (stale ones reap lazily, as ever).
                    del self._entries[key]
                    keys.discard(key)
                dropped = len(victims)
            else:
                gen = self._space_gen.get(space, 0)
                entries = self._entries
                for vpn in range(start_vpn, end_vpn):
                    key = (space, vpn)
                    entry = entries.pop(key, None)
                    if entry is not None and entry[1] == gen:
                        keys.discard(key)
                        dropped += 1
        if dropped:
            self._live -= dropped
            self.stats.registry.inc("tlb.shootdown", dropped)
        if self._runs:
            self._drop_runs(space, start_vpn, end_vpn)
        return dropped

    def flush_space(self, space: int) -> None:
        """Drop every entry belonging to *space* — O(1) in capacity:
        bump the space generation and forget its key index; the now-
        stale entries are reaped lazily."""
        keys = self._space_keys.pop(space, None)
        if keys:
            self._space_gen[space] = self._space_gen.get(space, 0) + 1
            self._live -= len(keys)
            self.stats.registry.inc("tlb.space_flush")
        if self._runs:
            self._drop_space_runs(space)

    def flush(self) -> None:
        """Drop everything."""
        self._entries.clear()
        self._space_keys.clear()
        self._space_gen.clear()
        self._live = 0
        self._runs.clear()
        self._run_fifo.clear()
        self._run_count = 0
        self.stats.registry.inc("tlb.full_flush")

    @property
    def occupancy(self) -> int:
        """Entries currently cached (live — stale ones are already
        gone as far as any observer is concerned)."""
        return self._live

    def hit_rate(self) -> float:
        """Fraction of probes that hit (0.0 when never probed)."""
        hits = self.stats.get("hit")
        misses = self.stats.get("miss")
        total = hits + misses
        return hits / total if total else 0.0
