"""Run-length page-table MMU port (Sun-3 / PMMU style, extent form).

Translations live in a per-space :class:`~repro.extents.runmap.RunMap`:
one table entry per contiguous vpn->pfn run with uniform protection,
so a million-page contiguous mapping is a single entry and the
resident-count / entry-count introspections are O(1) counters instead
of per-call scans.

The classic two-level organisation survives in the *statistics*: the
directory index (``vpn >> TABLE_BITS``) still partitions the space
into second-level tables, and ``walk_level1`` / ``walk_level2`` /
``table_alloc`` / ``table_free`` are charged exactly as the
dictionary-of-tables implementation charged them.  Those stats depend
only on the *set* of mapped pages, never on the order or grouping of
the operations that produced it — the clustering-parity proofs
(tests/property/test_cluster_parity.py) compare full counter snapshots
between batched and per-page runs, so an order-dependent stat (e.g.
counting run splices) would diverge.  The per-directory occupancy
counters cost O(pages / TABLE_SIZE), not O(pages).

The walk depth is recorded per translation so the MMU-port ablation
(benchmarks/test_ablation_mmu_ports.py) can compare organisations.

``protect_batch`` works in O(runs) too: the items' vpns coalesce into
ranges that :meth:`~repro.extents.runmap.RunMap.set_attr_range`
re-protects in place, and the walk statistics are charged in
aggregate, one level-1 and one level-2 walk per item — what a per-item
walk of a mapped vpn charges — so the totals match the base class's
per-item loop, which a batch with a hole or mixed protections still
takes.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import InvalidOperation
from repro.extents import RunMap
from repro.hardware.mmu import MMU, Mapping, Prot

#: Pages per second-level table (10 bits, like a classic two-level MMU).
TABLE_BITS = 10
TABLE_SIZE = 1 << TABLE_BITS
TABLE_MASK = TABLE_SIZE - 1


def _vpn_spans(vpns) -> List[Tuple[int, int]]:
    """The distinct *vpns* as sorted, disjoint ``[start, end)`` ranges
    of consecutive pages."""
    ordered = sorted(set(vpns))
    if not ordered:
        return []
    spans: List[Tuple[int, int]] = []
    start = previous = ordered[0]
    for vpn in ordered:
        if vpn > previous + 1:
            spans.append((start, previous + 1))
            start = vpn
        previous = vpn
    spans.append((start, previous + 1))
    return spans


class PagedMMU(MMU):
    """Page-table MMU storing run-length translation extents."""

    port_name = "paged"

    #: A walk of a mapped vpn always charges both levels: a mapped
    #: page implies its directory bucket is occupied.
    walk_stats_mapped = ("walk_level1", "walk_level2")

    def __init__(self, page_size: int, tlb=None):
        super().__init__(page_size, tlb=tlb)
        # space -> run-length page table (vpn -> (frame, prot)).
        self._tables: Dict[int, RunMap] = {}
        # space -> directory index -> mapped-page count: which second-
        # level tables a classic two-level port would have allocated.
        self._buckets: Dict[int, Dict[int, int]] = {}
        key = self.stats.key
        self._walk_keys = (key("walk_level1"), key("walk_level2"))
        self._alloc_key = key("table_alloc")
        self._free_key = key("table_free")

    # -- storage hooks ---------------------------------------------------------

    def _init_space(self, space: int) -> None:
        self._tables[space] = RunMap()
        self._buckets[space] = {}

    def _drop_space(self, space: int) -> None:
        del self._tables[space]
        del self._buckets[space]

    def _bucket_add(self, space: int, vpn: int, delta: int) -> None:
        """Move one directory bucket's occupancy, charging table
        alloc/free on the empty<->occupied transitions."""
        buckets = self._buckets[space]
        hi = vpn >> TABLE_BITS
        occupancy = buckets.get(hi, 0) + delta
        if occupancy > 0:
            if hi not in buckets:
                self.stats.registry.inc(self._alloc_key)
            buckets[hi] = occupancy
        elif buckets.pop(hi, None) is not None:
            self.stats.registry.inc(self._free_key)

    def _bucket_pages(self, table: RunMap, start_vpn: int,
                      end_vpn: int) -> Dict[int, int]:
        """Mapped pages per directory bucket within [start_vpn,
        end_vpn) — O(runs + buckets) via the run map."""
        counts: Dict[int, int] = {}
        for run_start, count, _, _ in table.runs_in(start_vpn, end_vpn):
            vpn = run_start
            remaining = count
            while remaining:
                hi = vpn >> TABLE_BITS
                take = min(remaining, ((hi + 1) << TABLE_BITS) - vpn)
                counts[hi] = counts.get(hi, 0) + take
                vpn += take
                remaining -= take
        return counts

    def _apply_bucket_delta(self, space: int, before: Dict[int, int],
                            after: Dict[int, int]) -> None:
        """Reconcile per-bucket occupancy after a range mutation."""
        buckets = self._buckets[space]
        for hi in before.keys() | after.keys():
            delta = after.get(hi, 0) - before.get(hi, 0)
            if not delta:
                continue
            occupancy = buckets.get(hi, 0) + delta
            if occupancy > 0:
                if hi not in buckets:
                    self.stats.registry.inc(self._alloc_key)
                buckets[hi] = occupancy
            elif buckets.pop(hi, None) is not None:
                self.stats.registry.inc(self._free_key)

    def _entry(self, space: int, vpn: int) -> Optional[Mapping]:
        inc = self.stats.registry.inc
        level1, level2 = self._walk_keys
        inc(level1)
        if (vpn >> TABLE_BITS) not in self._buckets[space]:
            return None
        inc(level2)
        hit = self._tables[space].get(vpn)
        if hit is None:
            return None
        frame, prot = hit
        return Mapping(frame, prot)

    def peek(self, space: int, vpn: int) -> Optional[Mapping]:
        """Stat-free probe: straight run-map lookup, no walk charges."""
        hit = self._tables[space].get(vpn)
        if hit is None:
            return None
        frame, prot = hit
        return Mapping(frame, prot)

    def _set_entry(self, space: int, vpn: int, mapping: Mapping) -> None:
        table = self._tables[space]
        fresh = vpn not in table
        table.set(vpn, mapping.frame, mapping.prot)
        if fresh:
            self._bucket_add(space, vpn, 1)

    def _del_entry(self, space: int, vpn: int) -> bool:
        existed = self._tables[space].delete(vpn)
        if existed:
            self._bucket_add(space, vpn, -1)
        return existed

    def _iter_space(self, space: int) -> Iterator[Tuple[int, Mapping]]:
        for vpn, frame, prot in self._tables[space].items():
            yield vpn, Mapping(frame, prot)

    def _space_size(self, space: int) -> int:
        # O(1): the run map maintains its mapped-page total.
        return len(self._tables[space])

    # -- extent operations -------------------------------------------------------

    def map_run(self, space: int, vaddr: int, count: int, frame: int,
                prot: Prot) -> None:
        """One table entry for the whole run — the O(extents) port
        call: a million contiguous pages cost one run entry and one TLB
        range invalidation."""
        self._check_space(space)
        if prot == Prot.NONE:
            raise InvalidOperation("mapping with no access bits; use unmap")
        if count <= 0:
            return
        table = self._tables[space]
        vpn = self.vpn(vaddr)
        before = self._bucket_pages(table, vpn, vpn + count)
        table.set_run(vpn, count, frame, prot)
        after = self._bucket_pages(table, vpn, vpn + count)
        self._apply_bucket_delta(space, before, after)
        self._shootdown(space, range(vpn, vpn + count))

    def protect_range(self, space: int, vaddr: int, count: int,
                      prot: Prot) -> None:
        """Re-protect a whole range in O(runs overlapped).  Like the
        per-page form, a hole in the range is an error (translations
        below the hole are already re-protected when it raises, exactly
        as the page-by-page loop would leave them)."""
        self._check_space(space)
        if count <= 0:
            return
        table = self._tables[space]
        start_vpn = self.vpn(vaddr)
        end_vpn = start_vpn + count
        gap = table.first_gap(start_vpn, end_vpn)
        limit = end_vpn if gap is None else gap
        if limit > start_vpn:
            table.set_attr_range(start_vpn, limit, prot)
            self._shootdown(space, range(start_vpn, limit))
        if gap is not None:
            raise InvalidOperation(
                f"protect: no mapping at {gap << self._page_shift:#x} "
                f"in space {space}"
            )

    def unmap_range(self, space: int, vaddr: int, size: int) -> int:
        """Range unmap in O(runs overlapped): trim/splice the run map,
        one TLB range invalidation."""
        self._check_space(space)
        if size <= 0:
            return 0
        table = self._tables[space]
        start_vpn = self.vpn(vaddr)
        end_vpn = self.vpn(vaddr + size - 1)
        before = self._bucket_pages(table, start_vpn, end_vpn + 1)
        dropped = table.clear_range(start_vpn, end_vpn + 1)
        if dropped:
            self._apply_bucket_delta(space, before, {})
            self._shootdown(space, range(start_vpn, end_vpn + 1))
        return dropped

    # -- batched operations ----------------------------------------------------------

    def map_batch(self, space: int, entries) -> None:
        """Bulk map: consecutive (vaddr, frame, prot) entries coalesce
        into run installs before touching the table."""
        self._check_space(space)
        table = self._tables[space]
        shift = self._page_shift
        spans: List[Tuple[int, int, int, Prot]] = []
        run_vpn = run_frame = 0
        run_prot: Optional[Prot] = None
        run_count = 0
        for vaddr, frame, prot in entries:
            if prot == Prot.NONE:
                raise InvalidOperation(
                    "mapping with no access bits; use unmap")
            vpn = vaddr >> shift
            if run_count and vpn == run_vpn + run_count \
                    and frame == run_frame + run_count and prot == run_prot:
                run_count += 1
                continue
            if run_count:
                spans.append((run_vpn, run_count, run_frame, run_prot))
            run_vpn, run_frame, run_prot, run_count = vpn, frame, prot, 1
        if run_count:
            spans.append((run_vpn, run_count, run_frame, run_prot))
        for vpn, count, frame, prot in spans:
            before = self._bucket_pages(table, vpn, vpn + count)
            table.set_run(vpn, count, frame, prot)
            after = self._bucket_pages(table, vpn, vpn + count)
            self._apply_bucket_delta(space, before, after)
            self._shootdown(space, range(vpn, vpn + count))

    def protect_batch(self, space: int, items) -> None:
        """Bulk re-protect in O(runs): the items' vpns coalesce into
        ranges re-protected with ``set_attr_range``, the walk
        statistics are charged in aggregate (one level-1 and one
        level-2 walk per item, the totals a per-item ``_entry`` makes)
        and the TLB sees one shootdown of the touched vpns.

        A batch with mixed protections or a hole takes the per-item
        base loop, so it leaves exactly that loop's state: the same
        prefix re-protected, the same walk counts, the same error."""
        self._check_space(space)
        items = list(items)
        if not items:
            return
        prot = items[0][1]
        shift = self._page_shift
        vpns = [vaddr >> shift for vaddr, _ in items]
        table = self._tables[space]
        spans = _vpn_spans(vpns)
        if any(item_prot != prot for _, item_prot in items) or any(
                table.first_gap(start, end) is not None
                for start, end in spans):
            super().protect_batch(space, items)
            return
        for start, end in spans:
            table.set_attr_range(start, end, prot)
        inc = self.stats.registry.inc
        level1, level2 = self._walk_keys
        inc(level1, len(items))
        inc(level2, len(items))
        self._shootdown(space, vpns)

    def unmap_batch(self, space: int, vaddrs) -> int:
        """Bulk unmap: the addresses coalesce into range clears."""
        self._check_space(space)
        table = self._tables[space]
        spans = _vpn_spans(vaddr >> self._page_shift for vaddr in vaddrs)
        dropped = 0
        for start, end in spans:
            before = self._bucket_pages(table, start, end)
            removed = table.clear_range(start, end)
            if removed:
                self._apply_bucket_delta(space, before, {})
                dropped += removed
        if dropped:
            for start, end in spans:
                self._shootdown(space, range(start, end))
        return dropped

    # -- introspection -------------------------------------------------------------

    def table_count(self, space: int) -> int:
        """Second-level tables currently allocated for *space* — O(1)
        (directory buckets with at least one mapped page)."""
        return len(self._buckets[space])

    def run_count(self, space: int) -> int:
        """Translation extents (maximal runs) of *space* — O(1)."""
        self._check_space(space)
        return self._tables[space].run_count

    def space_runs(self, space: int) -> List[Tuple[int, int, int, Prot]]:
        """The space's translation extents as ``(start_vpn, count,
        base_frame, prot)`` — the introspection the O(extents)
        acceptance tests read."""
        self._check_space(space)
        return self._tables[space].runs()
