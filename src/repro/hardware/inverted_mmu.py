"""Hashed inverted page-table MMU port (custom-MMU / T3000 style).

One global hash table keyed by (space, vpn).  Its memory footprint is
proportional to the number of *resident* pages — never to the size of
the virtual address spaces — which is exactly the scaling property
section 4.1 demands of the PVM's own structures.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple

from repro.errors import InvalidOperation
from repro.hardware.mmu import MMU, Mapping, Prot


class InvertedMMU(MMU):
    """Inverted page-table MMU: a single (space, vpn) hash."""

    port_name = "inverted"

    #: A walk is one hash probe, mapped or not.
    walk_stats_mapped = ("hash_probe",)

    def __init__(self, page_size: int, tlb=None):
        super().__init__(page_size, tlb=tlb)
        self._entries: Dict[Tuple[int, int], Mapping] = {}
        # Per-space key index so destroy_space need not scan the world.
        self._by_space: Dict[int, set] = {}
        self._probe_key = self.stats.key("hash_probe")

    # -- storage hooks ---------------------------------------------------------

    def _init_space(self, space: int) -> None:
        self._by_space[space] = set()

    def _drop_space(self, space: int) -> None:
        for vpn in self._by_space.pop(space):
            del self._entries[(space, vpn)]

    def _entry(self, space: int, vpn: int) -> Optional[Mapping]:
        self.stats.registry.inc(self._probe_key)
        return self._entries.get((space, vpn))

    def peek(self, space: int, vpn: int) -> Optional[Mapping]:
        """Stat-free probe: one hash lookup, no ``hash_probe`` charge."""
        return self._entries.get((space, vpn))

    def _set_entry(self, space: int, vpn: int, mapping: Mapping) -> None:
        key = (space, vpn)
        if key not in self._entries:
            self._by_space[space].add(vpn)
        self._entries[key] = mapping

    def _del_entry(self, space: int, vpn: int) -> bool:
        key = (space, vpn)
        if key not in self._entries:
            return False
        del self._entries[key]
        self._by_space[space].discard(vpn)
        return True

    def _iter_space(self, space: int) -> Iterator[Tuple[int, Mapping]]:
        for vpn in self._by_space[space]:
            yield vpn, self._entries[(space, vpn)]

    def _space_size(self, space: int) -> int:
        return len(self._by_space[space])

    # -- batched operations ----------------------------------------------------------

    def map_batch(self, space: int, entries) -> None:
        """Bulk map: straight hash inserts, one TLB shootdown each."""
        self._check_space(space)
        table = self._entries
        index = self._by_space[space]
        touched = []
        try:
            for vaddr, frame, prot in entries:
                if prot == Prot.NONE:
                    raise InvalidOperation(
                        "mapping with no access bits; use unmap")
                vpn = self.vpn(vaddr)
                key = (space, vpn)
                if key not in table:
                    index.add(vpn)
                table[key] = Mapping(frame, prot)
                touched.append(vpn)
        finally:
            if touched:
                self._shootdown(space, touched)

    def unmap_batch(self, space: int, vaddrs) -> int:
        """Bulk unmap: straight hash deletes."""
        self._check_space(space)
        table = self._entries
        index = self._by_space[space]
        dropped = []
        for vaddr in vaddrs:
            vpn = self.vpn(vaddr)
            if table.pop((space, vpn), None) is None:
                continue
            index.discard(vpn)
            dropped.append(vpn)
        if dropped:
            self._shootdown(space, dropped)
        return len(dropped)

    def protect_batch(self, space: int, items) -> None:
        """Bulk protect: one hash probe per entry (same accounting as
        the single-entry path)."""
        self._check_space(space)
        table = self._entries
        touched = []
        try:
            for vaddr, prot in items:
                vpn = self.vpn(vaddr)
                key = (space, vpn)
                self.stats.registry.inc(self._probe_key)
                mapping = table.get(key)
                if mapping is None:
                    raise InvalidOperation(
                        f"protect: no mapping at {vaddr:#x} in space "
                        f"{space}"
                    )
                table[key] = Mapping(mapping.frame, prot)
                touched.append(vpn)
        finally:
            if touched:
                self._shootdown(space, touched)

    # -- introspection -------------------------------------------------------------

    @property
    def resident_entries(self) -> int:
        """Total translations installed across all spaces."""
        return len(self._entries)
