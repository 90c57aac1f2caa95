"""The MMU translation epoch and the vectorized bus's reliance on it.

``MMU.epoch`` moves on every translation change, through the one
``_shootdown`` helper that also drops the affected TLB entries.
:class:`~repro.hardware.vbus.VectorBus` keeps its page classification
across ``replay()`` calls for as long as the epoch stands still.  These
tests pin both halves of that contract:

* every public mutator of every port moves the epoch;
* a limit shrink on the segmented port is enforced on TLB hits too;
* an unchanged epoch means a second replay classifies nothing anew
  (zero ``peek`` calls);
* random unmap / protect / remap calls between replays leave the
  vectorized result bit-identical to scalar replay, on both engines.

They run with and without numpy (``REPRO_NO_NUMPY=1`` in CI).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import PageFault
from repro.fastpath import numpy_available
from repro.hardware.bus import MemoryBus
from repro.hardware.inverted_mmu import InvertedMMU
from repro.hardware.mmu import MMU, Prot
from repro.hardware.paged_mmu import PagedMMU
from repro.hardware.physmem import PhysicalMemory
from repro.hardware.segmented_mmu import SegmentedMMU
from repro.hardware.tlb import TLB
from repro.hardware.vbus import VectorBus
from repro.units import KB

PAGE = 8 * KB


class DictMMU(MMU):
    """The smallest port: storage hooks only, so the base class's own
    batch and range operations are the ones exercised."""

    port_name = "dict"
    walk_stats_mapped = ("dict_probe",)

    def __init__(self, page_size, tlb=None):
        super().__init__(page_size, tlb=tlb)
        self._tables = {}

    def _init_space(self, space):
        self._tables[space] = {}

    def _drop_space(self, space):
        del self._tables[space]

    def _entry(self, space, vpn):
        self.stats.add("dict_probe")
        return self._tables[space].get(vpn)

    def peek(self, space, vpn):
        return self._tables[space].get(vpn)

    def _set_entry(self, space, vpn, mapping):
        self._tables[space][vpn] = mapping

    def _del_entry(self, space, vpn):
        return self._tables[space].pop(vpn, None) is not None

    def _iter_space(self, space):
        return iter(list(self._tables[space].items()))


PORTS = [PagedMMU, InvertedMMU, SegmentedMMU, DictMMU]

ENGINES = [pytest.param(False, id="python")]
if numpy_available():
    ENGINES.insert(0, pytest.param(True, id="numpy"))


def _port(cls, tlb_entries=8):
    tlb = TLB(entries=tlb_entries) if tlb_entries else None
    return cls(page_size=PAGE, tlb=tlb)


# -- every mutator moves the epoch ---------------------------------------------

def _mapped(mmu, pages=4):
    space = mmu.create_space()
    for page in range(pages):
        mmu.map(space, page * PAGE, 10 + page, Prot.RW)
    return space


MUTATORS = {
    "map": lambda mmu, space: mmu.map(space, 9 * PAGE, 3, Prot.READ),
    "unmap": lambda mmu, space: mmu.unmap(space, 0),
    "unmap_range": lambda mmu, space: mmu.unmap_range(space, PAGE,
                                                      2 * PAGE),
    "map_run": lambda mmu, space: mmu.map_run(space, 8 * PAGE, 3, 40,
                                              Prot.RW),
    "protect_range": lambda mmu, space: mmu.protect_range(
        space, 0, 2, Prot.READ),
    "map_batch": lambda mmu, space: mmu.map_batch(
        space, [(8 * PAGE, 50, Prot.RW), (9 * PAGE, 51, Prot.READ)]),
    "unmap_batch": lambda mmu, space: mmu.unmap_batch(space,
                                                      [0, 2 * PAGE]),
    "protect_batch": lambda mmu, space: mmu.protect_batch(
        space, [(0, Prot.READ), (3 * PAGE, Prot.READ)]),
    "protect": lambda mmu, space: mmu.protect(space, PAGE, Prot.READ),
    "destroy_space": lambda mmu, space: mmu.destroy_space(space),
}


@pytest.mark.parametrize("tlb_entries", [8, None], ids=["tlb", "no-tlb"])
@pytest.mark.parametrize("mutator", sorted(MUTATORS))
@pytest.mark.parametrize("cls", PORTS, ids=lambda cls: cls.port_name)
def test_every_mutator_moves_the_epoch(cls, mutator, tlb_entries):
    mmu = _port(cls, tlb_entries)
    space = _mapped(mmu)
    before = mmu.epoch
    MUTATORS[mutator](mmu, space)
    assert mmu.epoch > before


@pytest.mark.parametrize("tlb_entries", [8, None], ids=["tlb", "no-tlb"])
def test_segment_limit_change_moves_the_epoch(tlb_entries):
    mmu = _port(SegmentedMMU, tlb_entries)
    space = _mapped(mmu)
    before = mmu.epoch
    mmu.set_segment_limit(space, 2 * PAGE)
    assert mmu.epoch > before


@pytest.mark.parametrize("cls", PORTS, ids=lambda cls: cls.port_name)
def test_lookups_and_translations_leave_the_epoch_alone(cls):
    mmu = _port(cls)
    space = _mapped(mmu)
    before = mmu.epoch
    mmu.translate(space, PAGE, write=True)
    mmu.translate_batch(space, [0, 2 * PAGE], write=False)
    mmu.lookup(space, 3 * PAGE)
    mmu.peek(space, 0)
    mmu.mapped_pages(space)
    assert not mmu.unmap(space, 30 * PAGE)      # nothing there
    assert mmu.epoch == before


@pytest.mark.parametrize("cls", PORTS, ids=lambda cls: cls.port_name)
def test_failed_batch_publishes_its_partial_change(cls):
    # protect_batch raising on a hole has already re-protected the
    # pages before it: those must be shot down, not left cached RW.
    mmu = _port(cls)
    space = _mapped(mmu, pages=2)
    mmu.translate(space, 0, write=True)         # cache page 0 as RW
    before = mmu.epoch
    with pytest.raises(Exception, match="no mapping"):
        mmu.protect_batch(space, [(0, Prot.READ), (7 * PAGE, Prot.READ)])
    assert mmu.epoch > before
    assert mmu.tlb.probe(space, 0) is None


# -- segmented limit checks survive the TLB -----------------------------------

@pytest.mark.parametrize("tlb_entries", [8, None], ids=["tlb", "no-tlb"])
def test_segment_limit_shrink_faults_cached_pages(tlb_entries):
    mmu = _port(SegmentedMMU, tlb_entries)
    space = _mapped(mmu)
    # Touch page 3 so a TLB (when present) caches its translation.
    assert mmu.translate(space, 3 * PAGE, write=False) == 13 * PAGE
    mmu.set_segment_limit(space, 2 * PAGE)
    with pytest.raises(PageFault):
        mmu.translate(space, 3 * PAGE, write=False)
    with pytest.raises(PageFault):
        mmu.translate_batch(space, [0, 3 * PAGE], write=False)
    assert mmu.translate(space, PAGE, write=False) == 11 * PAGE
    mmu.set_segment_limit(space, 4 * PAGE)
    assert mmu.translate(space, 3 * PAGE, write=False) == 13 * PAGE


# -- the classification cache across replays ----------------------------------

class CountingPeek:
    """Wraps a port's ``peek`` to count classification probes."""

    def __init__(self, mmu):
        self.calls = 0
        self._peek = mmu.peek
        mmu.peek = self

    def __call__(self, space, vpn):
        self.calls += 1
        return self._peek(space, vpn)


def _rig(cls=PagedMMU, tlb_entries=4, pages=6):
    mem = PhysicalMemory(size=256 * KB, page_size=PAGE)
    mmu = _port(cls, tlb_entries)
    bus = MemoryBus(mem, mmu)
    space = mmu.create_space()
    for page in range(pages):
        mmu.map(space, page * PAGE, mem.allocate_frame(zero=True),
                Prot.RW)
    return mem, mmu, bus, space


@pytest.mark.parametrize("use_numpy", ENGINES)
@pytest.mark.parametrize("cls", PORTS, ids=lambda cls: cls.port_name)
def test_unchanged_epoch_replay_peeks_nothing(cls, use_numpy):
    mem, mmu, bus, space = _rig(cls)
    vbus = VectorBus(bus, use_numpy=use_numpy)
    peeks = CountingPeek(mmu)
    pages = [0, 1, 2, 3, 4, 5, 0, 2]
    writes = bytes([1, 0, 1, 0, 0, 1, 0, 1])
    assert vbus.replay(space, pages, writes) == len(pages)
    assert peeks.calls == 6
    assert vbus.replay(space, pages, writes, fill=0x02) == len(pages)
    assert peeks.calls == 6, "second replay re-classified"
    # The written set does not outlive a replay: the second fill byte
    # landed even though the pages were written before.
    fill_bytes = [mem.read_frame(mmu.lookup(space, page * PAGE).frame)[0]
                  for page in range(6)]
    assert fill_bytes == [2, 0, 2, 0, 0, 2]
    # A change anywhere moves the epoch: the next replay re-classifies.
    mmu.protect(space, 4 * PAGE, Prot.READ)
    assert vbus.replay(space, pages, writes) == len(pages)
    assert peeks.calls == 12


@pytest.mark.parametrize("use_numpy", ENGINES)
def test_change_between_replays_is_honoured(use_numpy):
    mem, mmu, bus, space = _rig()
    trapped = []

    def handler(fault):
        trapped.append((fault.address // PAGE, fault.protection_violation))
        mmu.map(space, fault.address - fault.address % PAGE,
                mem.allocate_frame(zero=True), Prot.RW)

    bus.install_fault_handler(handler)
    vbus = VectorBus(bus, use_numpy=use_numpy)
    assert vbus.replay(space, [0, 1, 2], b"\x01\x01\x01") == 3
    assert trapped == []
    mmu.unmap(space, PAGE)
    mmu.protect(space, 2 * PAGE, Prot.READ)
    assert vbus.replay(space, [0, 1, 2], b"\x01\x01\x01") == 3
    assert trapped == [(1, False), (2, True)]
    assert vbus.stats.get("fallback") == 2


@pytest.mark.parametrize("use_numpy", ENGINES)
def test_destroyed_space_drops_out_of_the_cache(use_numpy):
    mem, mmu, bus, space = _rig()
    other = mmu.create_space()
    mmu.map(other, 0, mem.allocate_frame(zero=True), Prot.RW)
    vbus = VectorBus(bus, use_numpy=use_numpy)
    vbus.replay(None, [0, 0], b"\x00\x00", spaces=[space, other])
    assert len(vbus._cache) == 2
    mmu.destroy_space(other)
    vbus.replay(space, [0], b"\x00")
    assert [key[0] for key in vbus._cache] == [space]


# -- property: mutations between replays vs scalar replay ---------------------

PROP_PAGES = 10
MUTATION_KINDS = ("unmap", "unmap_range", "unmap_batch", "protect",
                  "protect_range", "remap", "map_run", "map_batch",
                  "alias")

mutations = st.lists(
    st.tuples(st.sampled_from(MUTATION_KINDS),
              st.integers(min_value=0, max_value=PROP_PAGES - 1),
              st.integers(min_value=1, max_value=3),
              st.booleans()),
    max_size=6)
traces = st.lists(
    st.tuples(st.integers(min_value=0, max_value=PROP_PAGES - 1),
              st.booleans()),
    min_size=1, max_size=40)


class Twin:
    """A bare hardware rig whose fault handler maps a fresh frame
    (translation fault) or grants write (protection fault)."""

    def __init__(self, cls):
        self.mem = PhysicalMemory(size=96 * PAGE, page_size=PAGE)
        self.mmu = cls(page_size=PAGE, tlb=TLB(entries=4))
        self.bus = MemoryBus(self.mem, self.mmu)
        self.space = self.mmu.create_space()
        self.faults = []
        self.bus.install_fault_handler(self._handle)
        for page in range(PROP_PAGES):
            self.mmu.map(self.space, page * PAGE,
                         self.mem.allocate_frame(zero=True), Prot.RW)

    def _handle(self, fault):
        vaddr = fault.address - fault.address % PAGE
        self.faults.append((vaddr // PAGE, fault.write,
                            fault.protection_violation))
        if fault.protection_violation:
            self.mmu.protect(self.space, vaddr, Prot.RW)
        else:
            self.mmu.map(self.space, vaddr,
                         self.mem.allocate_frame(zero=True), Prot.RW)

    def mutate(self, kind, page, count, flag):
        mmu, space = self.mmu, self.space
        vaddr = page * PAGE
        count = min(count, PROP_PAGES - page)
        prot = Prot.READ if flag else Prot.RW
        mapped = [mmu.lookup(space, (page + i) * PAGE) is not None
                  for i in range(count)]
        if kind == "unmap":
            mmu.unmap(space, vaddr)
        elif kind == "unmap_range":
            mmu.unmap_range(space, vaddr, count * PAGE)
        elif kind == "unmap_batch":
            mmu.unmap_batch(space, [(page + i) * PAGE
                                    for i in range(0, count, 2)])
        elif kind == "protect" and mapped[0]:
            mmu.protect(space, vaddr, prot)
        elif kind == "protect_range" and all(mapped):
            mmu.protect_range(space, vaddr, count, prot)
        elif kind == "remap":
            mmu.map(space, vaddr, self.mem.allocate_frame(zero=True), prot)
        elif kind == "map_run":
            frames = [self.mem.allocate_frame(zero=True)
                      for _ in range(count)]
            # The rig never frees a frame: allocation is sequential.
            assert frames == list(range(frames[0], frames[0] + count))
            mmu.map_run(space, vaddr, count, frames[0], prot)
        elif kind == "map_batch":
            frames = [self.mem.allocate_frame(zero=True)
                      for _ in range(count)]
            mmu.map_batch(space, [((page + i) * PAGE, frame, prot)
                                  for i, frame in enumerate(frames)])
        elif kind == "alias":
            # Share another page's frame: two vpns, one frame.
            target = mmu.lookup(space, ((page + 1) % PROP_PAGES) * PAGE)
            if target is not None:
                mmu.map(space, vaddr, target.frame, prot)

    def scalar(self, trace, fill):
        for page, write in trace:
            if write:
                self.bus.write(self.space, page * PAGE, bytes((fill,)))
            else:
                self.bus.read(self.space, page * PAGE, 1)

    def observe(self):
        tlb = self.mmu.tlb
        return (self.faults, self.bus.stats.snapshot(),
                self.mmu.stats.snapshot(), tlb.stats.snapshot(),
                list(tlb._entries.items()), bytes(self.mem._ram))


@pytest.mark.parametrize("use_numpy", ENGINES)
@pytest.mark.parametrize("cls", PORTS, ids=lambda cls: cls.port_name)
@settings(max_examples=40, deadline=None)
@given(first=traces, changes=mutations, second=traces)
def test_mutations_between_replays_match_scalar_replay(cls, use_numpy,
                                                       first, changes,
                                                       second):
    scalar, vector = Twin(cls), Twin(cls)
    vbus = VectorBus(vector.bus, use_numpy=use_numpy)
    for trace, fill, batch in ((first, 0x11, changes), (second, 0x22, ())):
        scalar.scalar(trace, fill)
        pages = [page for page, _ in trace]
        writes = bytes(int(write) for _, write in trace)
        assert vbus.replay(vector.space, pages, writes,
                           fill=fill) == len(trace)
        for change in batch:
            scalar.mutate(*change)
            vector.mutate(*change)
    # A third replay of the first trace with no change in between.
    scalar.scalar(first, 0x33)
    vbus.replay(vector.space, [page for page, _ in first],
                bytes(int(write) for _, write in first), fill=0x33)
    assert vector.observe() == scalar.observe()
