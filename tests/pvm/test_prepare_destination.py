"""Preparing a copy destination: the per-page sweep runs whenever the
destination holds anything in the range, and is skipped only for a
destination that holds nothing there (a fork's fresh child cache).

Each case copies into a destination that already holds one kind of
state, then checks the bytes every reader sees afterwards: the
destination itself, a context mapping it, and whoever depended on its
old content.
"""

import pytest

from repro.gmi.interface import CopyPolicy
from repro.gmi.types import Protection
from repro.gmi.upcalls import ZeroFillProvider
from repro.units import KB

PAGE = 8 * KB
BASE = 0x100000


@pytest.fixture
def make(pvm):
    def factory(name, fill=None, pages=2):
        cache = pvm.cache_create(ZeroFillProvider(), name=name)
        if fill is not None:
            for page in range(pages):
                cache.write(page * PAGE, bytes([fill + page]) * PAGE)
        return cache
    return factory


def map_reader(pvm, cache, address=BASE, pages=2):
    """A context mapping *cache* read/write at *address*."""
    ctx = pvm.context_create()
    ctx.region_create(address, pages * PAGE, protection=Protection.RW,
                      cache=cache, offset=0)
    return ctx


def copy_in(src, dst):
    src.copy(0, dst, 0, 2 * PAGE, policy=CopyPolicy.HISTORY)


def assert_reads(pvm, ctx, dst, fill):
    for page in range(2):
        expected = bytes([fill + page]) * 4
        assert dst.read(page * PAGE, 4) == expected
        assert pvm.user_read(ctx, BASE + page * PAGE, 4) == expected


class TestHoldsNothing:
    def test_fresh_cache_holds_nothing(self, pvm, make):
        assert pvm._holds_nothing(make("fresh"), 0, 2 * PAGE)

    def test_state_outside_the_range_does_not_count(self, pvm, make):
        dst = make("dst")
        dst.write(4 * PAGE, b"far")
        assert pvm._holds_nothing(dst, 0, 2 * PAGE)
        assert not pvm._holds_nothing(dst, 4 * PAGE, PAGE)

    def test_fork_child_cache_skips_the_sweep(self, pvm, make,
                                              monkeypatch):
        src, dst = make("src", fill=10), make("dst")
        served = []
        monkeypatch.setattr(pvm.hw, "shootdown_served",
                            lambda cache, offset: served.append(offset))
        copy_in(src, dst)
        assert served == []
        assert dst.read(0, 1) == bytes([10])


class TestDestinationStillPrepared:
    def test_resident_page(self, pvm, make):
        src, dst = make("src", fill=10), make("dst", fill=50)
        ctx = map_reader(pvm, dst)
        assert_reads(pvm, ctx, dst, 50)
        assert not pvm._holds_nothing(dst, 0, 2 * PAGE)
        copy_in(src, dst)
        assert_reads(pvm, ctx, dst, 10)
        assert 0 not in dst.pages

    def test_cow_stub(self, pvm, make):
        other, src = make("other", fill=30), make("src", fill=10)
        dst = make("dst")
        other.copy(0, dst, 0, 2 * PAGE, policy=CopyPolicy.PER_PAGE)
        assert dst.stub_offsets
        assert not pvm._holds_nothing(dst, 0, 2 * PAGE)
        ctx = map_reader(pvm, dst)
        assert_reads(pvm, ctx, dst, 30)
        copy_in(src, dst)
        assert_reads(pvm, ctx, dst, 10)
        # The stub is gone: writing its old source leaves dst alone.
        other.write(0, b"\xee" * 4)
        assert dst.read(0, 4) == bytes([10]) * 4
        assert not other.incoming_stubs

    def test_stub_sourcing_the_destination(self, pvm, make):
        """A per-page copy *from* dst pins dst's pre-copy bytes: it
        must be materialized before dst's content changes hands, even
        when dst holds no page of its own (the stub is detached to
        (dst, offset) from the start)."""
        src, dst = make("src", fill=10), make("dst")
        reader = make("reader")
        dst.copy(0, reader, 0, 2 * PAGE, policy=CopyPolicy.PER_PAGE)
        assert dst.incoming_stubs and not dst.pages and not dst.owned
        ctx = map_reader(pvm, dst)
        copy_in(src, dst)
        assert_reads(pvm, ctx, dst, 10)
        assert reader.read(0, 4) == bytes(4)
        assert reader.read(PAGE, 4) == bytes(4)

    def test_stub_sourcing_a_flushed_destination(self, pvm, make):
        src, dst = make("src", fill=10), make("dst", fill=50)
        reader = make("reader")
        dst.copy(0, reader, 0, 2 * PAGE, policy=CopyPolicy.PER_PAGE)
        dst.flush(0, 2 * PAGE)       # the stubs detach to (dst, offset)
        assert dst.incoming_stubs and not dst.pages
        ctx = map_reader(pvm, dst)
        copy_in(src, dst)
        assert_reads(pvm, ctx, dst, 10)
        for page in range(2):
            assert reader.read(page * PAGE, 4) == bytes([50 + page]) * 4

    def test_guard(self, pvm, make):
        """dst is itself a copy source: its history object must get
        the pre-image before dst's content is replaced."""
        src, dst = make("src", fill=10), make("dst", fill=50)
        history = make("history")
        dst.copy(0, history, 0, 2 * PAGE, policy=CopyPolicy.HISTORY)
        assert dst.guards
        ctx = map_reader(pvm, dst)
        copy_in(src, dst)
        assert_reads(pvm, ctx, dst, 10)
        for page in range(2):
            assert history.read(page * PAGE, 4) == bytes([50 + page]) * 4

    def test_guard_over_untouched_pages(self, pvm, make):
        """Only the guard marks the range: dst never held a page, yet
        its history object is owed the (zero) pre-image."""
        src, dst = make("src", fill=10), make("dst")
        history = make("history")
        dst.copy(0, history, 0, 2 * PAGE, policy=CopyPolicy.HISTORY)
        assert dst.guards and not dst.pages and not dst.owned
        assert not pvm._holds_nothing(dst, 0, 2 * PAGE)
        ctx = map_reader(pvm, dst)
        copy_in(src, dst)
        assert_reads(pvm, ctx, dst, 10)
        assert history.read(0, 4) == bytes(4)
        assert history.read(PAGE, 4) == bytes(4)

    def test_read_mapping_of_an_ancestor_frame(self, pvm, make):
        """A reader mapping an ancestor's frame on dst's behalf must
        refault onto the new content."""
        ancestor, src = make("ancestor", fill=70), make("src", fill=10)
        dst = make("dst")
        ancestor.copy(0, dst, 0, 2 * PAGE, policy=CopyPolicy.HISTORY)
        ctx = map_reader(pvm, dst)
        assert_reads(pvm, ctx, dst, 70)
        assert pvm.hw.serves_range(dst, 0, 2 * PAGE)
        assert not dst.pages
        copy_in(src, dst)
        assert not pvm.hw.serves_range(dst, 0, 2 * PAGE)
        assert_reads(pvm, ctx, dst, 10)
        for page in range(2):
            assert ancestor.read(page * PAGE, 4) == bytes([70 + page]) * 4
