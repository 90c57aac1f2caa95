"""Unit tests for the virtual clock and cost model."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.costmodel import CHORUS_SUN360, MACH_SUN360
from repro.kernel.clock import (
    TICKS_PER_MS, ClockRegion, CostEvent, CostModel, VirtualClock,
)


class TestCostModel:
    def test_unpriced_event_is_free(self):
        model = CostModel()
        assert model.price(CostEvent.BCOPY_PAGE) == 0.0

    def test_priced_event(self):
        model = CostModel({CostEvent.BCOPY_PAGE: 1.4})
        assert model.price(CostEvent.BCOPY_PAGE) == 1.4

    def test_with_overrides_does_not_mutate(self):
        base = CostModel({CostEvent.BCOPY_PAGE: 1.4}, name="base")
        derived = base.with_overrides({CostEvent.BCOPY_PAGE: 2.0}, name="d")
        assert base.price(CostEvent.BCOPY_PAGE) == 1.4
        assert derived.price(CostEvent.BCOPY_PAGE) == 2.0
        assert derived.name == "d"

    def test_priced_events_lists_nonzero(self):
        model = CostModel({CostEvent.BCOPY_PAGE: 1.4, CostEvent.PAGE_MAP: 0.0})
        assert model.priced_events() == [CostEvent.BCOPY_PAGE]


class TestVirtualClock:
    def test_charge_advances_time(self):
        clock = VirtualClock(CostModel({CostEvent.BZERO_PAGE: 0.87}))
        clock.charge(CostEvent.BZERO_PAGE, 3)
        assert clock.now() == pytest.approx(2.61)

    def test_charge_counts_even_when_free(self):
        clock = VirtualClock()
        clock.charge(CostEvent.FAULT_DISPATCH)
        clock.charge(CostEvent.FAULT_DISPATCH)
        assert clock.count(CostEvent.FAULT_DISPATCH) == 2
        assert clock.now() == 0.0

    def test_zero_count_charge_is_noop(self):
        clock = VirtualClock(CostModel({CostEvent.PAGE_MAP: 1.0}))
        assert clock.charge(CostEvent.PAGE_MAP, 0) == 0.0
        assert clock.count(CostEvent.PAGE_MAP) == 0

    def test_advance_direct(self):
        clock = VirtualClock()
        clock.advance(5.0)
        assert clock.now() == 5.0

    def test_advance_negative_rejected(self):
        clock = VirtualClock()
        with pytest.raises(ValueError):
            clock.advance(-1.0)

    def test_reset(self):
        clock = VirtualClock(CostModel({CostEvent.PAGE_MAP: 1.0}))
        clock.charge(CostEvent.PAGE_MAP)
        clock.reset()
        assert clock.now() == 0.0
        assert clock.count(CostEvent.PAGE_MAP) == 0

    def test_snapshot(self):
        clock = VirtualClock()
        clock.charge(CostEvent.FRAME_ALLOC, 4)
        snap = clock.snapshot()
        assert snap == {"frame_alloc": 4}

    def test_clock_region_measures_elapsed(self):
        clock = VirtualClock(CostModel({CostEvent.BCOPY_PAGE: 1.4}))
        clock.charge(CostEvent.BCOPY_PAGE)
        with ClockRegion(clock) as region:
            clock.charge(CostEvent.BCOPY_PAGE, 2)
        assert region.elapsed == pytest.approx(2.8)


class TestChargeEach:
    """charge_each is a synonym of charge: one grouped charge, exactly
    equal to N sequential unit charges."""

    PRICE = 0.087            # not exact in binary, but a whole tick count

    def test_bit_identical_to_unit_charges(self):
        model = CostModel({CostEvent.REGION_INVALIDATE_PAGE: self.PRICE})
        bulk, loop = VirtualClock(model), VirtualClock(model)
        bulk.charge_each(CostEvent.REGION_INVALIDATE_PAGE, 1000)
        for _ in range(1000):
            loop.charge(CostEvent.REGION_INVALIDATE_PAGE)
        assert bulk.now() == loop.now()          # exact, not approx
        assert bulk.count(CostEvent.REGION_INVALIDATE_PAGE) == 1000

    def test_unpriced_event_moves_only_the_counter(self):
        clock = VirtualClock()
        assert clock.charge_each(CostEvent.PAGE_UNMAP, 5) == 0.0
        assert clock.now() == 0.0
        assert clock.count(CostEvent.PAGE_UNMAP) == 5

    def test_nonpositive_count_is_a_noop(self):
        clock = VirtualClock(CostModel({CostEvent.PAGE_MAP: 1.0}))
        assert clock.charge_each(CostEvent.PAGE_MAP, 0) == 0.0
        assert clock.charge_each(CostEvent.PAGE_MAP, -3) == 0.0
        assert clock.now() == 0.0

    def test_listeners_see_one_grouped_charge(self):
        clock = VirtualClock(CostModel({CostEvent.PAGE_MAP: 1.0}))
        seen = []
        clock.add_listener(lambda t, e, c: seen.append((t, e, c)))
        clock.charge(CostEvent.PAGE_MAP)
        clock.charge_each(CostEvent.PAGE_MAP, 3)
        assert seen == [(0.0, CostEvent.PAGE_MAP, 1),
                        (1.0, CostEvent.PAGE_MAP, 3)]
        assert clock.now() == 4.0

    def test_capture_records_one_grouped_charge(self):
        clock = VirtualClock(CostModel({CostEvent.PAGE_MAP: 1.0}))
        with clock.capture() as region:
            clock.charge_each(CostEvent.PAGE_MAP, 2)
        assert region.charges == [(CostEvent.PAGE_MAP, 2)]
        assert clock.now() == 0.0


SHIPPED = (CHORUS_SUN360, MACH_SUN360)


class TestIntegerTime:
    """Virtual time is an integer tick count: charges commute."""

    @pytest.mark.parametrize("model", SHIPPED, ids=lambda m: m.name)
    def test_every_shipped_price_is_a_whole_tick(self, model):
        # The decimal price, not its binary float, must be a whole
        # number of ticks; otherwise the clock would round it silently.
        for event in CostEvent:
            exact = Fraction(repr(model.price(event))) * TICKS_PER_MS
            assert exact.denominator == 1, (event, model.price(event))
            assert model.ticks.get(event, 0) == exact

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_permuted_and_regrouped_charges_agree(self, data):
        model = data.draw(st.sampled_from(SHIPPED))
        events = sorted(model.priced_events(), key=lambda e: e.value)
        units = data.draw(st.lists(st.sampled_from(events), max_size=60))
        shuffled = data.draw(st.permutations(units))
        cuts = data.draw(st.lists(st.booleans(), min_size=len(shuffled),
                                  max_size=len(shuffled)))
        in_order, regrouped = VirtualClock(model), VirtualClock(model)
        for event in units:
            in_order.charge(event)
        # Charge the permutation with adjacent same-event units merged
        # into one charge wherever no cut falls between them.
        run_event, run_count = None, 0
        for event, cut in zip(shuffled, cuts):
            if event is run_event and not cut:
                run_count += 1
                continue
            if run_event is not None:
                regrouped.charge(run_event, run_count)
            run_event, run_count = event, 1
        if run_event is not None:
            regrouped.charge(run_event, run_count)
        assert regrouped.now() == in_order.now()
        assert regrouped.snapshot() == in_order.snapshot()

    @settings(max_examples=30, deadline=None)
    @given(model=st.sampled_from(SHIPPED),
           event=st.sampled_from(list(CostEvent)),
           count=st.integers(min_value=0, max_value=5000))
    def test_grouped_charge_equals_unit_charges(self, model, event, count):
        grouped, units = VirtualClock(model), VirtualClock(model)
        grouped.charge(event, count)
        for _ in range(count):
            units.charge(event)
        assert grouped.now() == units.now()
        assert grouped.snapshot() == units.snapshot()
