"""Discrete-event engine: ordering, determinism, error handling."""

import pytest

from repro.errors import SimulationError
from repro.sim import Engine


class TestScheduling:
    def test_events_fire_in_time_order(self):
        eng = Engine()
        fired = []
        eng.schedule(30.0, lambda: fired.append("c"))
        eng.schedule(10.0, lambda: fired.append("a"))
        eng.schedule(20.0, lambda: fired.append("b"))
        eng.run()
        assert fired == ["a", "b", "c"]

    def test_ties_fire_in_scheduling_order(self):
        eng = Engine()
        fired = []
        for name in "abcde":
            eng.schedule(5.0, lambda n=name: fired.append(n))
        eng.run()
        assert fired == list("abcde")

    def test_clock_advances_with_events(self):
        eng = Engine()
        seen = []
        eng.schedule(7.5, lambda: seen.append(eng.now))
        eng.run()
        assert seen == [7.5]
        assert eng.now == 7.5

    def test_scheduling_in_past_raises(self):
        eng = Engine()
        eng.schedule(10.0, lambda: None)
        eng.run()
        with pytest.raises(SimulationError):
            eng.schedule(5.0, lambda: None)

    def test_schedule_after(self):
        eng = Engine()
        times = []
        eng.schedule(10.0, lambda: eng.schedule_after(5.0, lambda: times.append(eng.now)))
        eng.run()
        assert times == [15.0]

    def test_negative_delay_raises(self):
        eng = Engine()
        with pytest.raises(SimulationError):
            eng.schedule_after(-1.0, lambda: None)


class TestRunControl:
    def test_run_until_stops_before_later_events(self):
        eng = Engine()
        fired = []
        eng.schedule(10.0, lambda: fired.append(1))
        eng.schedule(100.0, lambda: fired.append(2))
        count = eng.run(until=50.0)
        assert count == 1
        assert fired == [1]
        # Clock is advanced to the horizon even with no event there.
        assert eng.now == 50.0

    def test_remaining_events_fire_on_next_run(self):
        eng = Engine()
        fired = []
        eng.schedule(10.0, lambda: fired.append(1))
        eng.schedule(100.0, lambda: fired.append(2))
        eng.run(until=50.0)
        eng.run()
        assert fired == [1, 2]

    def test_max_events(self):
        eng = Engine()
        fired = []
        for t in range(10):
            eng.schedule(float(t), lambda t=t: fired.append(t))
        eng.run(max_events=3)
        assert fired == [0, 1, 2]

    def test_events_can_schedule_events(self):
        eng = Engine()
        fired = []

        def recurse(depth):
            fired.append(depth)
            if depth < 5:
                eng.schedule_after(1.0, lambda: recurse(depth + 1))

        eng.schedule(0.0, lambda: recurse(0))
        eng.run()
        assert fired == list(range(6))
        assert eng.now == 5.0


class TestCancellation:
    def test_cancelled_events_do_not_fire(self):
        eng = Engine()
        fired = []
        event = eng.schedule(10.0, lambda: fired.append("x"))
        eng.schedule(5.0, lambda: fired.append("y"))
        event.cancel()
        eng.run()
        assert fired == ["y"]

    def test_peek_skips_cancelled(self):
        eng = Engine()
        event = eng.schedule(10.0, lambda: None)
        eng.schedule(20.0, lambda: None)
        event.cancel()
        assert eng.peek_time() == 20.0

    def test_step_returns_false_when_empty(self):
        assert Engine().step() is False

    def test_engine_cancel_method(self):
        eng = Engine()
        fired = []
        event = eng.schedule(10.0, lambda: fired.append("x"))
        eng.cancel(event)
        eng.cancel(event)  # idempotent
        eng.run()
        assert fired == []

    def test_mass_cancellation_compacts_and_stays_correct(self):
        eng = Engine()
        fired = []
        keep = [eng.schedule(1000.0 + t, lambda t=t: fired.append(t)) for t in range(5)]
        doomed = [eng.schedule(float(t), lambda: fired.append(-1)) for t in range(500)]
        for event in doomed:
            eng.cancel(event)
        # Lazy deletion must not leave the heap full of corpses forever.
        assert len(eng._queue) < 100
        eng.run()
        assert fired == [0, 1, 2, 3, 4]
        assert keep[0].cancelled is False


    def test_compaction_during_run_keeps_one_queue(self):
        """An event that cancels enough entries to compact the heap
        mid-run, then schedules more work: the running loop must see
        the new event and must not fire survivors twice."""
        eng = Engine()
        fired = []
        doomed = [
            eng.schedule(10.0 + t, lambda: fired.append("doomed"))
            for t in range(100)
        ]

        def purge():
            for event in doomed:
                eng.cancel(event)
            eng.schedule(50.0, lambda: fired.append("new"))

        eng.schedule(1.0, purge)
        eng.schedule(200.0, lambda: fired.append("last"))
        eng.run()
        assert fired == ["new", "last"]
        assert eng.run() == 0


class TestCounters:
    def test_events_fired_counts_only_fired(self):
        eng = Engine()
        event = eng.schedule(5.0, lambda: None)
        eng.schedule(1.0, lambda: None)
        eng.schedule(2.0, lambda: None)
        event.cancel()
        eng.run()
        assert eng.events_fired == 2

    def test_run_return_matches_counter_delta(self):
        eng = Engine()
        for t in range(7):
            eng.schedule(float(t), lambda: None)
        before = eng.events_fired
        count = eng.run()
        assert count == eng.events_fired - before == 7


class TestArrivalCursor:
    """External arrivals ride a time-sorted cursor merged with the heap."""

    def test_arrival_fires_before_earlier_scheduled_event_at_same_time(self):
        eng = Engine()
        fired = []
        eng.schedule(5.0, lambda: fired.append("internal"))
        eng.schedule_arrival(5.0, lambda: fired.append("arrival"))
        eng.run()
        assert fired == ["arrival", "internal"]

    def test_out_of_order_offers_fire_in_time_order_ties_in_offer_order(self):
        fired = []
        eng = Engine(arrival_handler=fired.append)
        eng.offer_arrivals([(3.0, "c1"), (1.0, "a"), (3.0, "c2")])
        eng.offer_arrivals([(2.0, "b"), (3.0, "c3"), (1.0, "a2")])
        eng.run()
        assert fired == ["a", "a2", "b", "c1", "c2", "c3"]

    def test_arrivals_interleave_with_internal_events(self):
        fired = []
        eng = Engine(arrival_handler=fired.append)
        eng.schedule(1.5, lambda: fired.append("e1.5"))
        eng.schedule(2.0, lambda: fired.append("e2"))
        eng.offer_arrivals([(1.0, "a1"), (2.0, "a2"), (3.0, "a3")])
        eng.run()
        assert fired == ["a1", "e1.5", "a2", "e2", "a3"]

    def test_peek_and_step_see_pending_arrivals(self):
        fired = []
        eng = Engine(arrival_handler=fired.append)
        eng.schedule(4.0, lambda: fired.append("internal"))
        eng.offer_arrivals([(2.0, "arrival")])
        assert eng.peek_time() == 2.0
        assert eng.step() is True
        assert fired == ["arrival"] and eng.now == 2.0
        assert eng.peek_time() == 4.0
        assert eng.step() is True
        assert eng.step() is False
        assert eng.peek_time() is None

    def test_arrival_in_the_past_raises_and_queues_nothing(self):
        eng = Engine(arrival_handler=lambda item: None)
        eng.schedule(10.0, lambda: None)
        eng.run()
        with pytest.raises(SimulationError):
            eng.offer_arrivals([(12.0, "ok"), (5.0, "late")])
        with pytest.raises(SimulationError):
            eng.schedule_arrival(9.0, "late")
        assert eng.peek_time() is None

    def test_events_fired_counts_arrivals(self):
        eng = Engine(arrival_handler=lambda item: None)
        eng.schedule(1.0, lambda: None)
        eng.offer_arrivals([(0.5, "a"), (2.0, "b")])
        assert eng.run() == 3
        assert eng.events_fired == 3

    def test_exclusive_boundary_leaves_arrivals_queued(self):
        fired = []
        eng = Engine(arrival_handler=fired.append)
        eng.offer_arrivals([(1.0, "a"), (5.0, "at-boundary")])
        eng.schedule(5.0, lambda: fired.append("internal"))
        eng.run(until=5.0, inclusive=False)
        assert fired == ["a"] and eng.now == 5.0
        assert eng.peek_time() == 5.0
        # The next block's arrival at the boundary still fires first.
        eng.offer_arrivals([(5.0, "next-block")])
        eng.run()
        assert fired == ["a", "at-boundary", "next-block", "internal"]

    def test_arrival_offered_by_an_event_joins_the_cursor(self):
        fired = []
        eng = Engine(arrival_handler=fired.append)
        eng.schedule(1.0, lambda: eng.schedule_arrival(1.0, "same-instant"))
        eng.schedule(1.0, lambda: fired.append("internal"))
        eng.offer_arrivals([(2.0, "later")])
        eng.run()
        assert fired == ["same-instant", "internal", "later"]

    def test_max_events_counts_arrivals(self):
        fired = []
        eng = Engine(arrival_handler=fired.append)
        eng.offer_arrivals([(float(t), t) for t in range(5)])
        assert eng.run(max_events=2) == 2
        assert fired == [0, 1]
