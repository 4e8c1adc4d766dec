"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim.engine import SimClock, Stopwatch


class TestClockAdvance:
    def test_starts_at_zero(self):
        assert SimClock().now == 0.0

    def test_advance_moves_time(self):
        clock = SimClock()
        clock.advance(1.5)
        clock.advance(0.5)
        assert clock.now == pytest.approx(2.0)

    def test_advance_rejects_negative(self):
        with pytest.raises(ValueError):
            SimClock().advance(-1)


class TestScheduledEvents:
    def test_events_fire_in_order(self):
        clock = SimClock()
        fired = []
        clock.schedule(2.0, lambda: fired.append("b"))
        clock.schedule(1.0, lambda: fired.append("a"))
        clock.advance(3.0)
        assert fired == ["a", "b"]

    def test_event_does_not_fire_early(self):
        clock = SimClock()
        fired = []
        clock.schedule(5.0, lambda: fired.append(1))
        clock.advance(4.9)
        assert not fired
        clock.advance(0.2)
        assert fired == [1]

    def test_cancelled_event_does_not_fire(self):
        clock = SimClock()
        fired = []
        ev = clock.schedule(1.0, lambda: fired.append(1))
        clock.cancel(ev)
        clock.advance(2.0)
        assert not fired
        assert clock.pending_events() == 0

    def test_schedule_rejects_negative_delay(self):
        with pytest.raises(ValueError):
            SimClock().schedule(-0.1, lambda: None)

    def test_same_time_events_fifo(self):
        clock = SimClock()
        fired = []
        clock.schedule(1.0, lambda: fired.append("first"))
        clock.schedule(1.0, lambda: fired.append("second"))
        clock.advance(1.0)
        assert fired == ["first", "second"]

    def test_run_until(self):
        clock = SimClock()
        fired = []
        clock.schedule(1.0, lambda: fired.append(1))
        clock.run_until(2.0)
        assert fired == [1]
        assert clock.now == 2.0

    def test_run_until_rejects_past(self):
        clock = SimClock()
        clock.advance(1.0)
        with pytest.raises(ValueError):
            clock.run_until(0.5)


class TestTickListeners:
    def test_fires_once_per_period(self):
        clock = SimClock()
        ticks = []
        clock.add_tick_listener(0.1, ticks.append)
        clock.advance(0.35)
        assert len(ticks) == 3
        assert ticks == pytest.approx([0.1, 0.2, 0.3])

    def test_catches_up_over_long_advance(self):
        clock = SimClock()
        ticks = []
        clock.add_tick_listener(0.1, ticks.append)
        clock.advance(1.0)  # one long kernel spans 10 periods
        assert len(ticks) == 10

    def test_listener_removal(self):
        clock = SimClock()
        ticks = []
        listener = clock.add_tick_listener(0.1, ticks.append)
        clock.advance(0.15)
        clock.remove_tick_listener(listener)
        clock.advance(1.0)
        assert len(ticks) == 1

    def test_rejects_nonpositive_period(self):
        with pytest.raises(ValueError):
            SimClock().add_tick_listener(0.0, lambda t: None)

    def test_listener_fires_during_scheduled_events(self):
        clock = SimClock()
        seen = []
        clock.add_tick_listener(0.1, lambda t: seen.append(("tick", round(t, 3))))
        clock.schedule(0.25, lambda: seen.append(("event", round(clock.now, 3))))
        clock.advance(0.3)
        assert ("tick", 0.1) in seen and ("tick", 0.2) in seen
        assert seen.index(("tick", 0.2)) < seen.index(("event", 0.25))


class TestStopwatch:
    def test_measures_span(self):
        clock = SimClock()
        with Stopwatch(clock) as w:
            clock.advance(0.5)
        assert w.elapsed == pytest.approx(0.5)

    def test_accumulates_across_spans(self):
        clock = SimClock()
        w = Stopwatch(clock)
        with w:
            clock.advance(0.25)
        clock.advance(1.0)  # not measured
        with w:
            clock.advance(0.25)
        assert w.elapsed == pytest.approx(0.5)

    def test_reset(self):
        clock = SimClock()
        clock.advance(1.0)
        clock.schedule(5.0, lambda: None)
        clock.reset()
        assert clock.now == 0.0
        assert clock.pending_events() == 0
