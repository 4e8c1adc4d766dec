"""Discrete-event simulation engine.

The simulator advances a global clock in *activity intervals* (an
allocation call, a CPU initialisation loop, a kernel launch, a migration
window). Within an interval the memory model is evaluated with vectorised
numpy batch operations rather than per-access events — a million-page
kernel epoch is one batch — which is what makes paper-scale problems
(a 34-qubit, 128 GB statevector is two million 64 KB pages) tractable in
pure Python.

Two event facilities complement the batch path:

* a classic priority event queue (:meth:`SimClock.schedule` /
  :meth:`SimClock.run_until`) used by delayed actions such as
  access-counter notifications and asynchronous prefetch completions;
* *tick listeners*, callbacks invoked at fixed simulated-time periods
  while the clock advances — the memory-utilisation profiler of
  Section 3.2 registers one with a 100 ms period.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable


@dataclass(order=True)
class _ScheduledEvent:
    time: float
    seq: int
    action: Callable[[], None] = field(compare=False)
    label: str = field(compare=False, default="")
    cancelled: bool = field(compare=False, default=False)


class TickListener:
    """A periodic callback driven by simulated time.

    ``callback(t)`` fires once for every multiple of ``period`` the clock
    crosses, including retroactively when a single :meth:`SimClock.advance`
    spans several periods — a long kernel still yields evenly spaced
    profiler samples.
    """

    def __init__(self, period: float, callback: Callable[[float], None]):
        if period <= 0:
            raise ValueError("tick period must be positive")
        self.period = period
        self.callback = callback
        self.next_fire = period

    def catch_up(self, now: float) -> None:
        while self.next_fire <= now:
            self.callback(self.next_fire)
            self.next_fire += self.period

    def reset(self, now: float = 0.0) -> None:
        """Re-arm relative to ``now`` (the clock rewound or restarted)."""
        self.next_fire = now + self.period


class SimClock:
    """Simulated wall clock with an event queue."""

    def __init__(self) -> None:
        self._now = 0.0
        self._queue: list[_ScheduledEvent] = []
        #: Event tie-break sequence. A plain integer (not an iterator) so
        #: epoch checkpoints can capture and restore it.
        self._seq = 0
        self._listeners: list[TickListener] = []
        #: Optional :class:`repro.profiling.Timeline` (wired by the
        #: runtime when timelines are requested; ``None`` keeps the
        #: advance hot path emission-free).
        self.timeline = None

    # -- time ------------------------------------------------------------

    @property
    def now(self) -> float:
        return self._now

    def advance(self, dt: float, activity: str | None = None) -> float:
        """Advance the clock by ``dt`` seconds of activity.

        Due events scheduled within the interval fire at their own
        timestamps (in order), and periodic listeners catch up. Returns the
        new time.
        """
        if dt < 0:
            raise ValueError(f"cannot advance clock by negative dt={dt}")
        target = self._now + dt
        self._drain_until(target)
        self._now = target
        for listener in self._listeners:
            listener.catch_up(self._now)
        if activity and self.timeline is not None:
            self.timeline.complete(
                activity, target - dt, dt, cat="sim", track="sim/activity"
            )
        return self._now

    def _drain_until(self, target: float) -> None:
        while self._queue and self._queue[0].time <= target:
            ev = heapq.heappop(self._queue)
            if ev.cancelled:
                continue
            self._now = max(self._now, ev.time)
            for listener in self._listeners:
                listener.catch_up(self._now)
            ev.action()

    # -- events ----------------------------------------------------------

    def schedule(
        self, delay: float, action: Callable[[], None], label: str = ""
    ) -> _ScheduledEvent:
        """Schedule ``action`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError("cannot schedule events in the past")
        ev = _ScheduledEvent(self._now + delay, self._seq, action, label)
        self._seq += 1
        heapq.heappush(self._queue, ev)
        return ev

    def cancel(self, event: _ScheduledEvent) -> None:
        event.cancelled = True

    def run_until(self, t: float) -> None:
        """Fire all events up to ``t`` and move the clock there."""
        if t < self._now:
            raise ValueError("run_until target is in the past")
        self._drain_until(t)
        self._now = t
        for listener in self._listeners:
            listener.catch_up(self._now)

    def pending_events(self) -> int:
        return sum(1 for ev in self._queue if not ev.cancelled)

    # -- listeners ---------------------------------------------------------

    def add_tick_listener(
        self, period: float, callback: Callable[[float], None]
    ) -> TickListener:
        listener = TickListener(period, callback)
        listener.next_fire = self._now + period
        self._listeners.append(listener)
        return listener

    def remove_tick_listener(self, listener: TickListener) -> None:
        self._listeners.remove(listener)

    def reset(self) -> None:
        self._now = 0.0
        self._queue.clear()
        # Listeners stay registered — their owners (e.g. the memory
        # profiler) outlive a reset and would otherwise silently stop
        # sampling on the next run (and crash trying to deregister).
        # Re-arm each one relative to the rewound clock instead.
        for listener in self._listeners:
            listener.reset(0.0)
        # Restart the tie-break sequence too, so event ordering is
        # reproducible across back-to-back runs in one process (pooled
        # experiment workers reuse the interpreter).
        self._seq = 0


class Stopwatch:
    """Measures simulated-time spans, used for the paper's phase timings.

    The paper times phases with ``gettimeofday`` around each phase
    (Figure 2); this is the simulated equivalent.
    """

    def __init__(self, clock: SimClock):
        self._clock = clock
        self._start: float | None = None
        self.elapsed = 0.0

    def __enter__(self) -> "Stopwatch":
        self._start = self._clock.now
        return self

    def __exit__(self, *exc) -> None:
        assert self._start is not None
        self.elapsed += self._clock.now - self._start
        self._start = None
