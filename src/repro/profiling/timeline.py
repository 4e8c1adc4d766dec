"""Unified event-timeline observability across the whole stack.

The profiling stack so far answers *what* happened (``counters``),
*how much* of one quantity over time (``memprofiler``), and *which
access batches* ran (``trace``) — but not *when and in what order* the
mechanisms the paper separates (fault service, migration, eviction,
remote access, fabric transfers, serve dispatch) actually fired. This
module is that missing substrate: a low-overhead structured event layer
with

* **spans** (begin/end pairs or retrospective complete events with a
  known duration), **instant events**, and **counter tracks**;
* a bounded **ring buffer** (oldest events drop first, with a dropped
  count, so a long run can never exhaust memory);
* export to **Chrome/Perfetto trace JSON** (load ``trace.json`` at
  https://ui.perfetto.dev) and **JSON-lines** (round-trippable via
  :meth:`Timeline.read_jsonl`);
* an in-process **analysis API** — :meth:`Timeline.spans`,
  :meth:`Timeline.attribution` (per-phase time attribution with nested
  child time excluded), :meth:`Timeline.critical_path` — so tests and
  notebooks query timelines directly instead of parsing dumps.

Timelines are strictly observational: emission never touches model
state, so simulated results (and the golden fingerprints) are identical
with timelines on or off. Emission is opt-in three ways — per config
(``SystemConfig.timeline``), globally (``REPRO_TIMELINE=1``), or for one
code region (:class:`TimelineSession`, which ``repro-bench trace``
uses). When none of the three is active every producer holds ``None``
and the hot paths skip emission entirely (a single attribute test).

Two time domains coexist: simulator-side timelines stamp events with
*simulated* seconds (:attr:`SimClock.now`), serving-side timelines with
wall-clock ``time.monotonic()`` and OS process/thread ids
(``tag_os_ids=True``). Merged exports keep them apart as separate
Perfetto "processes".
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

from ..mem.observer import MemObserver

#: Environment variable enabling timelines globally (like REPRO_SANITIZE).
ENV_FLAG = "REPRO_TIMELINE"

#: Default ring-buffer capacity (events); the oldest events drop first.
DEFAULT_CAPACITY = 1 << 16

#: Module-wide count of events ever emitted (all timelines). The
#: disabled-mode regression test pins this: with no timeline active, the
#: counter must not move — proof the hot paths did no emission work.
TOTAL_EMITTED = 0

#: Perfetto phase codes used: B/E (nested span), X (complete span with
#: duration), i (instant), C (counter), M (metadata; export-only).
_PHASES = ("B", "E", "X", "i", "C")


class TimelineEvent:
    """One structured event. ``ts``/``dur`` are seconds in the owning
    timeline's domain; ``pid``/``tid`` are OS ids when the timeline tags
    them, else ``None`` (the exporter lays tracks out synthetically)."""

    __slots__ = ("ts", "ph", "name", "cat", "track", "dur", "args", "pid", "tid")

    def __init__(self, ts, ph, name, cat, track, dur=None, args=None,
                 pid=None, tid=None):
        self.ts = ts
        self.ph = ph
        self.name = name
        self.cat = cat
        self.track = track
        self.dur = dur
        self.args = args
        self.pid = pid
        self.tid = tid

    def to_dict(self) -> dict:
        d = {"ts": self.ts, "ph": self.ph, "name": self.name,
             "cat": self.cat, "track": self.track}
        if self.dur is not None:
            d["dur"] = self.dur
        if self.args:
            d["args"] = self.args
        if self.pid is not None:
            d["pid"] = self.pid
        if self.tid is not None:
            d["tid"] = self.tid
        return d

    @staticmethod
    def from_dict(d: dict) -> "TimelineEvent":
        return TimelineEvent(
            d["ts"], d["ph"], d["name"], d.get("cat", ""), d.get("track", ""),
            d.get("dur"), d.get("args"), d.get("pid"), d.get("tid"),
        )

    def __repr__(self) -> str:
        dur = f" dur={self.dur * 1e3:.3f}ms" if self.dur is not None else ""
        return f"<{self.ph} {self.name!r} @ {self.ts * 1e3:.3f}ms{dur}>"


class Span:
    """One reconstructed span (an X event, or a paired B/E)."""

    __slots__ = ("name", "cat", "track", "start", "duration", "args")

    def __init__(self, name, cat, track, start, duration, args=None):
        self.name = name
        self.cat = cat
        self.track = track
        self.start = start
        self.duration = duration
        self.args = args or {}

    @property
    def end(self) -> float:
        return self.start + self.duration

    def __repr__(self) -> str:
        return (
            f"<Span {self.name!r} [{self.start * 1e3:.3f}, "
            f"{self.end * 1e3:.3f}] ms>"
        )


class Timeline:
    """A ring-buffered structured event log over one time domain.

    ``time_fn`` supplies the current time in seconds (simulated or
    wall-clock); ``tag_os_ids`` stamps every event with the emitting OS
    process and thread id (the serving layer's mode).
    """

    def __init__(
        self,
        *,
        capacity: int = DEFAULT_CAPACITY,
        time_fn: Callable[[], float] | None = None,
        tag_os_ids: bool = False,
        name: str = "sim",
    ):
        if capacity < 1:
            raise ValueError("timeline capacity must be positive")
        self.capacity = capacity
        self.name = name
        self.tag_os_ids = tag_os_ids
        self._time_fn = time_fn or time.monotonic
        self._events: deque[TimelineEvent] = deque(maxlen=capacity)
        self.dropped = 0
        self.emitted = 0

    # -- time --------------------------------------------------------------

    def now(self) -> float:
        return self._time_fn()

    # -- emission ----------------------------------------------------------

    def _emit(self, ev: TimelineEvent) -> None:
        global TOTAL_EMITTED
        if self.tag_os_ids:
            ev.pid = os.getpid()
            ev.tid = threading.get_ident()
        if len(self._events) == self.capacity:
            self.dropped += 1
        self._events.append(ev)
        self.emitted += 1
        TOTAL_EMITTED += 1

    def begin(self, name: str, *, cat: str = "", track: str = "main",
              **args: Any) -> None:
        """Open a nested span on ``track`` (close with :meth:`end`)."""
        self._emit(TimelineEvent(self.now(), "B", name, cat, track,
                                 args=args or None))

    def end(self, name: str = "", *, track: str = "main", **args: Any) -> None:
        """Close the innermost open span on ``track``."""
        self._emit(TimelineEvent(self.now(), "E", name, "", track,
                                 args=args or None))

    @contextmanager
    def span(self, name: str, *, cat: str = "", track: str = "main",
             **args: Any) -> Iterator[None]:
        self.begin(name, cat=cat, track=track, **args)
        try:
            yield
        finally:
            self.end(name, track=track)

    def complete(self, name: str, start: float, duration: float, *,
                 cat: str = "", track: str = "main", **args: Any) -> None:
        """Record a span whose duration is already known (an ``X``
        event) — the natural shape for model-computed costs."""
        self._emit(TimelineEvent(start, "X", name, cat, track,
                                 dur=max(0.0, duration), args=args or None))

    def instant(self, name: str, *, cat: str = "", track: str = "main",
                **args: Any) -> None:
        self._emit(TimelineEvent(self.now(), "i", name, cat, track,
                                 args=args or None))

    def counter(self, track: str, *, cat: str = "", **values: float) -> None:
        """Record a counter-track sample (Perfetto renders it as an
        area chart)."""
        self._emit(TimelineEvent(self.now(), "C", track, cat, track,
                                 args=dict(values)))

    def clear(self) -> None:
        self._events.clear()
        self.dropped = 0

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._events)

    def events(self, ph: str | None = None, *, cat: str | None = None,
               track: str | None = None) -> list[TimelineEvent]:
        return [
            ev for ev in self._events
            if (ph is None or ev.ph == ph)
            and (cat is None or ev.cat == cat)
            and (track is None or ev.track == track)
        ]

    def spans(self, name: str | None = None, *, cat: str | None = None,
              track: str | None = None) -> list[Span]:
        """All reconstructed spans, sorted by start time.

        X events map one-to-one; B/E pairs are matched per track in
        stack order (an unmatched B closes at the last event's
        timestamp; an unmatched E — its B fell off the ring — is
        dropped).
        """
        out: list[Span] = []
        stacks: dict[str, list[TimelineEvent]] = {}
        last_ts = 0.0
        for ev in self._events:
            last_ts = max(last_ts, ev.ts + (ev.dur or 0.0))
            if ev.ph == "X":
                out.append(Span(ev.name, ev.cat, ev.track, ev.ts, ev.dur or 0.0,
                                ev.args))
            elif ev.ph == "B":
                stacks.setdefault(ev.track, []).append(ev)
            elif ev.ph == "E":
                stack = stacks.get(ev.track)
                if stack:
                    b = stack.pop()
                    out.append(Span(b.name, b.cat, b.track, b.ts,
                                    max(0.0, ev.ts - b.ts), b.args))
        for stack in stacks.values():
            for b in stack:  # still-open spans close at the horizon
                out.append(Span(b.name, b.cat, b.track, b.ts,
                                max(0.0, last_ts - b.ts), b.args))
        out.sort(key=lambda s: s.start)
        return [
            s for s in out
            if (name is None or s.name == name)
            and (cat is None or s.cat == cat)
            and (track is None or s.track == track)
        ]

    def instants(self, name: str | None = None, *, cat: str | None = None,
                 track: str | None = None) -> list[TimelineEvent]:
        return [
            ev for ev in self.events("i", cat=cat, track=track)
            if name is None or ev.name == name
        ]

    # -- analysis ----------------------------------------------------------

    def attribution(self, *, by: str = "name",
                    track: str | None = None) -> dict[str, float]:
        """Self-time per span ``name``/``cat``/``track``: each span's
        duration minus the time covered by spans nested inside it on the
        same track — the "where did the time actually go" view the
        paper's per-mechanism breakdowns need."""
        if by not in ("name", "cat", "track"):
            raise ValueError("by must be 'name', 'cat', or 'track'")
        totals: dict[str, float] = {}
        per_track: dict[str, list[Span]] = {}
        for s in self.spans(track=track):
            per_track.setdefault(s.track, []).append(s)
        for spans in per_track.values():
            spans.sort(key=lambda s: (s.start, -s.duration))
            open_stack: list[tuple[Span, str]] = []
            for s in spans:
                while open_stack and open_stack[-1][0].end <= s.start:
                    open_stack.pop()
                key = getattr(s, by)
                totals[key] = totals.get(key, 0.0) + s.duration
                if open_stack and s.end <= open_stack[-1][0].end + 1e-12:
                    parent_key = open_stack[-1][1]
                    totals[parent_key] = totals.get(parent_key, 0.0) - s.duration
                    open_stack.append((s, key))
                elif not open_stack:
                    open_stack.append((s, key))
        return {k: v for k, v in totals.items()}

    def critical_path(self, track: str | None = None) -> list[dict]:
        """Top-level spans (not nested inside another span of the same
        track) in time order, with the gaps between them labelled
        ``(idle)`` — the sequential breakdown of where a run's wall time
        went."""
        spans = self.spans(track=track)
        top: list[Span] = []
        horizon = -float("inf")
        for s in sorted(spans, key=lambda s: (s.start, -s.duration)):
            if s.start >= horizon - 1e-12:
                top.append(s)
                horizon = max(horizon, s.end)
            else:
                horizon = max(horizon, s.end)
        out: list[dict] = []
        cursor: float | None = None
        for s in top:
            if cursor is not None and s.start - cursor > 1e-12:
                out.append({"name": "(idle)", "start": cursor,
                            "duration": s.start - cursor, "cat": ""})
            out.append({"name": s.name, "start": s.start,
                        "duration": s.duration, "cat": s.cat})
            cursor = max(cursor if cursor is not None else s.end, s.end)
        return out

    # -- persistence -------------------------------------------------------

    def to_jsonl(self, path: str | Path) -> Path:
        path = Path(path)
        with path.open("w") as fh:
            fh.write(json.dumps({"timeline": self.name,
                                 "dropped": self.dropped}) + "\n")
            for ev in self._events:
                fh.write(json.dumps(ev.to_dict()) + "\n")
        return path

    @classmethod
    def read_jsonl(cls, path: str | Path) -> "Timeline":
        lines = Path(path).read_text().splitlines()
        header = json.loads(lines[0]) if lines else {}
        tl = cls(capacity=max(len(lines), 1),
                 name=header.get("timeline", "loaded"))
        tl.dropped = header.get("dropped", 0)
        for line in lines[1:]:
            if line.strip():
                tl._events.append(TimelineEvent.from_dict(json.loads(line)))
        return tl

    def __repr__(self) -> str:
        return (
            f"<Timeline {self.name!r} {len(self._events)} event(s), "
            f"{self.dropped} dropped>"
        )


#: Move kind -> (span name, track, ((span arg, ``MemMove`` field), ..)).
#: Far-fault and touch-back moves draw no span: their time is inside the
#: faulting kernel's or CPU phase's span.
_MOVE_SPANS = {
    "migrate": ("migrate-batch", "mem/migration", (
        ("pages", "pages"), ("bytes", "h2d_bytes"),
        ("stall_seconds", "stall_seconds"))),
    "evict": ("evict-batch", "mem/eviction", (("bytes", "evicted_bytes"),)),
    "thrash": ("thrash", "mem/eviction", (
        ("alloc", "alloc"), ("pages", "pages"), ("bytes", "h2d_bytes"))),
    "prefetch": ("prefetch", "mem/prefetch", (
        ("alloc", "alloc"), ("pages", "pages"))),
}


class MemTimeline(MemObserver):
    """Draws a memory subsystem's observer events onto a :class:`Timeline`
    (the ``mem`` spans and ``epoch`` instants of docs/model.md §14)."""

    def __init__(self, timeline: Timeline):
        self.timeline = timeline

    def on_epoch(self, report) -> None:
        self.timeline.instant(
            "epoch", cat="sim", track="sim/epoch",
            pages_migrated=report.pages_migrated,
        )

    def on_fault(self, processor, alloc, pages, outcome) -> None:
        self.timeline.complete(
            "first-touch", self.timeline.now(), outcome.seconds,
            cat="mem", track="mem/fault",
            alloc=alloc.name, processor=processor.name, pages=pages.count,
            pages_on_gpu=outcome.pages_on_gpu,
            pages_on_cpu=outcome.pages_on_cpu,
        )

    def on_move(self, move) -> None:
        if move.kind not in _MOVE_SPANS:
            return
        name, track, fields = _MOVE_SPANS[move.kind]
        start = self.timeline.now() if move.start is None else move.start
        self.timeline.complete(
            name, start, move.seconds, cat="mem", track=track,
            **{arg: getattr(move, field) for arg, field in fields},
        )


# ---------------------------------------------------------------------------
# Perfetto (Chrome trace JSON) export and validation
# ---------------------------------------------------------------------------


def to_perfetto(timelines: list[Timeline]) -> dict:
    """Merge timelines into one Chrome/Perfetto trace dict.

    Each timeline becomes one Perfetto "process" (its name as the
    process name) and each of its tracks one "thread", so the sim,
    memory, fabric and serve layers stack as separate swim-lanes.
    Events are sorted by timestamp per timeline (stable, so B/E nesting
    order is preserved at equal timestamps) and any still-open B span is
    closed at the trace horizon — the exported JSON always satisfies
    :func:`validate_perfetto`. OS ids captured at emission are preserved
    in ``args`` (``os_pid``/``os_tid``).
    """
    trace_events: list[dict] = []
    for pid, tl in enumerate(timelines, start=1):
        trace_events.append({
            "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
            "args": {"name": tl.name},
        })
        track_tids: dict[str, int] = {}
        events = sorted(tl._events, key=lambda ev: ev.ts)
        horizon = 0.0
        open_stacks: dict[int, list[dict]] = {}
        for ev in events:
            tid = track_tids.get(ev.track)
            if tid is None:
                tid = track_tids[ev.track] = len(track_tids) + 1
                trace_events.append({
                    "ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
                    "args": {"name": ev.track},
                })
            horizon = max(horizon, ev.ts + (ev.dur or 0.0))
            args = dict(ev.args) if ev.args else {}
            if ev.pid is not None:
                args["os_pid"] = ev.pid
            if ev.tid is not None:
                args["os_tid"] = ev.tid
            out = {
                "ph": ev.ph, "name": ev.name, "cat": ev.cat or "default",
                "ts": ev.ts * 1e6, "pid": pid, "tid": tid,
            }
            if ev.ph == "X":
                out["dur"] = (ev.dur or 0.0) * 1e6
            if ev.ph == "i":
                out["s"] = "t"  # thread-scoped instant
            if ev.ph == "C":
                out["args"] = args or {"value": 0}
            elif args:
                out["args"] = args
            if ev.ph == "B":
                open_stacks.setdefault(tid, []).append(out)
            elif ev.ph == "E":
                stack = open_stacks.get(tid)
                if not stack:
                    continue  # orphan E (its B dropped from the ring)
                stack.pop()
            trace_events.append(out)
        for tid, stack in open_stacks.items():
            for _ in stack:  # close still-open spans at the horizon
                trace_events.append({
                    "ph": "E", "name": "", "cat": "default",
                    "ts": horizon * 1e6, "pid": pid, "tid": tid,
                })
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {
            "generator": "repro.profiling.timeline",
            "dropped_events": sum(tl.dropped for tl in timelines),
        },
    }


def export_perfetto(timelines: list[Timeline], path: str | Path) -> Path:
    path = Path(path)
    path.write_text(json.dumps(to_perfetto(timelines)))
    return path


def validate_perfetto(trace: dict) -> bool:
    """Validate a Chrome/Perfetto trace dict; raises ``ValueError`` on
    the first structural violation (also the CI trace-smoke gate):

    * ``traceEvents`` is a list of phase-tagged events;
    * per (pid, tid), timestamps are monotonically non-decreasing;
    * per (pid, tid), every ``B`` has a matching later ``E`` (stack
      discipline) and no ``E`` arrives without an open ``B``;
    * ``X`` events carry a non-negative ``dur``.
    """
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError("traceEvents must be a list")
    last_ts: dict[tuple, float] = {}
    stacks: dict[tuple, list[str]] = {}
    for i, ev in enumerate(events):
        ph = ev.get("ph")
        if ph == "M":
            continue
        if ph not in _PHASES:
            raise ValueError(f"event {i}: unknown phase {ph!r}")
        key = (ev.get("pid"), ev.get("tid"))
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)):
            raise ValueError(f"event {i}: missing/invalid ts")
        if ts < last_ts.get(key, -float("inf")):
            raise ValueError(
                f"event {i}: ts {ts} not monotone on track {key} "
                f"(last {last_ts[key]})"
            )
        last_ts[key] = ts
        if ph == "X":
            if not isinstance(ev.get("dur"), (int, float)) or ev["dur"] < 0:
                raise ValueError(f"event {i}: X event needs dur >= 0")
        elif ph == "B":
            stacks.setdefault(key, []).append(ev.get("name", ""))
        elif ph == "E":
            stack = stacks.get(key)
            if not stack:
                raise ValueError(f"event {i}: E without an open B on {key}")
            stack.pop()
    for key, stack in stacks.items():
        if stack:
            raise ValueError(f"unclosed B span(s) {stack} on track {key}")
    return True


# ---------------------------------------------------------------------------
# Opt-in plumbing: config/env flags and collection sessions
# ---------------------------------------------------------------------------

_ACTIVE_SESSION: "TimelineSession | None" = None


class TimelineSession:
    """Collects every timeline created while active (context manager).

    ``repro-bench trace`` wraps one experiment run in a session: systems
    constructed anywhere inside it create and register timelines even
    though their configs don't set ``timeline=True``, and the merged
    set exports as one multi-process Perfetto trace.
    """

    def __init__(self, capacity: int | None = None):
        self.capacity = capacity
        self.timelines: list[Timeline] = []
        self._prev: TimelineSession | None = None

    def __enter__(self) -> "TimelineSession":
        global _ACTIVE_SESSION
        self._prev = _ACTIVE_SESSION
        _ACTIVE_SESSION = self
        return self

    def __exit__(self, *exc) -> None:
        global _ACTIVE_SESSION
        _ACTIVE_SESSION = self._prev

    def register(self, timeline: Timeline) -> Timeline:
        taken = {tl.name for tl in self.timelines}
        if timeline.name in taken:
            # One session often sees many same-named systems (one per
            # app/mode run); number them so Perfetto processes stay
            # distinguishable.
            n = 2
            while f"{timeline.name}#{n}" in taken:
                n += 1
            timeline.name = f"{timeline.name}#{n}"
        self.timelines.append(timeline)
        return timeline

    def export_perfetto(self, path: str | Path) -> Path:
        return export_perfetto(self.timelines, path)

    def merged_spans(self, **kwargs) -> list[Span]:
        out: list[Span] = []
        for tl in self.timelines:
            out.extend(tl.spans(**kwargs))
        return out


def current_session() -> TimelineSession | None:
    return _ACTIVE_SESSION


def timeline_requested(config=None) -> bool:
    """Is timeline emission enabled — by config field, ``REPRO_TIMELINE``,
    or an active :class:`TimelineSession`?"""
    if config is not None and getattr(config, "timeline", False):
        return True
    if os.environ.get(ENV_FLAG, "") not in ("", "0"):
        return True
    return _ACTIVE_SESSION is not None


def maybe_timeline(
    config,
    time_fn: Callable[[], float],
    *,
    name: str = "sim",
    tag_os_ids: bool = False,
) -> Timeline | None:
    """A registered :class:`Timeline` when emission is requested, else
    ``None`` (producers guard on that, keeping disabled-mode hot paths
    emission-free)."""
    if not timeline_requested(config):
        return None
    capacity = getattr(config, "timeline_capacity", None) or DEFAULT_CAPACITY
    session = current_session()
    if session is not None and session.capacity:
        capacity = session.capacity
    tl = Timeline(capacity=capacity, time_fn=time_fn, name=name,
                  tag_os_ids=tag_os_ids)
    if session is not None:
        session.register(tl)
    return tl
