"""Span tracer for the benchmark's traced run.

The tracer wraps the public methods of every class in the simulator's
layer modules, at class level, and records one span per call: the
method's name id, the index of the enclosing span, and its start and end
on ``time.perf_counter``. Spans live in per-thread ``array`` buffers
while the pass runs (the serving layer calls into the result cache and
the worker pool from helper threads), so the hot path is four appends
and two clock reads.

Patching rules, each of which keeps the traced program the same program:

* Only class attributes are replaced, never instance attributes.
  ``MemorySubsystem.access_batch`` switches to its per-descriptor path
  when it finds ``"access"`` in the instance ``__dict__``; a class-level
  wrapper leaves that dictionary untouched.
* ``staticmethod`` and ``classmethod`` objects are re-wrapped as the same
  kind of descriptor.
* Properties, dunder and private names, coroutine functions and
  generator functions are left alone: a span around them would close
  before their work is done, or interleave with other coroutines.

A layer's self time is the sum over its spans of the span's duration
minus the durations of its direct child spans.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import pkgutil
import threading
import time
from array import array
from enum import Enum
from pathlib import Path

import numpy as np

#: layer -> simulator modules whose classes belong to it. A trailing
#: ``.*`` also takes every submodule of the package.
LAYER_MODULES = {
    "descriptor": ("repro.mem.pageset", "repro.core.unified_array"),
    "apps": ("repro.apps.*",),
    "kernels": ("repro.core.kernels",),
    "executor": ("repro.mem.subsystem",),
    "faults": ("repro.mem.faults",),
    "migration": (
        "repro.mem.migration", "repro.mem.managed", "repro.mem.pagetable",
    ),
    "link_tlb": ("repro.interconnect.nvlink", "repro.mem.tlb"),
    "instrumentation": ("repro.profiling.*",),
    "serving": ("repro.serve.*", "repro.bench.runner"),
}

#: Backend modules. Their classes are sorted into layers by role: the
#: architecture hooks form ``arch.<name>``, fault handlers join
#: ``faults`` and migrators join ``migration``.
ARCH_MODULES = ("repro.mem.arch_gh200", "repro.mem.arch_upm", "repro.mem.arch_svm")

#: Layer of the spans the benchmark opens itself around each experiment;
#: their self time is experiment and harness code outside every layer.
OTHER = "other"


def _expand(module_names):
    for name in module_names:
        if not name.endswith(".*"):
            yield importlib.import_module(name)
            continue
        package = importlib.import_module(name[:-2])
        yield package
        for info in pkgutil.walk_packages(
            package.__path__, prefix=package.__name__ + "."
        ):
            yield importlib.import_module(info.name)


def _own_classes(module):
    for obj in vars(module).values():
        if (
            inspect.isclass(obj)
            and obj.__module__ == module.__name__
            and not issubclass(obj, (Enum, BaseException))
        ):
            yield obj


def layer_classes() -> list[tuple[str, type]]:
    """Every ``(layer, class)`` pair the tracer patches."""
    from repro.mem.arch import MemoryArchitecture
    from repro.mem.faults import FaultHandler

    pairs = []
    for layer, names in LAYER_MODULES.items():
        for module in _expand(names):
            pairs.extend((layer, cls) for cls in _own_classes(module))
    for module in _expand(ARCH_MODULES):
        for cls in _own_classes(module):
            if issubclass(cls, MemoryArchitecture):
                pairs.append((f"arch.{cls.name}", cls))
            elif issubclass(cls, FaultHandler):
                pairs.append(("faults", cls))
            elif cls.__name__.endswith("Migrator"):
                pairs.append(("migration", cls))
    return pairs


def layer_names() -> list[str]:
    """All layer names a trace can report, in a stable order."""
    from repro.mem.arch import architecture_names

    return [
        *LAYER_MODULES,
        *(f"arch.{name}" for name in architecture_names()),
        OTHER,
    ]


def _traceable(raw):
    """The plain function behind a class attribute, or None when the
    attribute must not be wrapped."""
    fn = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
    if not inspect.isfunction(fn):
        return None
    if (
        inspect.iscoroutinefunction(fn)
        or inspect.isgeneratorfunction(fn)
        or inspect.isasyncgenfunction(fn)
    ):
        return None
    return fn


class Tracer:
    """Records spans for every public method of the layer classes.

    ``meters`` maps ``"Class.method"`` to ``meter(args, kwargs, result)``,
    called after the span closes, for counts that need a call's
    arguments (page indices in, pages out, descriptors per batch).
    """

    def __init__(self, meters: dict | None = None):
        self.meters = dict(meters or {})
        self.names: list[tuple[str, str, str]] = []  # (layer, class, method)
        self._ids: dict[tuple[str, str, str], int] = {}
        self._local = threading.local()
        self._buffers: list[tuple] = []
        self._lock = threading.Lock()
        self._patched: list[tuple[type, str, object]] = []

    # -- recording --------------------------------------------------------

    def _buffer(self):
        try:
            return self._local.buf
        except AttributeError:
            buf = (array("i"), array("q"), array("d"), array("d"), [-1])
            with self._lock:
                self._buffers.append(buf)
            self._local.buf = buf
            return buf

    def _name_id(self, layer: str, cls: str, method: str) -> int:
        key = (layer, cls, method)
        if key not in self._ids:
            self._ids[key] = len(self.names)
            self.names.append(key)
        return self._ids[key]

    def _wrap(self, fn, nid: int, meter):
        perf = time.perf_counter
        buffer = self._buffer

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            names, parents, starts, ends, stack = buffer()
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = perf()
                stack.pop()
            if meter is not None:
                meter(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def span(self, cls: str, method: str, layer: str = OTHER):
        """A span opened by the benchmark itself (one experiment run)."""
        names, parents, starts, ends, stack = self._buffer()
        i = len(names)
        names.append(self._name_id(layer, cls, method))
        parents.append(stack[-1])
        ends.append(0.0)
        stack.append(i)
        starts.append(time.perf_counter())
        try:
            yield
        finally:
            ends[i] = time.perf_counter()
            stack.pop()

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        assert not self._patched, "tracer already installed"
        for layer, cls in layer_classes():
            for attr, raw in list(vars(cls).items()):
                if attr.startswith("_"):
                    continue
                fn = _traceable(raw)
                if fn is None:
                    continue
                key = f"{cls.__name__}.{attr}"
                wrapped = self._wrap(
                    fn, self._name_id(layer, cls.__name__, attr),
                    self.meters.get(key),
                )
                if isinstance(raw, staticmethod):
                    wrapped = staticmethod(wrapped)
                elif isinstance(raw, classmethod):
                    wrapped = classmethod(wrapped)
                self._patched.append((cls, attr, raw))
                setattr(cls, attr, wrapped)

    def uninstall(self) -> None:
        for cls, attr, raw in reversed(self._patched):
            setattr(cls, attr, raw)
        self._patched.clear()

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- analysis ---------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        """All spans as arrays; ``parent`` indexes the same arrays (-1 at
        the root) and ``thread`` numbers the recording thread."""
        cols = {k: [] for k in ("name", "parent", "start", "end", "thread")}
        offset = 0
        for t, (names, parents, starts, ends, _) in enumerate(self._buffers):
            parent = np.frombuffer(parents, dtype=np.int64).copy()
            parent[parent >= 0] += offset
            cols["name"].append(np.frombuffer(names, dtype=np.int32))
            cols["parent"].append(parent)
            cols["start"].append(np.frombuffer(starts, dtype=np.float64))
            cols["end"].append(np.frombuffer(ends, dtype=np.float64))
            cols["thread"].append(np.full(len(names), t, dtype=np.int32))
            offset += len(names)
        return {
            k: np.concatenate(v) if v else np.empty(0) for k, v in cols.items()
        }

    def self_times(self) -> tuple[np.ndarray, np.ndarray]:
        """Per name id: (total self seconds, call count)."""
        s = self.spans()
        n = len(self.names)
        if s["name"].size == 0:
            return np.zeros(n), np.zeros(n, dtype=np.int64)
        dur = s["end"] - s["start"]
        child = s["parent"] >= 0
        covered = np.bincount(
            s["parent"][child], weights=dur[child], minlength=dur.size
        )
        own = dur - covered
        return (
            np.bincount(s["name"], weights=own, minlength=n),
            np.bincount(s["name"], minlength=n),
        )

    def write(self, path: Path) -> Path:
        """Write every span plus the name table to ``path`` (``.npz``)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(json.dumps(self.names)),
            **self.spans(),
        )
        return path


class Census:
    """What an untraced and a traced pass must agree on, counted with
    two cheap class-level patches: calls of the unbatched
    ``MemorySubsystem.access`` path, and the ``HardwareCounters`` of
    every system built."""

    def __init__(self):
        self.access_calls = 0
        self.counters = []

    @contextlib.contextmanager
    def installed(self):
        from repro.mem.subsystem import MemorySubsystem
        from repro.profiling.counters import HardwareCounters

        access = MemorySubsystem.access
        init = HardwareCounters.__init__

        @functools.wraps(access)
        def counted_access(*args, **kwargs):
            self.access_calls += 1
            return access(*args, **kwargs)

        @functools.wraps(init)
        def recorded_init(counters, *args, **kwargs):
            init(counters, *args, **kwargs)
            self.counters.append(counters)

        MemorySubsystem.access = counted_access
        HardwareCounters.__init__ = recorded_init
        try:
            yield self
        finally:
            MemorySubsystem.access = access
            HardwareCounters.__init__ = init

    def totals(self) -> dict[str, int]:
        """Counter totals summed over every system built in the pass."""
        from dataclasses import fields

        from repro.profiling.counters import CounterSet

        out = {f.name: 0 for f in fields(CounterSet)}
        for counters in self.counters:
            total = counters.total
            for name in out:
                out[name] += getattr(total, name)
        return out
