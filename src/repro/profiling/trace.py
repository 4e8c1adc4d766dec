"""Access-trace recording and replay.

Records every access batch the memory subsystem processes — allocation,
processor, page set (compactly), access shape, read/write — so a
workload's memory behaviour can be:

* inspected offline (pattern classification, reuse distance, footprint);
* replayed onto a *differently configured* system (other page size,
  migration threshold, first-touch policy) without re-running the
  application logic — the cheapest way to sweep configurations over an
  expensive workload.

Recording is an observer of the memory subsystem, so batched accesses
stay on the fused path; traces serialise to JSON lines.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np

from typing import TYPE_CHECKING

from ..mem.coherence import AccessShape
from ..mem.observer import MemObserver
from ..mem.pageset import PageSet
from ..mem.pagetable import AllocKind
from ..sim.config import Processor

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..mem.subsystem import MemorySubsystem


@dataclass
class TraceRecord:
    """One access batch, with the page set stored compactly."""

    alloc_name: str
    alloc_kind: str
    alloc_bytes: int
    page_size: int
    processor: str
    write: bool
    useful_bytes: int
    element_bytes: int
    density: float
    #: ``("range", start, stop)``, ``("runs", [[start, stop], ..])``, or
    #: ``("indices", [..])``.
    pages: tuple

    def to_json(self) -> str:
        d = self.__dict__.copy()
        if d["pages"][0] == "indices":
            d["pages"] = ("indices", [int(i) for i in d["pages"][1]])
        return json.dumps(d)

    @staticmethod
    def from_json(line: str) -> "TraceRecord":
        d = json.loads(line)
        d["pages"] = tuple(d["pages"])
        return TraceRecord(**d)

    def pageset(self) -> PageSet:
        kind = self.pages[0]
        if kind == "range":
            return PageSet.range(self.pages[1], self.pages[2])
        if kind == "runs":
            return PageSet.from_runs(self.pages[1])
        return PageSet.of(np.asarray(self.pages[1], dtype=np.int64))

    def shape(self) -> AccessShape:
        return AccessShape(
            useful_bytes=self.useful_bytes,
            element_bytes=self.element_bytes,
            density=self.density,
        )


@dataclass
class AccessTrace:
    """An ordered list of recorded access batches with analysis helpers."""
    records: list[TraceRecord] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    # -- analysis -----------------------------------------------------------

    def footprint_bytes(self) -> dict[str, int]:
        """Peak unique bytes touched per allocation."""
        out: dict[str, int] = {}
        touched: dict[str, set] = {}
        sizes: dict[str, int] = {}
        page_sizes: dict[str, int] = {}
        for rec in self.records:
            pages = touched.setdefault(rec.alloc_name, set())
            ps = rec.pageset()
            if ps.is_range:
                pages.update(range(ps.start, ps.stop))
            elif ps.runs is not None:
                for lo, hi in ps.runs:
                    pages.update(range(lo, hi))
            else:
                pages.update(int(i) for i in ps.indices())
            sizes[rec.alloc_name] = rec.alloc_bytes
            page_sizes[rec.alloc_name] = rec.page_size
        for name, pages in touched.items():
            out[name] = min(len(pages) * page_sizes[name], sizes[name])
        return out

    def gpu_first_touch_fraction(self) -> float:
        """Fraction of the touched footprint first-written by the GPU."""
        first_writer: dict[str, str] = {}
        for rec in self.records:
            if rec.write and rec.alloc_name not in first_writer:
                first_writer[rec.alloc_name] = rec.processor
        footprint = self.footprint_bytes()
        total = sum(footprint.values())
        if total == 0:
            return 0.0
        gpu = sum(
            footprint.get(name, 0)
            for name, proc in first_writer.items()
            if proc == "gpu"
        )
        return gpu / total

    def gpu_write_fraction(self) -> float:
        gpu = [r for r in self.records if r.processor == "gpu"]
        if not gpu:
            return 0.0
        return sum(1 for r in gpu if r.write) / len(gpu)

    # -- persistence ----------------------------------------------------------

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        with path.open("w") as fh:
            for rec in self.records:
                fh.write(rec.to_json() + "\n")
        return path

    @staticmethod
    def load(path: str | Path) -> "AccessTrace":
        trace = AccessTrace()
        for line in Path(path).read_text().splitlines():
            if line.strip():
                trace.records.append(TraceRecord.from_json(line))
        return trace


#: Page sets larger than this are stored as ranges-of-bounds rather than
#: full index lists, keeping traces compact.
_MAX_STORED_INDICES = 4096


def _compact(pages: PageSet) -> tuple:
    if pages.is_range:
        return ("range", pages.start, pages.stop)
    if pages.runs is not None:
        return ("runs", [[lo, hi] for lo, hi in pages.runs])
    if pages.count > _MAX_STORED_INDICES:
        # Degrade gracefully: record the bounding range (documented loss
        # of sparsity information for huge gathers).
        return ("range", pages.start, pages.stop)
    return ("indices", pages.indices().tolist())


class TraceRecorder(MemObserver):
    """Context manager subscribing to a subsystem's access events."""

    def __init__(self, mem: "MemorySubsystem"):
        self.mem = mem
        self.trace = AccessTrace()

    def __enter__(self) -> "TraceRecorder":
        if self in self.mem.observers:
            raise RuntimeError("recorder already active")
        self.mem.observers.append(self)
        return self

    def __exit__(self, *exc) -> None:
        self.mem.observers.remove(self)

    def on_access(self, processor, alloc, pages, shape, write, now) -> None:
        self.trace.records.append(
            TraceRecord(
                alloc_name=alloc.name,
                alloc_kind=alloc.kind.value,
                alloc_bytes=alloc.nbytes,
                page_size=alloc.page_size,
                processor=processor.value,
                write=write,
                useful_bytes=shape.useful_bytes,
                element_bytes=shape.element_bytes,
                density=shape.density,
                pages=_compact(pages),
            )
        )


def replay_record(gh, alloc, rec: TraceRecord) -> None:
    """Re-issue one recorded access on ``gh`` and advance its clock by
    the access's cost."""
    result = gh.mem.access(
        Processor(rec.processor), alloc, rec.pageset(), rec.shape(),
        write=rec.write, now=gh.now,
    )
    cost = (
        result.fault_seconds
        + result.remote_seconds
        + result.transfer_seconds
        + result.hbm_bytes / gh.config.hbm_bandwidth
        + result.lpddr_bytes / gh.config.cpu_memory_bandwidth
    )
    gh.clock.advance(cost, activity=f"replay:{rec.alloc_name}")


def replay(
    trace: AccessTrace, gh, *, epoch_every: int = 1
) -> dict[str, float]:
    """Replay a trace onto a fresh :class:`GraceHopperSystem`.

    Allocations are recreated by name/kind/size on first appearance;
    access batches are re-issued in order, servicing migrations every
    ``epoch_every`` GPU batches. Returns summary metrics.
    """
    allocs: dict[str, object] = {}
    gpu_batches = 0
    t0 = gh.now
    for rec in trace:
        alloc = allocs.get(rec.alloc_name)
        if alloc is None:
            alloc = gh.mem.allocate(
                AllocKind(rec.alloc_kind), rec.alloc_bytes, name=rec.alloc_name
            )
            allocs[rec.alloc_name] = alloc
        proc = Processor(rec.processor)
        if proc is Processor.GPU:
            gpu_batches += 1
            if gpu_batches % max(epoch_every, 1) == 0:
                gh.mem.begin_epoch()
        replay_record(gh, alloc, rec)
    return {
        "replay_seconds": gh.now - t0,
        "allocations": len(allocs),
        "batches": len(trace),
        "c2c_read_bytes": gh.counters.total.c2c_read_bytes,
        "pages_migrated_h2d": gh.counters.total.pages_migrated_h2d,
    }
