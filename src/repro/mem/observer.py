"""The observer seam of the memory subsystem (docs/model.md §12).

The invariant sanitizer, the access-trace recorder and the event
timeline are all :class:`MemObserver` instances in one
``MemorySubsystem.observers`` list. Observers are read-only.
"""

from __future__ import annotations

from dataclasses import dataclass

#: The directions a move of each kind carries its bytes and pages in.
_DIRECTIONS = {
    "migrate": ("h2d",), "far-fault": ("h2d",), "prefetch": ("h2d",),
    "touch-back": ("d2h",), "evict": ("d2h", "evicted"),
    "thrash": ("h2d", "d2h", "evicted"),
}


@dataclass
class MemMove:
    """One page transfer, or one prefetch call, of the memory model.

    Byte and page fields add up exactly to the ``migration_*`` and
    ``eviction_*`` counters; ``pages`` is the page count the operation
    covered (for a prefetch, the requested range).
    """

    kind: str
    seconds: float
    h2d_bytes: int = 0
    d2h_bytes: int = 0
    evicted_bytes: int = 0
    h2d_pages: int = 0
    d2h_pages: int = 0
    evicted_pages: int = 0
    pages: int = 0
    alloc: str = ""
    start: float | None = None
    stall_seconds: float = 0.0


class MemObserver:
    """No-op hooks; subclasses override the ones they need."""

    def on_alloc(self, alloc) -> None: ...

    def on_free(self, alloc) -> None: ...

    def on_access(self, processor, alloc, pages, shape, write, now) -> None: ...

    def on_epoch(self, report) -> None: ...

    def on_fault(self, processor, alloc, pages, outcome) -> None: ...

    def on_move(self, move: MemMove) -> None: ...


def emit_move(observers, kind, seconds, nbytes=0, npages=0, **fields) -> None:
    """Send ``observers`` a ``kind`` move of ``nbytes``/``npages``."""
    if observers:
        for direction in _DIRECTIONS[kind]:
            fields[f"{direction}_bytes"] = nbytes
            fields[f"{direction}_pages"] = npages
        fields.setdefault("pages", npages)
        move = MemMove(kind, seconds, **fields)
        for obs in observers:
            obs.on_move(move)
