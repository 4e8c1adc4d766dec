"""Nsight-Systems-style event tracing.

The paper uses Nsight Systems to identify GPU page faults and page
migrations — and notes the tool is *only reliable for managed memory*,
because system-memory faults are serviced by the OS through the SMMU and
never surface in the CUDA driver's trace (Section 3.2). The
:class:`NsightTrace` view reproduces that asymmetry: by default it shows
managed-memory events only, with an ``include_system`` escape hatch that
exposes what the real tool cannot see.
"""

from __future__ import annotations

from dataclasses import dataclass

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..mem.subsystem import MemorySubsystem
from ..profiling.counters import HardwareCounters
from ..sim.engine import SimClock


@dataclass
class FaultSummary:
    managed_far_faults: int
    gpu_replayable_faults: int | None  # None when hidden (tool limitation)
    cpu_page_faults: int
    pages_migrated_h2d: int
    pages_migrated_d2h: int
    pages_evicted: int


class NsightTrace:
    """A post-mortem view over counters and the system timeline."""

    def __init__(
        self,
        clock: SimClock,
        counters: HardwareCounters,
        mem: "MemorySubsystem",
    ):
        self.clock = clock
        self.counters = counters
        self.mem = mem

    def fault_summary(self, include_system: bool = False) -> FaultSummary:
        t = self.counters.total
        return FaultSummary(
            managed_far_faults=t.managed_far_faults,
            gpu_replayable_faults=(
                t.gpu_replayable_faults if include_system else None
            ),
            cpu_page_faults=t.cpu_page_faults,
            pages_migrated_h2d=t.pages_migrated_h2d,
            pages_migrated_d2h=t.pages_migrated_d2h,
            pages_evicted=t.pages_evicted,
        )

    def kernel_timeline(self) -> list[dict]:
        """Kernel launches as (start, duration, traffic) rows."""
        return [
            {
                "kernel": r.kernel,
                "start": r.start,
                "duration": r.duration,
                "hbm_bytes": r.counters.hbm_read_bytes + r.counters.hbm_write_bytes,
                "c2c_bytes": r.counters.c2c_read_bytes + r.counters.c2c_write_bytes,
                "l1l2_throughput": r.l1l2_throughput,
            }
            for r in self.counters.kernel_records
        ]

    def migration_events(self) -> list[dict]:
        """Migration/eviction/prefetch/free spans of ``gh.timeline``."""
        if self.clock.timeline is None:
            raise RuntimeError(
                "migration_events needs the system timeline: set "
                "SystemConfig(timeline=True) or REPRO_TIMELINE=1"
            )
        return [
            {"time": s.start, "name": s.name, "duration": s.duration, **s.args}
            for s in self.clock.timeline.spans()
            if s.name.startswith(("prefetch", "free:", "evict", "thrash"))
            or "migrat" in s.name
        ]
