"""The MI300A-style unified-physical-memory (UPM) backend.

The MI300A study (PAPERS.md, arXiv 2508.12743) describes the opposite
design point to GH200: CPU cores and GPU compute units share **one**
physical HBM pool behind one address space. That single decision removes
most of the machinery the GH200 model exists to price:

* **no placement races** — first touch maps a page into the one pool
  regardless of which engine faulted, so there is no accessor-side
  placement policy and no CPU spill tier;
* **no migration** — a page is always as close to the GPU as it will
  ever be; the access-counter migrator, UVM on-demand migration,
  eviction, and remote pinning all collapse to no-ops;
* **uniform fault economics** — a GPU first-touch needs no cross-chip
  SMMU replay round-trip; both engines pay one OS-fault-path-like cost
  (:attr:`~repro.sim.config.SystemConfig.upm_fault_cost`) plus page
  zeroing;
* **different bandwidth roofline** — both engines stream from the same
  pool, the GPU at the HBM roofline and the CPU at its own attainable
  rate. Counter names keep the Grace vocabulary: ``hbm_*`` is
  GPU-issued local traffic, ``lpddr_*`` CPU-issued local traffic.

Capacity is the flip side: the unified pool holds ``cpu + gpu`` bytes
total, but there is no second tier to spill to, so exhausting it is
fatal (single chip) or spills across the fabric to peer chips (sharded
topologies), exactly like DDR exhaustion on GH200.

Oversubscription experiments still make sense cross-architecture:
:meth:`UpmArchitecture.oversubscription_reference_free` reports the
*notional GPU-share* of the pool (what an HBM3 tier of the configured
GPU size would offer), so a balloon sized for ratio ``R`` leaves the
same reference free space as on GH200 — and the UPM runs then proceed
flat, because the working set still fits the unified pool. That flat
line *is* the cross-architecture result.
"""

from __future__ import annotations

from contextlib import contextmanager

from ..sim.config import Location, Processor, SystemConfig
from .arch import AccessResult, MemoryArchitecture, register_architecture
from .faults import FaultHandler
from .migration import MigrationReport
from .pagetable import AllocKind
from .physical import MemoryPool, OutOfMemoryError, PhysicalMemory


class UnifiedPhysicalMemory(PhysicalMemory):
    """One physical pool exposed as both NUMA endpoints.

    ``cpu`` and ``gpu`` reference the *same* :class:`MemoryPool` of
    ``cpu_memory_bytes + gpu_memory_bytes`` capacity, so every placement
    helper, tag ledger, and capacity check inherited from
    :class:`PhysicalMemory` keeps working — they just all answer about
    the one pool. The driver baseline is reserved once.
    """

    def __init__(self, config: SystemConfig):
        self.config = config
        pool = MemoryPool(
            "UnifiedHBM",
            config.cpu_memory_bytes + config.gpu_memory_bytes,
        )
        self.cpu = pool
        self.gpu = pool
        pool.reserve(config.gpu_driver_baseline_bytes, tag="driver")


class NullMigrator:
    """The migration policy of a single pool: there is none.

    Mirrors the :class:`~repro.mem.migration.AccessCounterMigrator`
    surface (recording, deferral, epoch servicing, fabric attachment) as
    no-ops so the subsystem and the batched executor need no
    backend-specific branches.
    """

    def __init__(self, config, physical, link, tlbs, counters):
        self.config = config
        self.physical = physical
        self.link = link
        self.tlbs = tlbs
        self.counters = counters
        self.notifications_seen = 0
        self.fabric_port = None

    def record_gpu_accesses(self, alloc, pages, accesses_per_page) -> None:
        return None

    @contextmanager
    def deferred(self):
        yield

    def service(self, allocations) -> MigrationReport:
        return MigrationReport()


class UpmFaultHandler(FaultHandler):
    """Uniform first-touch servicing against the unified pool.

    Both engines' faults land pages in the same pool at the same cost.
    The SMMU ledger still records a replayable fault per GPU first-touch
    (the hardware still walks and replays; it just never crosses C2C),
    which keeps the sanitizer's exact fault-conservation invariants
    backend-independent.
    """

    populate_location = Location.GPU  # the one unified pool

    def _place(self, alloc, unmapped, accessor, out) -> None:
        page_size = self.config.system_page_size
        pool = self.physical.gpu  # the one unified pool
        fit = unmapped.take_first(pool.free // page_size)
        spill = unmapped.difference(fit)
        if fit:
            alloc.set_location(fit, Location.GPU)
            pool.reserve(fit.count * page_size, tag=alloc.tag)
            out.pages_on_gpu = fit.count
        if spill:
            if self.fabric_port is None or alloc.kind is not AllocKind.SYSTEM:
                raise OutOfMemoryError(
                    f"{alloc.name}: unified pool exhausted with "
                    f"{spill.count * page_size} bytes still to place"
                )
            out.pages_on_cpu += self._spill_to_peers(alloc, spill)

    def _service_seconds(self, n, accessor, walk) -> float:
        return n * self.config.upm_fault_cost


@register_architecture
class UpmArchitecture(MemoryArchitecture):
    """Single-pool, migration-free MI300A-style backend."""

    name = "upm"
    description = (
        "AMD MI300A-style unified physical memory: one CPU+GPU pool, no "
        "migration or eviction, uniform first-touch fault economics"
    )

    # -- construction ------------------------------------------------------

    def make_physical(self, config):
        return UnifiedPhysicalMemory(config)

    def make_fault_handler(self, config, physical, smmu, counters):
        return UpmFaultHandler(config, physical, smmu, counters)

    def make_migrator(self, config, physical, link, tlbs, counters):
        return NullMigrator(config, physical, link, tlbs, counters)

    # -- access paths ------------------------------------------------------

    def local_location(self, processor: Processor) -> Location:
        # Every mapped page lives in the one pool; the batched fast path
        # may treat either engine's access to a fully-mapped allocation
        # as local. Pages are recorded at Location.GPU on first touch.
        return Location.GPU

    def _charge_mapped(self, mem, processor, alloc, pages, shape, write, res, now):
        """Charge every mapped page of the access to the one pool; returns
        the per-location counts."""
        counts = alloc.split_counts(pages)
        n_local = (
            int(counts[Location.GPU])
            + int(counts[Location.CPU])
            + int(counts[Location.CPU_PINNED])
        )
        self.charge_local(
            mem.counters, processor, alloc, pages,
            shape.useful_bytes * n_local, write, res, now,
        )
        return counts

    def system_access(self, mem, processor, alloc, pages, shape, write):
        res = AccessResult()
        unmapped = alloc.subset(pages, Location.UNMAPPED)
        if unmapped:
            res.fault_seconds += mem.first_touch(alloc, unmapped, processor)
        counts = self._charge_mapped(
            mem, processor, alloc, pages, shape, write, res, None
        )
        # Pages spilled to a peer chip's pool: fabric-grain access, but
        # never migrated home (no migrator to pull them).
        self.charge_far(
            mem, processor, alloc, pages, shape, int(counts[Location.REMOTE]), res
        )
        return res

    def managed_access(self, mem, processor, alloc, pages, shape, write, now):
        res = AccessResult()
        unmapped = alloc.subset(pages, Location.UNMAPPED)
        if unmapped:
            # Same handler as system memory: uniform fault economics is
            # the point of the design.
            res.fault_seconds += mem.first_touch(alloc, unmapped, processor)
        self._charge_mapped(mem, processor, alloc, pages, shape, write, res, now)
        return res

    def prefetch_async(self, mem, alloc, pages, now) -> float:
        # Everything already lives in the one pool; prefetch is free.
        return 0.0

    def oversubscription_reference_free(self, mem) -> int:
        # The notional GPU-share of the pool: what a discrete HBM3 tier
        # of the configured size would have free. Balloon sizing against
        # this keeps oversubscription ratios comparable across backends.
        cfg = mem.config
        dev_bytes = sum(
            mem.physical.gpu.by_tag.get(alloc.tag, 0)
            for alloc in mem.gpu_table.live_allocations()
            if alloc.kind is AllocKind.DEVICE
        )
        return max(
            cfg.gpu_memory_bytes - cfg.gpu_driver_baseline_bytes - dev_bytes, 0
        )
