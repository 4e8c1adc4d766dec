"""The unified memory subsystem: one façade over the whole memory model.

Dispatches every access batch by allocation kind to the configured
:class:`~repro.mem.arch.MemoryArchitecture` backend — **system**
(``malloc``), **managed** (``cudaMallocManaged``) and **host-pinned /
numa** memory are priced behind that interface — except **device**
(``cudaMalloc``) memory, which is GPU-local on every backend and rejects
CPU access, matching the non-coherent row of Table 1. The subsystem
itself keeps only dispatch, allocation lifecycle and epochs.

The kernel executor calls :meth:`begin_epoch` before each launch so the
driver can service pending access-counter notifications (migrations land
*between* kernel launches, with their stall charged to the epoch that
runs concurrently with them).
"""

from __future__ import annotations

from ..interconnect.copyengine import CopyEngine
from ..interconnect.nvlink import NvlinkC2C
from ..profiling.counters import HardwareCounters
from ..sim.config import Location, Processor, SystemConfig
from .arch import AccessResult, resolve_arch
from .coherence import AccessShape, CoherenceFabric
from .gmmu import Gmmu
from .migration import MigrationReport
from .observer import MemObserver, emit_move
from .pagetable import (
    Allocation,
    AllocKind,
    GpuPageTable,
    SystemPageTable,
)
from .pageset import PageSet
from .smmu import Smmu
from .tlb import TlbHierarchy


class MemorySubsystem:
    """Owns all memory-model state of one simulated superchip."""

    def __init__(self, config: SystemConfig, counters: HardwareCounters):
        self.config = config
        self.counters = counters
        #: The memory-architecture backend (strategy object) selected by
        #: ``config.mem_arch``; owns the physical layout, fault path,
        #: migration policy, and per-kind access economics.
        self.arch = resolve_arch(config.mem_arch)
        self.physical = self.arch.make_physical(config)
        self.link = NvlinkC2C(config)
        self.copy_engine = CopyEngine(config, self.link)
        self.tlbs = TlbHierarchy(config)
        self.smmu = Smmu(config, self.tlbs)
        self.gmmu = Gmmu(config)
        self.fabric = CoherenceFabric(config)
        self.system_table = SystemPageTable(config)
        self.gpu_table = GpuPageTable(config)
        self.faults = self.arch.make_fault_handler(
            config, self.physical, self.smmu, counters
        )
        self.migrator = self.arch.make_migrator(
            config, self.physical, self.link, self.tlbs, counters
        )
        #: Set by :meth:`attach_fabric` on multi-superchip nodes.
        self.fabric_port = None
        #: Subscribed observers; the managed-memory driver reports to them too.
        self.observers: list[MemObserver] = []
        #: The backend's managed-memory driver (gh200's UVM driver), or
        #: ``None`` where the backend prices managed memory itself.
        self.managed = self.arch.make_managed(self)
        #: The subscribed invariant checker when ``SystemConfig.sanitize``
        #: or ``REPRO_SANITIZE=1`` asks for one.
        self.sanitizer = None
        from ..check.sanitizer import MemSanitizer, sanitize_requested

        if sanitize_requested(config):
            self.sanitizer = MemSanitizer(self)
            self.observers.append(self.sanitizer)

    # -- multi-superchip fabric -----------------------------------------------

    def attach_fabric(self, port) -> None:
        """Connect this superchip to an inter-chip fabric.

        ``port`` is duck-typed (see :class:`repro.topology.FabricPort`) so
        this package never imports :mod:`repro.topology`. It gives the
        fault path somewhere to spill first-touch placement, the migrator
        a path to pull hot peer-resident pages home, and the access path a
        cost model for :attr:`Location.REMOTE` pages.
        """
        self.fabric_port = port
        self.faults.fabric_port = port
        self.migrator.fabric_port = port

    # -- allocation lifecycle ------------------------------------------------

    def allocate(
        self,
        kind: AllocKind,
        nbytes: int,
        *,
        name: str = "",
        materialize: bool = False,
    ) -> Allocation:
        alloc = Allocation(
            kind, nbytes, self.config, name=name, materialize=materialize
        )
        if kind in (AllocKind.SYSTEM, AllocKind.MANAGED):
            self.system_table.register(alloc)
            if kind is AllocKind.MANAGED:
                self.gpu_table.register(alloc)
        elif kind is AllocKind.DEVICE:
            self.gpu_table.register(alloc)
            self.physical.gpu.reserve(alloc.bytes_at(Location.GPU), alloc.tag)
        else:  # pinned / numa
            self.system_table.register(alloc)
            self.physical.cpu.reserve(alloc.bytes_at(Location.CPU), alloc.tag)
        for obs in self.observers:
            obs.on_alloc(alloc)
        return alloc

    def free(self, alloc: Allocation) -> float:
        """Release an allocation; returns the teardown time."""
        if alloc.freed:
            raise RuntimeError(f"{alloc.name}: double free")
        seconds = 0.0
        if alloc.kind in (AllocKind.SYSTEM, AllocKind.MANAGED):
            seconds += self.system_table.teardown_cost(alloc)
            tag = alloc.tag
            for loc, pool in (
                (Location.CPU, self.physical.cpu),
                (Location.CPU_PINNED, self.physical.cpu),
                (Location.GPU, self.physical.gpu),
            ):
                nbytes = alloc.bytes_at(loc)
                if nbytes:
                    pool.release(nbytes, tag=tag)
            if alloc.remote_pages_by_node:
                page_size = alloc.page_size
                for node, n_pages in list(alloc.remote_pages_by_node.items()):
                    self.fabric_port.pool(node).release(
                        n_pages * page_size, tag=tag
                    )
                alloc.remote_pages_by_node.clear()
            self.system_table.unregister(alloc)
            if alloc.kind is AllocKind.MANAGED:
                self.gpu_table.unregister(alloc)
                seconds += self.config.cuda_free_call_cost
        elif alloc.kind is AllocKind.DEVICE:
            self.physical.gpu.release(alloc.bytes_at(Location.GPU), alloc.tag)
            self.gpu_table.unregister(alloc)
            seconds += self.config.cuda_free_call_cost
        else:
            self.physical.cpu.release(alloc.bytes_at(Location.CPU), alloc.tag)
            self.system_table.unregister(alloc)
        alloc.freed = True
        self.counters.bump(tlb_shootdowns=1)
        for obs in self.observers:
            obs.on_free(alloc)
        return seconds

    # -- epoch servicing -------------------------------------------------------

    def begin_epoch(self) -> MigrationReport:
        """Service pending access-counter notifications (Section 2.2.1)."""
        report = self.migrator.service(self.system_table.live_allocations())
        for obs in self.observers:
            obs.on_epoch(report)
        if report.pages_migrated:  # DMA concurrent with the coming epoch
            emit_move(
                self.observers, "migrate", report.transfer_seconds,
                report.bytes_migrated, report.pages_migrated,
                stall_seconds=report.stall_seconds,
            )
        return report

    # -- the access path ----------------------------------------------------------

    def access(
        self,
        processor: Processor,
        alloc: Allocation,
        pages: PageSet,
        shape: AccessShape,
        *,
        write: bool = False,
        now: float = 0.0,
    ) -> AccessResult:
        if alloc.freed:
            raise RuntimeError(f"{alloc.name}: use after free")
        pages = pages.clip(alloc.n_pages)
        if not pages:
            res = AccessResult()
        elif alloc.kind is AllocKind.MANAGED:
            res = self.arch.managed_access(
                self, processor, alloc, pages, shape, write, now
            )
        elif alloc.kind is AllocKind.DEVICE:
            # Device memory is architecture-independent: GPU-local,
            # CPU-inaccessible (same PermissionError on every backend).
            res = self._device_access(processor, alloc, pages, shape, write)
        elif alloc.kind in (AllocKind.HOST_PINNED, AllocKind.NUMA_CPU):
            res = self.arch.pinned_access(
                self, processor, alloc, pages, shape, write
            )
        else:
            res = self.arch.system_access(
                self, processor, alloc, pages, shape, write
            )
            if write:
                alloc.stats.remote_write_bytes += res.remote_bytes
            else:
                alloc.stats.remote_read_bytes += res.remote_bytes
        res.consumed_bytes = shape.useful_bytes * pages.count
        for obs in self.observers:
            obs.on_access(processor, alloc, pages, shape, write, now)
        return res

    def access_batch(
        self,
        processor: Processor,
        batch,
        *,
        now: float = 0.0,
    ) -> AccessResult:
        """Process one epoch's :class:`~repro.mem.batch.AccessBatch`.

        Result-identical to calling :meth:`access` per descriptor in
        order, but descriptors whose allocation is homogeneously resident
        on the accessing processor — the steady state for every warm
        epoch — are charged with pure integer byte/counter arithmetic,
        never touching the fault, residency, or migration machinery.
        Migrator counter bumps from the remaining descriptors are applied
        once at the end of the batch (they are only read at the next
        :meth:`begin_epoch`). Observers see ``on_access`` once per
        descriptor either way.
        """
        total = AccessResult()
        observers = self.observers
        counters = self.counters
        charge_local = self.arch.charge_local
        local_loc = self.arch.local_location(processor)
        with self.migrator.deferred():
            for i, alloc in enumerate(batch.allocs):
                if alloc.freed:
                    raise RuntimeError(f"{alloc.name}: use after free")
                pages = batch.pages[i].clip(alloc.n_pages)
                kind = alloc.kind
                write = bool(batch.write[i])
                if pages and not (
                    kind in (AllocKind.SYSTEM, AllocKind.MANAGED)
                    and alloc.is_homogeneous(local_loc)
                ):
                    total.merge(
                        self.access(
                            processor, alloc, pages, batch.shape(i),
                            write=write, now=now,
                        )
                    )
                    continue
                if pages:
                    local_bytes = int(batch.useful_bytes[i]) * pages.count
                    charge_local(
                        counters, processor, alloc, pages, local_bytes, write,
                        total, now,
                    )
                    total.consumed_bytes += local_bytes
                if observers:
                    shape = batch.shape(i)
                    for obs in observers:
                        obs.on_access(processor, alloc, pages, shape, write, now)
        return total

    # -- per-kind paths --------------------------------------------------------------

    def first_touch(self, alloc: Allocation, unmapped: PageSet, processor):
        """Service a first-touch fault; returns its seconds."""
        fault = self.faults.first_touch(alloc, unmapped, processor)
        for obs in self.observers:
            obs.on_fault(processor, alloc, unmapped, fault)
        return fault.seconds

    def _device_access(
        self,
        processor: Processor,
        alloc: Allocation,
        pages: PageSet,
        shape: AccessShape,
        write: bool,
    ) -> AccessResult:
        if processor is Processor.CPU:
            raise PermissionError(
                f"{alloc.name}: cudaMalloc memory is not CPU-accessible "
                "(Table 1: not cache coherent); use cudaMemcpy"
            )
        res = AccessResult()
        self.arch.charge_local(
            self.counters, processor, alloc, pages,
            shape.useful_bytes * pages.count, write, res,
        )
        return res

    # -- optimisation APIs (Section 5.1.2, 2.3.2) -------------------------------------

    def host_register(self, alloc: Allocation) -> float:
        """``cudaHostRegister``: pre-populate the system PTEs CPU-side."""
        if alloc.kind is not AllocKind.SYSTEM:
            raise ValueError("host_register applies to system allocations")
        return self.arch.host_register(self, alloc)

    def prefetch_async(
        self, alloc: Allocation, pages: PageSet | None = None, *, now: float = 0.0
    ) -> float:
        """``cudaMemPrefetchAsync`` toward the GPU for managed memory."""
        if alloc.kind is not AllocKind.MANAGED:
            raise ValueError("prefetch_async applies to managed allocations")
        pages = PageSet.full(alloc.n_pages) if pages is None else pages
        pages = pages.clip(alloc.n_pages)
        before = alloc.stats.pages_migrated_to_gpu
        seconds = self.arch.prefetch_async(self, alloc, pages, now)
        moved = alloc.stats.pages_migrated_to_gpu - before
        emit_move(
            self.observers, "prefetch", seconds, moved * alloc.page_size, moved,
            pages=pages.count, alloc=alloc.name, start=now,
        )
        return seconds

    # -- introspection (profiler back-end) ---------------------------------------------

    def live_allocations(self) -> list[Allocation]:
        """Every live allocation once (managed ones sit in both tables)."""
        seen = {}
        for table in (self.system_table, self.gpu_table):
            for alloc in table.live_allocations():
                seen[alloc.aid] = alloc
        return list(seen.values())

    def process_rss_bytes(self) -> int:
        """Resident set size: CPU-resident pages of all live allocations
        (what /proc/<pid>/smaps_rollup reports, Section 3.2)."""
        total = 0
        for table in (self.system_table,):
            for alloc in table.live_allocations():
                total += alloc.bytes_at(Location.CPU)
                total += alloc.bytes_at(Location.CPU_PINNED)
        return total

    def gpu_used_bytes(self) -> int:
        """GPU used memory as nvidia-smi reports it (driver baseline plus
        cudaMalloc, managed, and system GPU-resident pages)."""
        return self.physical.gpu_used_memory()
