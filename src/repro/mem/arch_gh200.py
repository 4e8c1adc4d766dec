"""The GH200 memory-architecture backend (the paper's design point).

Two NUMA pools (LPDDR5X + HBM3) with a driver baseline on the GPU side,
accessor-side first-touch placement through the SMMU with CPU spill,
cacheline-granularity remote access over NVLink-C2C with access-counter
delayed migration for system memory (Sections 2.1-2.2), and the UVM
on-demand migrate/evict/remote-map machinery of
:class:`~repro.mem.managed.ManagedMemoryManager` for managed memory
(Section 2.3).
"""

from __future__ import annotations

from ..sim.config import Location, Processor
from .arch import (
    AccessResult,
    MemoryArchitecture,
    record_gpu_accesses,
    register_architecture,
    remote_counter,
)
from .faults import FaultHandler
from .managed import ManagedMemoryManager
from .migration import AccessCounterMigrator


@register_architecture
class GH200Architecture(MemoryArchitecture):
    """Split-pool, delayed-migration GH200 backend (default)."""

    name = "gh200"
    description = (
        "NVIDIA GH200: split LPDDR5X/HBM3 pools, first-touch SMMU faults, "
        "access-counter delayed migration over NVLink-C2C (the paper's "
        "testbed; default)"
    )

    # -- construction ------------------------------------------------------

    def make_fault_handler(self, config, physical, smmu, counters):
        return FaultHandler(config, physical, smmu, counters)

    def make_migrator(self, config, physical, link, tlbs, counters):
        return AccessCounterMigrator(config, physical, link, tlbs, counters)

    def make_managed(self, mem):
        return ManagedMemoryManager(mem)

    # -- access paths ------------------------------------------------------

    def system_access(self, mem, processor, alloc, pages, shape, write):
        res = AccessResult()
        unmapped = alloc.subset(pages, Location.UNMAPPED)
        if unmapped:
            res.fault_seconds += mem.first_touch(alloc, unmapped, processor)

        counts = alloc.split_counts(pages)
        on_gpu = processor is Processor.GPU
        local_loc = Location.GPU if on_gpu else Location.CPU
        remote_loc = Location.CPU if on_gpu else Location.GPU
        n_local = int(counts[local_loc])
        n_remote = int(counts[remote_loc])
        # Remote-pinned pages are CPU-resident: remote to the GPU.
        if on_gpu:
            n_remote += int(counts[Location.CPU_PINNED])
        else:
            n_local += int(counts[Location.CPU_PINNED])
        self.charge_local(
            mem.counters, processor, alloc, pages,
            shape.useful_bytes * n_local, write, res,
        )

        if n_remote:
            # Cacheline-grain access to the other pool over NVLink-C2C.
            wire = mem.fabric.remote_traffic(processor, shape, n_remote)
            res.remote_bytes += wire
            res.remote_seconds += mem.link.remote_access_time(wire, processor)
            mem.counters.bump(**{remote_counter(processor, write): wire})
            if on_gpu:
                record_gpu_accesses(
                    mem, alloc, alloc.subset(pages, remote_loc), wire, n_remote
                )

        self.charge_far(
            mem, processor, alloc, pages, shape, int(counts[Location.REMOTE]), res
        )
        return res

    def managed_access(self, mem, processor, alloc, pages, shape, write, now):
        access = (
            mem.managed.gpu_access
            if processor is Processor.GPU
            else mem.managed.cpu_access
        )
        return access(alloc, pages, shape, write=write, now=now)

    def pinned_access(self, mem, processor, alloc, pages, shape, write):
        if processor is Processor.CPU:
            return super().pinned_access(
                mem, processor, alloc, pages, shape, write
            )
        # Zero-copy: the GPU reads pinned host memory over NVLink-C2C.
        res = AccessResult()
        wire = mem.fabric.remote_traffic(processor, shape, pages.count)
        res.remote_bytes = wire
        res.remote_seconds = mem.link.remote_access_time(wire, processor)
        mem.counters.bump(**{remote_counter(processor, write): wire})
        return res

    def prefetch_async(self, mem, alloc, pages, now) -> float:
        return mem.managed.prefetch_to_gpu(alloc, pages, now)
