"""Unit tests for the CUDA managed memory manager."""

import pytest

from repro.mem.coherence import AccessShape
from repro.mem.pageset import PageSet
from repro.mem.pagetable import AllocKind
from repro.mem.subsystem import MemorySubsystem
from repro.profiling.counters import HardwareCounters
from repro.sim.config import Location, MiB, SystemConfig


def make_manager(cfg):
    """gh200's UVM driver, as its memory subsystem builds it."""
    mem = MemorySubsystem(cfg, HardwareCounters())
    return mem, mem.managed, mem.physical, mem.counters


def managed_alloc(mem, nbytes=32 * MiB):
    return mem.allocate(AllocKind.MANAGED, nbytes)


def full_shape(cfg):
    return AccessShape(useful_bytes=cfg.system_page_size, density=1.0)


@pytest.fixture
def cfg():
    return SystemConfig.scaled(1 / 256, page_size=65536)


class TestGpuFirstTouch:
    def test_maps_directly_to_gpu(self, cfg):
        mem, mgr, phys, _ = make_manager(cfg)
        alloc = managed_alloc(mem)
        out = mgr.gpu_access(
            alloc, PageSet.full(alloc.n_pages), full_shape(cfg), write=True, now=0.0
        )
        assert alloc.is_homogeneous(Location.GPU)
        assert out.fault_seconds < 1e-3  # driver-cheap, no OS round trip
        assert phys.gpu.by_tag[f"mng:{alloc.aid}"] == alloc.bytes_at(Location.GPU)

    def test_spills_cpu_when_gpu_exhausted_and_nothing_evictable(self, cfg):
        mem, mgr, phys, _ = make_manager(cfg)
        phys.gpu.reserve(phys.gpu.free, tag="balloon")
        alloc = managed_alloc(mem)
        mgr.gpu_access(
            alloc, PageSet.full(alloc.n_pages), full_shape(cfg), write=True, now=0.0
        )
        assert alloc.pages_at(Location.GPU) == 0
        assert (
            alloc.pages_at(Location.CPU) + alloc.pages_at(Location.CPU_PINNED)
            == alloc.n_pages
        )


class TestOnDemandMigration:
    def test_cpu_resident_pages_migrate_on_gpu_touch(self, cfg):
        mem, mgr, phys, counters = make_manager(cfg)
        alloc = managed_alloc(mem)
        mgr.cpu_access(
            alloc, PageSet.full(alloc.n_pages), full_shape(cfg), write=True, now=0.0
        )
        assert alloc.is_homogeneous(Location.CPU)
        out = mgr.gpu_access(
            alloc, PageSet.full(alloc.n_pages), full_shape(cfg), write=False, now=1.0
        )
        assert alloc.is_homogeneous(Location.GPU)
        assert out.transfer_seconds > 0  # migration on the critical path
        assert counters.total.managed_far_faults > 0
        # Reads come from GPU memory after migration (Figure 10).
        assert out.hbm_bytes > 0

    def test_eviction_makes_room(self, cfg):
        mem, mgr, phys, counters = make_manager(cfg)
        # Fill most of the GPU with an older managed allocation.
        old = managed_alloc(mem, nbytes=phys.gpu.free - 8 * MiB)
        mgr.gpu_access(
            old, PageSet.full(old.n_pages), full_shape(cfg), write=True, now=0.0
        )
        new = managed_alloc(mem, nbytes=32 * MiB)
        mgr.cpu_access(
            new, PageSet.full(new.n_pages), full_shape(cfg), write=True, now=1.0
        )
        mgr.gpu_access(
            new, PageSet.full(new.n_pages), full_shape(cfg), write=False, now=2.0
        )
        assert counters.total.pages_evicted > 0
        assert old.pages_at(Location.CPU) > 0  # LRU victim was the old data


class TestCpuAccessThrash:
    def test_cpu_touch_migrates_blocks_back(self, cfg):
        mem, mgr, phys, counters = make_manager(cfg)
        alloc = managed_alloc(mem)
        mgr.gpu_access(
            alloc, PageSet.full(alloc.n_pages), full_shape(cfg), write=True, now=0.0
        )
        out = mgr.cpu_access(
            alloc, PageSet.range(0, 1), full_shape(cfg), write=False, now=1.0
        )
        # The whole 2 MB block of the touched page came back.
        assert alloc.pages_at(Location.CPU) == alloc.block_pages
        assert out.transfer_seconds > 0
        assert counters.total.pages_migrated_d2h == alloc.block_pages


class TestNaturalOversubscription:
    def test_allocation_larger_than_gpu_gets_pinned(self, cfg):
        mem, mgr, phys, _ = make_manager(cfg)
        big = managed_alloc(mem, nbytes=phys.gpu.capacity + 64 * MiB)
        # Fill: first touch on GPU, evicting until spill.
        mgr.gpu_access(
            big, PageSet.full(big.n_pages), full_shape(cfg), write=True, now=0.0
        )
        spilled = big.pages_at(Location.CPU) + big.pages_at(Location.CPU_PINNED)
        assert spilled > 0
        # Subsequent GPU touches do NOT migrate: the driver remote-maps.
        out = mgr.gpu_access(
            big, PageSet.full(big.n_pages), full_shape(cfg), write=False, now=1.0
        )
        assert big.oversubscription_pinned or big.pages_at(Location.CPU_PINNED) > 0
        assert out.remote_seconds > 0

    def test_prefetch_rescues_pinned_pages(self, cfg):
        mem, mgr, phys, _ = make_manager(cfg)
        big = managed_alloc(mem, nbytes=phys.gpu.capacity + 64 * MiB)
        mgr.gpu_access(
            big, PageSet.full(big.n_pages), full_shape(cfg), write=True, now=0.0
        )
        mgr.gpu_access(
            big, PageSet.full(big.n_pages), full_shape(cfg), write=False, now=1.0
        )
        pinned_before = big.pages_at(Location.CPU_PINNED)
        t = mgr.prefetch_to_gpu(big, PageSet.full(big.n_pages), now=2.0)
        assert t > 0
        assert big.pages_at(Location.CPU_PINNED) < max(pinned_before, 1)


class TestStreamingThrash:
    def test_working_set_beyond_free_thrashes(self, cfg):
        mem, mgr, phys, counters = make_manager(cfg)
        phys.gpu.reserve(phys.gpu.free - 16 * MiB, tag="balloon")
        alloc = managed_alloc(mem, nbytes=64 * MiB)
        mgr.cpu_access(
            alloc, PageSet.full(alloc.n_pages), full_shape(cfg), write=True, now=0.0
        )
        evicted_before = counters.total.eviction_bytes
        out = mgr.gpu_access(
            alloc, PageSet.full(alloc.n_pages), full_shape(cfg), write=False, now=1.0
        )
        # Part fits, the rest churns through evict+migrate.
        assert counters.total.eviction_bytes > evicted_before
        assert counters.total.eviction_bytes > 0
        # Thrashed pages end the epoch CPU-resident.
        assert alloc.pages_at(Location.CPU) > 0

    def test_thrash_amplification_grows_with_page_size(self):
        times = {}
        for page in (4096, 65536):
            cfg = SystemConfig.scaled(1 / 256, page_size=page)
            mem, mgr, phys, _ = make_manager(cfg)
            phys.gpu.reserve(phys.gpu.free - 16 * MiB, tag="balloon")
            alloc = managed_alloc(mem, nbytes=64 * MiB)
            mgr.cpu_access(
                alloc, PageSet.full(alloc.n_pages),
                AccessShape(useful_bytes=page), write=True, now=0.0,
            )
            out = mgr.gpu_access(
                alloc, PageSet.full(alloc.n_pages),
                AccessShape(useful_bytes=page), write=False, now=1.0,
            )
            times[page] = out.transfer_seconds
        assert times[65536] > 1.5 * times[4096]
