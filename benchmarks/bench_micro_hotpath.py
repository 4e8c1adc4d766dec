"""Microbenchmarks for the simulator's hot paths.

Covers the layers the interval-list PageSet overhaul and the batched
epoch executor target:

* ``PageSet.of`` on a fig11-shaped gather, against the seed's
  ``np.unique`` dedup;
* one Gups epoch's ``irregular_gather`` at golden scale, which draws
  per-page hit counts, against drawing every element index;
* symbolic set algebra at paper scale (two million 64 KB pages = the
  128 GB statevector of the 34-qubit Quantum Volume run) — including a
  head-to-head against the seed implementation of the range-split
  ``difference``, which materialised the full index array;
* the :meth:`MemorySubsystem.access` batch dispatch, and the fused
  :meth:`MemorySubsystem.access_batch` epoch path against the
  per-descriptor loop it replaces;
* :meth:`AccessCounterMigrator.service` under steady oversubscription,
  plus its below-threshold early-skip;
* managed eviction (:meth:`ManagedMemoryManager.evict_bytes`) of ten
  thousand LRU blocks, against the per-block link/TLB call loop it
  replaced, and :meth:`Allocation.split_counts` on a multi-million-page
  residency view, against the seed's ``np.bincount``;
* :class:`~repro.sim.checkpoint.SystemCheckpoint` capture/restore, the
  primitive behind incremental what-if re-simulation.

Besides the pytest-benchmark tables, the measured timings are exported
to ``BENCH_hotpath.json`` at the repo root so speedups are tracked in
version control.
"""

from __future__ import annotations

import json
import timeit
from pathlib import Path

import numpy as np
import pytest

from repro.apps.synthetic import Gups
from repro.core.kernels import ArrayAccess
from repro.core.runtime import GraceHopperSystem
from repro.interconnect.nvlink import NvlinkC2C
from repro.mem.coherence import AccessShape
from repro.mem.pageset import PageSet
from repro.mem.pagetable import Allocation, AllocKind
from repro.mem.subsystem import MemorySubsystem
from repro.mem.tlb import Tlb
from repro.profiling.counters import HardwareCounters
from repro.sim.config import Location, MiB, Processor, SystemConfig
from repro.workloads.patterns import irregular_gather

#: Two million pages — the paper's 128 GB statevector at 64 KB pages.
N_PAGES = 2 * 1024 * 1024

RESULTS: dict = {"n_pages": N_PAGES, "benchmarks": {}}

#: Full-scale end-to-end wall times, measured offline with paired
#: back-to-back ``repro.bench <exp>`` runs on the same idle container —
#: too slow for a per-commit benchmark, recorded here so the speedup the
#: batched executor PR claims stays version-controlled next to the
#: microbenchmarks that explain it. ``seed_seconds`` is the same command
#: at the seed commit, before the batched eviction/epoch executor and
#: the residency-run cache landed; for ``fig11`` it is the commit before
#: ``PageSet.of`` dropped ``np.unique`` (median of 4 alternating pairs on
#: a 2-vCPU VM). ``fig12``/``fig13`` ``seconds`` were re-recorded after
#: managed eviction batched its link and TLB ledgers; ``before_seconds``
#: is the commit before that change (medians of 4 alternating pairs on a
#: 2-vCPU VM, identical output).
RESULTS["full_scale"] = {
    "fig11": {
        "seed_seconds": 36.9,
        "seconds": 13.4,
        "speedup_vs_seed": 2.8,
    },
    "fig12": {
        "seed_seconds": 51.3,
        "before_seconds": 3.7,
        "seconds": 0.9,
        "speedup_vs_seed": 57.0,
    },
    "fig13": {
        "seed_seconds": 65.1,
        "before_seconds": 5.35,
        "seconds": 1.2,
        "speedup_vs_seed": 54.3,
    },
}


def _best(fn, repeat=5, number=10) -> float:
    """Best-of-N wall time per call, seconds."""
    return min(timeit.repeat(fn, number=number, repeat=repeat)) / number


def _record(name: str, seconds: float, **extra) -> None:
    RESULTS["benchmarks"][name] = {"seconds": seconds, **extra}


def export(path: Path, results: dict) -> None:
    """Merge ``results`` into the JSON file at ``path``.

    Sections other benchmarks own (the ``cluster`` headlines) are kept,
    and ``benchmarks`` is merged entry by entry, so a partial ``-k`` run
    updates only the entries it measured.
    """
    existing = json.loads(path.read_text()) if path.exists() else {}
    benchmarks = {**existing.get("benchmarks", {}), **results["benchmarks"]}
    merged = {**existing, **results, "benchmarks": benchmarks}
    path.write_text(json.dumps(merged, indent=2) + "\n")


@pytest.fixture(scope="module", autouse=True)
def export_results():
    yield
    path = Path(__file__).resolve().parent.parent / "BENCH_hotpath.json"
    export(path, RESULTS)


def _seed_difference(a: PageSet, b: PageSet) -> PageSet:
    """The seed implementation of the range-split difference: materialise
    the full index array, mask, re-detect ranges. Kept inline as the
    baseline the symbolic path is measured against."""
    mine = np.arange(a.start, a.stop, dtype=np.int64)
    mask = (mine < b.start) | (mine >= b.stop)
    return PageSet.of(mine[mask])


class TestPageSetAlgebra:
    def test_difference_range_split_speedup_vs_seed(self, benchmark):
        big = PageSet.range(0, N_PAGES)
        hole = PageSet.range(1000, N_PAGES - 1000)
        out = big.difference(hole)
        assert out.index is None and out.run_count == 2
        new_t = _best(lambda: big.difference(hole), number=100)
        seed_t = _best(lambda: _seed_difference(big, hole), number=2)
        speedup = seed_t / new_t
        _record(
            "difference_range_split",
            new_t,
            seed_seconds=seed_t,
            speedup_vs_seed=round(speedup, 1),
        )
        benchmark.pedantic(
            lambda: big.difference(hole), rounds=5, iterations=100
        )
        assert speedup >= 5.0, f"only {speedup:.1f}x over the seed"

    def test_union_disjoint_ranges(self, benchmark):
        a = PageSet.range(0, N_PAGES // 2 - 1000)
        b = PageSet.range(N_PAGES // 2 + 1000, N_PAGES)
        out = benchmark(lambda: a.union(b))
        assert out.index is None and out.run_count == 2
        _record("union_disjoint", _best(lambda: a.union(b), number=100))

    def test_intersect_runs_with_range(self, benchmark):
        runs = PageSet.from_runs(
            [(k * 65536, k * 65536 + 4096) for k in range(32)]
        )
        window = PageSet.range(N_PAGES // 4, 3 * N_PAGES // 4)
        out = benchmark(lambda: runs.intersect(window))
        assert out.index is None
        _record(
            "intersect_runs_range",
            _best(lambda: runs.intersect(window), number=100),
        )

    def test_align_down_runs(self, benchmark):
        ps = PageSet.from_runs(
            [(k * 65536 + 3, k * 65536 + 40) for k in range(32)]
        )
        out = benchmark(lambda: ps.align_down(16))
        assert out.index is None
        _record("align_down_runs", _best(lambda: ps.align_down(16), number=100))

    def test_strided_construction(self, benchmark):
        out = benchmark(lambda: PageSet.strided(0, N_PAGES, 16))
        assert out.index is None
        _record(
            "strided_construction",
            _best(lambda: PageSet.strided(0, N_PAGES, 16), number=100),
        )

    def test_from_mask_chunky_residency(self, benchmark):
        state = np.zeros(N_PAGES, dtype=np.int8)
        state[: N_PAGES // 2] = 1
        state[-4096:] = 1
        out = benchmark(lambda: PageSet.from_mask(state == 1))
        assert out.index is None and out.run_count == 2
        _record(
            "from_mask_chunky",
            _best(lambda: PageSet.from_mask(state == 1), number=10),
        )


def _seed_of(indices: np.ndarray) -> PageSet:
    """The seed ``PageSet.of``: dedup through ``np.unique``. Kept inline
    as the baseline the mask dedup is measured against."""
    return PageSet._from_sorted(np.unique(np.asarray(indices, dtype=np.int64)))


class TestPageSetOf:
    #: The shape of fig11's largest gather at scale 0.25: a million
    #: uniform page indices over a 262k-page (4 KB pages) allocation.
    N_INDICES = 1_000_000
    DOMAIN_PAGES = 262_144

    def test_pageset_of_gather_speedup_vs_seed(self, benchmark):
        rng = np.random.default_rng(11)
        idx = rng.integers(0, self.DOMAIN_PAGES, size=self.N_INDICES)
        out = PageSet.of(idx)
        want = _seed_of(idx)
        assert out.index is not None and np.array_equal(out.index, want.index)
        new_t = _best(lambda: PageSet.of(idx), number=5)
        seed_t = _best(lambda: _seed_of(idx), number=2)
        speedup = seed_t / new_t
        _record(
            "pageset_of_gather",
            new_t,
            seed_seconds=seed_t,
            indices=self.N_INDICES,
            domain_pages=self.DOMAIN_PAGES,
            speedup_vs_seed=round(speedup, 1),
        )
        benchmark.pedantic(lambda: PageSet.of(idx), rounds=5, iterations=2)
        assert speedup >= 5.0, f"only {speedup:.1f}x over the seed"


def _index_draw_gather(arr, n_elements: int, rng: np.random.Generator):
    """The page set of the old ``irregular_gather``: draw every element
    index, map each to its page, dedup. Kept inline as the baseline the
    per-page occupancy draw is measured against."""
    idx = rng.integers(
        0, arr.size, size=min(n_elements, arr.size), dtype=np.int64
    )
    return arr.pages_of_indices(idx)


class TestIrregularGather:
    """One Gups epoch's gather at golden scale (1/64): four million
    updates over a 1,024-page table."""

    def test_irregular_gather_gups_speedup_vs_index_draw(self, benchmark):
        gups = Gups(scale=1 / 64)
        gh = GraceHopperSystem(SystemConfig.scaled(1 / 64, page_size=65536))
        arr = gh.malloc(np.uint64, (gups.table_words,), name="table")
        n = min(gups.updates, arr.size)
        rng = np.random.default_rng(gups.seed)

        def occupancy():
            return irregular_gather(arr, n, rng=rng, write=True)

        def index_draw():
            return _index_draw_gather(arr, n, rng)

        # Every page is hit (~4,096 expected hits each), so both draws
        # give the whole table.
        assert occupancy().pages.covers_all(arr.n_pages)
        assert index_draw().covers_all(arr.n_pages)
        new_t = _best(occupancy, number=20)
        old_t = _best(index_draw, repeat=3, number=2)
        speedup = old_t / new_t
        _record(
            "irregular_gather_gups",
            new_t,
            index_draw_seconds=old_t,
            updates=n,
            pages=arr.n_pages,
            speedup_vs_index_draw=round(speedup, 1),
        )
        benchmark.pedantic(occupancy, rounds=5, iterations=20)
        assert speedup >= 10.0, f"only {speedup:.1f}x over the index draw"


class TestSubsystemDispatch:
    @pytest.fixture(scope="class")
    def gh(self):
        return GraceHopperSystem(SystemConfig.scaled(1 / 64, page_size=65536))

    def test_access_batch_dispatch(self, gh, benchmark):
        x = gh.malloc(np.float32, (1 << 24,), name="hot_x")
        gh.cpu_phase("init", [ArrayAccess.write_(x)])
        alloc = x.alloc
        pages = PageSet.full(alloc.n_pages)
        shape = AccessShape(
            useful_bytes=alloc.nbytes, element_bytes=4, density=1.0
        )

        def dispatch():
            return gh.mem.access(
                Processor.GPU, alloc, pages, shape, now=gh.now
            )

        result = benchmark(dispatch)
        assert result is not None
        _record("subsystem_access", _best(dispatch, number=10))


class TestBatchedExecutor:
    """The fused epoch path vs the per-descriptor loop it replaces."""

    N_DESCRIPTORS = 16

    @pytest.fixture(scope="class")
    def steady_state(self):
        from repro.mem.batch import AccessBatch

        gh = GraceHopperSystem(SystemConfig.scaled(1 / 64, page_size=65536))
        arrays = [
            gh.malloc(np.float32, (1 << 20,), name=f"batch_{i}")
            for i in range(self.N_DESCRIPTORS)
        ]
        gh.cpu_phase("init", [ArrayAccess.write_(a) for a in arrays])
        batch = AccessBatch.from_accesses(
            [ArrayAccess.write_(a) for a in arrays]
        )
        return gh, batch

    def test_access_batch_vs_descriptor_loop(self, steady_state, benchmark):
        gh, batch = steady_state

        def fused():
            return gh.mem.access_batch(Processor.CPU, batch, now=gh.now)

        def loop():
            for i, alloc in enumerate(batch.allocs):
                gh.mem.access(
                    Processor.CPU, alloc, batch.pages[i], batch.shape(i),
                    write=bool(batch.write[i]), now=gh.now,
                )

        result = benchmark(fused)
        assert result.lpddr_bytes > 0
        fused_t = _best(fused, number=20)
        loop_t = _best(loop, number=20)
        _record(
            "access_batch_fused",
            fused_t,
            loop_seconds=loop_t,
            descriptors=self.N_DESCRIPTORS,
            speedup_vs_loop=round(loop_t / fused_t, 1),
        )
        assert fused_t < loop_t, "fused batch slower than the loop"


class TestCheckpoint:
    """Capture/restore — the incremental what-if primitive."""

    @pytest.fixture(scope="class")
    def warm_system(self):
        gh = GraceHopperSystem(SystemConfig.scaled(1 / 64, page_size=65536))
        arrays = [
            gh.malloc(np.float32, (1 << 22,), name=f"ckpt_{i}")
            for i in range(4)
        ]
        gh.cpu_phase("init", [ArrayAccess.write_(a) for a in arrays])
        gh.launch_kernel(
            "warm", [ArrayAccess.read(a) for a in arrays], flops=1e9
        )
        return gh

    def test_capture_restore(self, warm_system, benchmark):
        from repro.sim.checkpoint import SystemCheckpoint

        gh = warm_system
        ckpt = benchmark(lambda: SystemCheckpoint.capture(gh))
        capture_t = _best(lambda: SystemCheckpoint.capture(gh), number=10)
        restore_t = _best(lambda: ckpt.restore(gh), number=10)
        _record(
            "checkpoint_capture",
            capture_t,
            state_bytes=ckpt.nbytes,
        )
        _record("checkpoint_restore", restore_t, state_bytes=ckpt.nbytes)
        assert (
            SystemCheckpoint.capture(gh).fingerprint() == ckpt.fingerprint()
        )


class TestMigratorService:
    @pytest.fixture(scope="class")
    def oversubscribed(self):
        # GPU memory smaller than the working set: the migrator always has
        # CPU-resident hot pages to consider, so service() does steady
        # per-epoch work instead of a one-shot migration.
        gh = GraceHopperSystem(
            SystemConfig.scaled(1 / 64, page_size=65536, migration_enable=True)
        )
        hbm_elems = int(gh.config.gpu_memory_bytes * 1.5) // 4
        x = gh.malloc(np.float32, (hbm_elems,), name="big")
        gh.cpu_phase("init", [ArrayAccess.write_(x)])
        return gh, x

    def test_service_steady_state(self, oversubscribed, benchmark):
        gh, x = oversubscribed
        alloc = x.alloc

        def one_epoch():
            cpu_pages = alloc.subset(PageSet.full(alloc.n_pages), Location.CPU)
            gh.mem.migrator.record_gpu_accesses(
                alloc, cpu_pages, gh.config.migration_threshold
            )
            return gh.mem.begin_epoch()

        report = benchmark(one_epoch)
        assert report is not None
        _record("migrator_service", _best(one_epoch, number=2))

    def test_service_early_skip(self, oversubscribed, benchmark):
        """Below-threshold epochs skip the residency-subset scan."""
        gh, x = oversubscribed
        alloc = x.alloc
        alloc.counters.reset(PageSet.full(alloc.n_pages))
        alloc.counters.base = gh.config.migration_threshold - 1
        alloc.counters.extra = None

        def idle_epoch():
            return gh.mem.begin_epoch()

        report = benchmark(idle_epoch)
        assert report.pages_migrated == 0
        _record("migrator_service_skip", _best(idle_epoch, number=20))


class TestManagedEviction:
    """A fig13-shaped eviction: full-scale GH200 at 64 KB pages, GPU
    memory full of managed 2 MB blocks touched over many kernels, and one
    fault that must evict ten thousand of them in LRU order."""

    N_EVICT = 10_000
    N_RESIDENT = 12_000
    N_TOUCHES = 48

    def _filled(self):
        cfg = SystemConfig.paper_gh200(page_size=65536)
        mem = MemorySubsystem(cfg, HardwareCounters())
        mgr = mem.managed
        shape = AccessShape(useful_bytes=cfg.system_page_size, density=1.0)
        allocs = [
            mem.allocate(
                AllocKind.MANAGED, self.N_RESIDENT // 2 * 2 * MiB, name=f"sv{i}"
            )
            for i in range(2)
        ]
        # Interleaved chunked touches, so the LRU order alternates owners.
        for k in range(self.N_TOUCHES):
            alloc = allocs[k % 2]
            chunk = alloc.n_pages // (self.N_TOUCHES // 2)
            lo = (k // 2) * chunk
            mgr.gpu_access(
                alloc, PageSet.range(lo, lo + chunk), shape, write=True,
                now=float(k),
            )
        needed = mgr.physical.gpu.free + self.N_EVICT * 2 * MiB
        return (mgr, needed), {}

    @staticmethod
    def _evict(mgr, needed):
        return mgr.evict_bytes(needed, now=1e3)

    def test_managed_evict_bytes(self, benchmark):
        (mgr, needed), _ = self._filled()
        freed, _ = self._evict(mgr, needed)
        assert freed == self.N_EVICT * 2 * MiB
        times = []
        for _ in range(5):
            args, _ = self._filled()
            t0 = timeit.default_timer()
            self._evict(*args)
            times.append(timeit.default_timer() - t0)
        evict_t = min(times)
        # The per-block link and TLB calls the eviction used to make, one
        # pair per evicted block, on their own.
        cfg = mgr.config
        link, tlb = NvlinkC2C(cfg), Tlb("gpu-tlb", 4096, cfg)
        block_pages = cfg.pages_per_gpu_page

        def ledger_loop():
            seconds = 0.0
            for _ in range(self.N_EVICT):
                t = link.streaming_time(
                    2 * MiB, Processor.GPU, Processor.CPU
                )
                seconds += t / cfg.eviction_bandwidth_fraction
                seconds += tlb.shootdown(block_pages)
            return seconds

        loop_t = _best(ledger_loop, repeat=3, number=1)
        _record(
            "managed_evict_bytes",
            evict_t,
            blocks=self.N_EVICT,
            ledger_loop_seconds=loop_t,
            speedup_vs_ledger_loop=round(loop_t / evict_t, 1),
        )
        benchmark.pedantic(self._evict, setup=self._filled, rounds=3)
        assert evict_t < loop_t, "batched eviction slower than its old ledger loop"


class TestSplitCounts:
    """Residency counts over a multi-million-page view that is not the
    whole allocation (so the incremental per-location counts do not
    apply)."""

    N_PAGES_VIEW = 4 * 1024 * 1024

    def test_split_counts_large(self, benchmark):
        cfg = SystemConfig.paper_gh200(page_size=4096)
        alloc = Allocation(
            AllocKind.MANAGED, (self.N_PAGES_VIEW + 2) * 4096, cfg
        )
        alloc.set_location(PageSet.range(0, alloc.n_pages // 2), Location.CPU)
        alloc.set_location(
            PageSet.range(alloc.n_pages // 2, alloc.n_pages), Location.GPU
        )
        pages = PageSet.range(1, self.N_PAGES_VIEW + 1)

        def seed_counts():
            return np.bincount(
                pages.view(alloc.state), minlength=len(Location)
            ).astype(np.int64)

        got = alloc.split_counts(pages)
        assert got.tolist() == seed_counts().tolist()
        new_t = _best(lambda: alloc.split_counts(pages), number=5)
        seed_t = _best(seed_counts, number=2)
        speedup = seed_t / new_t
        _record(
            "split_counts_large",
            new_t,
            seed_seconds=seed_t,
            pages=self.N_PAGES_VIEW,
            speedup_vs_seed=round(speedup, 1),
        )
        benchmark.pedantic(
            lambda: alloc.split_counts(pages), rounds=5, iterations=2
        )
        assert speedup >= 2.0, f"only {speedup:.1f}x over the seed"
