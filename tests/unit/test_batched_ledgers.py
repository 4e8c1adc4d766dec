"""Exactness of the batched link, TLB and eviction ledgers.

Managed eviction charges its blocks through
:meth:`NvlinkC2C.streaming_time_batch` and :meth:`Tlb.shootdown_batch`
and folds the per-block terms with :func:`ordered_sum`. Every float it
produces must equal, bit for bit, what the per-block calls produce when
made one at a time in LRU order. These tests compare with ``==`` only.
"""

import numpy as np
import pytest

from repro.interconnect.nvlink import NvlinkC2C, ordered_sum
from repro.mem.coherence import AccessShape
from repro.mem.pageset import PageSet
from repro.mem.pagetable import AllocKind
from repro.mem.subsystem import MemorySubsystem
from repro.mem.tlb import Tlb
from repro.profiling.counters import HardwareCounters
from repro.profiling.timeline import MemTimeline, Timeline
from repro.sim.config import Location, MiB, Processor, SystemConfig

DIRECTIONS = [
    (Processor.CPU, Processor.GPU, "h2d"),
    (Processor.GPU, Processor.CPU, "d2h"),
]


def random_sizes(seed: int, n: int) -> np.ndarray:
    # Sizes spread over ten orders of magnitude, so the running ledger's
    # rounding depends on the order the terms are added in.
    rng = np.random.default_rng(seed)
    return (10.0 ** rng.uniform(0, 10, n)).astype(np.int64) + 1


def warmed_link(cfg) -> NvlinkC2C:
    """A link whose ledgers already hold traffic of every class."""
    link = NvlinkC2C(cfg)
    link.streaming_time(123_457, Processor.CPU, Processor.GPU)
    link.streaming_time(98_765_431, Processor.GPU, Processor.CPU)
    link.remote_access_time(4_099, Processor.GPU)
    link.migration_time(2 * MiB + 17, Processor.GPU, Processor.CPU)
    return link


def as_tuple(span):
    return (span.name, span.cat, span.track, span.start, span.duration,
            span.args)


class TestOrderedSum:
    def test_matches_python_left_fold(self):
        rng = np.random.default_rng(3)
        terms = 10.0 ** rng.uniform(-9, 3, 10_000)
        expect = 0.125
        for x in terms.tolist():
            expect += x
        assert ordered_sum(0.125, terms) == expect

    def test_empty_terms_keep_start(self):
        assert ordered_sum(1.5, np.empty(0)) == 1.5


class TestStreamingTimeBatch:
    @pytest.mark.parametrize("src,dst,direction", DIRECTIONS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_repeated_streaming_time(self, src, dst, direction, seed):
        cfg = SystemConfig.paper_gh200()
        sizes = random_sizes(seed, 2_000)
        loop, batch = warmed_link(cfg), warmed_link(cfg)
        want = [loop.streaming_time(int(n), src, dst) for n in sizes]
        got = batch.streaming_time_batch(sizes, src, dst)
        assert got.tolist() == want
        a, b = loop.stats, batch.stats
        assert b.h2d_seconds == a.h2d_seconds
        assert b.d2h_seconds == a.d2h_seconds
        assert (b.h2d_bytes, b.d2h_bytes) == (a.h2d_bytes, a.d2h_bytes)
        assert b.h2d_by_class == a.h2d_by_class
        assert b.d2h_by_class == a.d2h_by_class
        assert b.conserved() and a.conserved()
        assert getattr(b, f"{direction}_by_class")["dma"] > 0

    @pytest.mark.parametrize("src,dst,direction", DIRECTIONS)
    def test_timeline_spans_match_per_transfer_calls(self, src, dst, direction):
        cfg = SystemConfig.paper_gh200()
        sizes = random_sizes(7, 50)
        loop, batch = NvlinkC2C(cfg), NvlinkC2C(cfg)
        loop.timeline = Timeline(time_fn=lambda: 2.5)
        batch.timeline = Timeline(time_fn=lambda: 2.5)
        for n in sizes:
            loop.streaming_time(int(n), src, dst)
        batch.streaming_time_batch(sizes, src, dst)
        got, want = batch.timeline.spans(), loop.timeline.spans()
        assert [as_tuple(s) for s in got] == [as_tuple(s) for s in want]
        assert {s.args["direction"] for s in got} == {direction}

    def test_no_timeline_emits_nothing(self):
        link = NvlinkC2C(SystemConfig.paper_gh200())
        link.streaming_time_batch(
            np.array([1, 2, 3], dtype=np.int64), Processor.GPU, Processor.CPU
        )
        assert link.timeline is None
        assert link.stats.d2h_bytes == 6


class TestShootdownBatch:
    def test_matches_repeated_shootdown(self):
        cfg = SystemConfig.paper_gh200()
        pages = np.random.default_rng(5).integers(1, 1 << 16, 3_000)
        loop, batch = Tlb("a", 64, cfg), Tlb("b", 64, cfg)
        loop.shootdown(11)
        batch.shootdown(11)
        want = [loop.shootdown(int(n)) for n in pages]
        got = batch.shootdown_batch(pages)
        assert got.tolist() == want
        assert batch.stats == loop.stats


# -- managed eviction against a per-block loop ------------------------------


def managed_allocations(mgr):
    """The live managed allocations, in registration order."""
    return [
        a for a in mgr.gpu_table.live_allocations()
        if a.kind is AllocKind.MANAGED
    ]


def oversubscribed_manager(spacer=None):
    """Three managed allocations sharing GPU memory, touched in an
    interleaved order (with a touch-time tie across allocations) and with
    short last blocks, so the LRU order mixes owners and the evicted
    blocks differ in size. ``spacer(mem, i)``, if given, runs between
    the registrations of managed allocations ``i - 1`` and ``i``."""
    cfg = SystemConfig.scaled(1 / 256, page_size=65536)
    mem = MemorySubsystem(cfg, HardwareCounters())
    shape = AccessShape(useful_bytes=cfg.system_page_size, density=1.0)
    allocs = []
    for i, nbytes in enumerate((96 * MiB + 192 * 1024, 80 * MiB, 64 * MiB + 64 * 1024)):
        if spacer is not None and i:
            spacer(mem, i)
        allocs.append(mem.allocate(AllocKind.MANAGED, nbytes, name=f"m{i}"))
    mgr = mem.managed
    a, b, c = allocs
    half = a.n_pages // 2
    touches = [
        (a, PageSet.range(0, half), 0.0),
        (b, PageSet.full(b.n_pages), 1.0),
        (a, PageSet.range(half, a.n_pages), 2.0),
        (c, PageSet.strided(0, c.n_pages, 7), 3.0),
        (b, PageSet.range(0, b.n_pages // 3), 3.0),
        (c, PageSet.range(0, c.n_pages), 4.0),
    ]
    for alloc, pages, now in touches:
        mgr.gpu_access(alloc, pages, shape, write=True, now=now)
    return mgr


def per_block_oracle(mgr, needed):
    """The eviction as a per-block loop: ``(seconds, d2h_seconds,
    [(bytes, link_seconds), ...])`` without touching any state."""
    cfg = mgr.config
    target = needed - mgr.physical.gpu.free
    candidates = []
    for ai, alloc in enumerate(managed_allocations(mgr)):
        for block in np.flatnonzero(alloc._gpu_block_counts).tolist():
            candidates.append(
                (float(alloc.block_last_touch[block]), ai, block,
                 int(alloc._gpu_block_counts[block]))
            )
    candidates.sort()
    seconds = 0.0
    ledger = mgr.link.stats.d2h_seconds
    freed = 0
    spans = []
    for _, _, _, pages in candidates:
        if freed >= target:
            break
        nbytes = pages * cfg.system_page_size
        t = nbytes / cfg.c2c_bandwidth(Processor.GPU, Processor.CPU) + cfg.c2c_latency
        ledger += t
        seconds += t / cfg.eviction_bandwidth_fraction
        seconds += cfg.tlb_shootdown_cost + pages * 1e-9
        freed += nbytes
        spans.append((nbytes, t))
    return seconds, ledger, spans


class TestEvictBytes:
    @pytest.mark.parametrize("fraction", [0.01, 0.3, 0.7, 1.0])
    def test_seconds_match_per_block_loop(self, fraction):
        mgr = oversubscribed_manager()
        resident = sum(a.bytes_at(Location.GPU) for a in managed_allocations(mgr))
        needed = mgr.physical.gpu.free + max(1, int(resident * fraction))
        want_s, want_ledger, want_spans = per_block_oracle(mgr, needed)
        shootdowns = mgr.tlbs.gpu.stats.shootdowns
        counted = mgr.counters.total.tlb_shootdowns
        freed, seconds = mgr.evict_bytes(needed, now=5.0)
        assert len(want_spans) > 1
        assert seconds == want_s
        assert mgr.link.stats.d2h_seconds == want_ledger
        assert freed == sum(n for n, _ in want_spans)
        assert mgr.tlbs.gpu.stats.shootdowns - shootdowns == len(want_spans)
        assert mgr.counters.total.tlb_shootdowns - counted == len(want_spans)
        assert mgr.link.stats.conserved()

    def test_lru_prefix_spans_several_owners(self):
        mgr = oversubscribed_manager()
        before = {a.name: a.pages_at(Location.GPU) for a in managed_allocations(mgr)}
        resident = sum(before.values()) * mgr.config.system_page_size
        mgr.evict_bytes(mgr.physical.gpu.free + resident // 2, now=5.0)
        lost = [
            a.name for a in managed_allocations(mgr)
            if a.pages_at(Location.GPU) < before[a.name]
        ]
        assert len(lost) >= 2

    def test_timeline_spans_unchanged(self):
        mgr = oversubscribed_manager()
        tl = Timeline(time_fn=lambda: 5.0)
        mgr.link.timeline = tl
        mgr.observers.append(MemTimeline(tl))
        resident = sum(a.bytes_at(Location.GPU) for a in managed_allocations(mgr))
        needed = mgr.physical.gpu.free + resident // 2
        want_s, _, want_spans = per_block_oracle(mgr, needed)
        freed, seconds = mgr.evict_bytes(needed, now=5.0)
        dma = tl.spans("c2c:dma")
        assert [(s.args["bytes"], s.duration) for s in dma] == want_spans
        assert all(type(s.args["bytes"]) is int for s in dma)
        assert {s.args["direction"] for s in dma} == {"d2h"}
        (evict,) = tl.spans("evict-batch")
        assert evict.duration == seconds == want_s
        assert evict.args["bytes"] == freed

    def test_device_allocation_between_managed_ones_changes_nothing(self):
        """Eviction candidates are the GPU page table's managed
        allocations: ``cudaMalloc`` memory registered between them leaves
        the LRU order and the evicted bytes as a plain pool reservation
        of the same size does."""
        spacer_bytes = 8 * MiB

        def balloon(mem, i):
            mem.physical.gpu.reserve(spacer_bytes, tag=f"balloon{i}")

        def device(mem, i):
            mem.allocate(AllocKind.DEVICE, spacer_bytes, name=f"d{i}")

        runs = []
        for spacer in (balloon, device):
            mgr = oversubscribed_manager(spacer)
            tl = Timeline(time_fn=lambda: 5.0)
            mgr.link.timeline = tl
            allocs = managed_allocations(mgr)
            resident = sum(a.bytes_at(Location.GPU) for a in allocs)
            freed, seconds = mgr.evict_bytes(
                mgr.physical.gpu.free + resident // 2, now=5.0
            )
            runs.append((
                freed, seconds,
                [(s.args["bytes"], s.duration) for s in tl.spans("c2c:dma")],
                [a.state.tobytes() for a in allocs],
            ))
        assert len(runs[0][2]) > 1
        assert runs[0] == runs[1]
