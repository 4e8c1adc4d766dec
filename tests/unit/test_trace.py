"""Unit tests for access-trace recording and replay."""

import contextlib

import numpy as np
import pytest

from repro.core.kernels import ArrayAccess
from repro.core.runtime import GraceHopperSystem
from repro.mem.pageset import PageSet
from repro.mem.subsystem import MemorySubsystem
from repro.profiling.trace import AccessTrace, TraceRecord, TraceRecorder, replay
from repro.sim.config import MiB, SystemConfig


def fresh(page=65536, migration=False, **overrides):
    return GraceHopperSystem(
        SystemConfig.scaled(
            1 / 256, page_size=page, migration_enable=migration, **overrides
        )
    )


def record_workload(gh):
    recorder = TraceRecorder(gh.mem)
    with recorder:
        x = gh.malloc(np.float32, (1 << 20,), name="x")
        gh.cpu_phase("init", [ArrayAccess.write_(x)])
        gh.launch_kernel("sweep", [ArrayAccess.read(x)])
        gh.launch_kernel(
            "gather",
            [ArrayAccess.read(x, x.pages_of_indices(np.arange(0, 1 << 20, 50000)),
                              fraction=0.01, density=0.01)],
        )
    return recorder.trace


class TestRecording:
    def test_records_every_batch(self):
        trace = record_workload(fresh())
        assert len(trace) == 3
        assert [r.processor for r in trace] == ["cpu", "gpu", "gpu"]
        assert trace.records[0].write and not trace.records[1].write

    def test_range_pagesets_stored_compactly(self):
        trace = record_workload(fresh())
        assert trace.records[0].pages[0] == "range"

    def test_sparse_pagesets_keep_sparsity(self):
        trace = record_workload(fresh())
        rec = trace.records[2]
        # Sparse gathers must not degrade to their bounding range: either
        # exact indices or a symbolic run list is acceptable.
        assert rec.pages[0] in ("indices", "runs")
        ps = rec.pageset()
        assert ps.count < ps.stop - ps.start

    def test_leaving_the_recorder_unsubscribes_it(self):
        gh = fresh()
        before = list(gh.mem.observers)
        with TraceRecorder(gh.mem) as rec:
            assert rec in gh.mem.observers
        assert gh.mem.observers == before
        x = gh.malloc(np.float32, (1 << 16,), name="x")
        gh.cpu_phase("init", [ArrayAccess.write_(x)])
        assert len(rec.trace) == 0

    def test_nested_recording_rejected(self):
        gh = fresh()
        rec = TraceRecorder(gh.mem)
        with rec:
            with pytest.raises(RuntimeError):
                rec.__enter__()

    def test_analysis_helpers(self):
        trace = record_workload(fresh())
        assert trace.gpu_write_fraction() == 0.0
        fp = trace.footprint_bytes()
        assert "x" in fp and fp["x"] > 0


def record_mixed_workload(gh):
    """Fast-path, slow-path and out-of-range (empty after clipping)
    descriptors over system and managed memory."""
    with TraceRecorder(gh.mem) as rec:
        x = gh.malloc(np.float32, (1 << 18,), name="x")
        m = gh.cuda_malloc_managed(np.float32, (1 << 18,), name="m")
        n = x.alloc.n_pages
        gh.cpu_phase("init", [ArrayAccess.write_(x), ArrayAccess.write_(m)])
        gh.cpu_phase("warm", [
            ArrayAccess.read(x),
            ArrayAccess.read(m, fraction=0.5),
            ArrayAccess.read(x, PageSet.range(n + 4, n + 8)),
        ])
        gh.launch_kernel("k", [
            ArrayAccess.write_(m),
            ArrayAccess.read(x, PageSet.range(0, 2)),
            ArrayAccess.write_(m, PageSet.range(n, n + 3)),
        ])
        gh.launch_kernel("k2", [
            ArrayAccess.read(m), ArrayAccess.read(m, density=0.25),
        ])
    return rec.trace


#: ``record_mixed_workload``'s trace as (alloc, processor, write,
#: useful_bytes, density, pages): one record per descriptor in issue
#: order, out-of-range descriptors (empty after clipping) included.
MIXED_TRACE = [
    ("x", "cpu", True, 65536, 1.0, ("range", 0, 16)),
    ("m", "cpu", True, 65536, 1.0, ("range", 0, 16)),
    ("x", "cpu", False, 65536, 1.0, ("range", 0, 16)),
    ("m", "cpu", False, 32768, 1.0, ("range", 0, 16)),
    ("x", "cpu", False, 65536, 1.0, ("range", 0, 0)),
    ("m", "gpu", True, 65536, 1.0, ("range", 0, 16)),
    ("x", "gpu", False, 65536, 1.0, ("range", 0, 2)),
    ("m", "gpu", True, 65536, 1.0, ("range", 0, 0)),
    ("m", "gpu", False, 65536, 1.0, ("range", 0, 16)),
    ("m", "gpu", False, 65536, 0.25, ("range", 0, 16)),
]


class TestSingleBatchPath:
    """Observers see every descriptor of the fused ``access_batch``."""

    @pytest.mark.parametrize("overrides", [{}, {"sanitize": True}])
    def test_trace_matches_per_descriptor_recording(self, overrides):
        trace = record_mixed_workload(fresh(**overrides))
        got = [
            (r.alloc_name, r.processor, r.write, r.useful_bytes, r.density,
             tuple(r.pages))
            for r in trace
        ]
        assert got == MIXED_TRACE

    @pytest.mark.parametrize("observer", [None, "recorder", "sanitizer"])
    def test_warm_epoch_makes_no_access_calls(self, monkeypatch, observer):
        gh = fresh(sanitize=observer == "sanitizer")
        x = gh.malloc(np.float32, (1 << 18,), name="x")
        m = gh.cuda_malloc_managed(np.float32, (1 << 18,), name="m")
        gh.cpu_phase("init", [ArrayAccess.write_(x)])
        gh.launch_kernel("init", [ArrayAccess.write_(m)])
        calls = []
        access = MemorySubsystem.access

        def counted(self, *args, **kwargs):
            calls.append(args)
            return access(self, *args, **kwargs)

        monkeypatch.setattr(MemorySubsystem, "access", counted)
        recorder = TraceRecorder(gh.mem)
        with recorder if observer == "recorder" else contextlib.nullcontext():
            gh.cpu_phase("warm", [ArrayAccess.read(x)])
            gh.launch_kernel(
                "warm", [ArrayAccess.read(m), ArrayAccess.write_(m)]
            )
        assert calls == []
        if observer == "recorder":
            assert len(recorder.trace) == 3


class TestPersistence:
    def test_json_roundtrip(self, tmp_path):
        trace = record_workload(fresh())
        path = trace.save(tmp_path / "trace.jsonl")
        loaded = AccessTrace.load(path)
        assert len(loaded) == len(trace)
        for a, b in zip(trace, loaded):
            assert a.alloc_name == b.alloc_name
            assert a.pageset().count == b.pageset().count
            assert a.shape().density == b.shape().density


class TestReplay:
    def test_replay_reproduces_traffic(self):
        trace = record_workload(fresh())
        gh2 = fresh()
        summary = replay(trace, gh2)
        assert summary["allocations"] == 1
        assert summary["batches"] == 3
        # Same config -> same remote traffic as a fresh run would see.
        gh3 = fresh()
        record_workload(gh3)
        assert summary["c2c_read_bytes"] == (
            gh3.counters.total.c2c_read_bytes
        )

    def test_replay_onto_other_page_size(self):
        trace = record_workload(fresh(page=65536))
        small = fresh(page=4096)
        summary = replay(trace, small)
        assert summary["replay_seconds"] > 0
        # More, smaller pages -> more CPU faults during replay.
        assert small.counters.total.cpu_page_faults > 0

    def test_replay_with_migration_enabled(self):
        gh = fresh(migration=True)
        recorder = TraceRecorder(gh.mem)
        with recorder:
            x = gh.malloc(np.float32, (1 << 20,), name="x")
            gh.cpu_phase("init", [ArrayAccess.write_(x)])
            for i in range(6):
                gh.launch_kernel(f"sweep{i}", [ArrayAccess.read(x)])
        target = fresh(migration=True)
        summary = replay(recorder.trace, target)
        assert summary["pages_migrated_h2d"] > 0
