"""Property: the fused epoch executor is observationally identical to
the per-descriptor access loop it replaces.

Two freshly built systems run the same hypothesis-generated epoch — a
prologue that leaves each allocation in a mixed residency state, then an
arbitrary interleaving of read/write descriptors over SYSTEM and MANAGED
allocations — once through :meth:`MemorySubsystem.access_batch` and once
through the scalar :meth:`MemorySubsystem.access` loop. The returned
:class:`AccessResult` must match field-for-field (bit-exact floats) and
the *entire* mutable system state must fingerprint identically, through
the following epoch boundary (which flushes the batch's deferred
access-counter bumps into the migrator). It runs on every registered
memory-architecture backend, since the fast path and every backend's
slow path share one local-charge hook.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kernels import ArrayAccess
from repro.core.runtime import GraceHopperSystem
from repro.mem.arch import architecture_names
from repro.mem.batch import AccessBatch
from repro.sim.checkpoint import SystemCheckpoint
from repro.sim.config import Processor, SystemConfig

N_ELEMS = 1 << 16  # 64 pages of 4 KiB per allocation at 1/1024 scale


def make_system(mem_arch: str) -> GraceHopperSystem:
    return GraceHopperSystem(
        SystemConfig.scaled(1 / 1024, migration_enable=True, mem_arch=mem_arch)
    )


@dataclasses.dataclass(frozen=True)
class Epoch:
    """One generated scenario."""

    init_fractions: tuple  # per-allocation CPU-initialised prefix
    descriptors: tuple  # (alloc_idx, lo_frac, hi_frac, write)
    processor: Processor


epochs = st.builds(
    Epoch,
    init_fractions=st.tuples(
        st.sampled_from([0.0, 0.3, 1.0]), st.sampled_from([0.0, 0.5, 1.0])
    ),
    descriptors=st.lists(
        st.tuples(
            st.integers(0, 1),
            st.floats(0.0, 1.0),
            st.floats(0.0, 1.0),
            st.booleans(),
        ),
        min_size=1,
        max_size=8,
    ).map(tuple),
    processor=st.sampled_from([Processor.GPU, Processor.CPU]),
)


def build_and_run(epoch: Epoch, mem_arch: str, *, fused: bool):
    gh = make_system(mem_arch)
    sys_arr = gh.malloc(np.float32, (N_ELEMS,), name="eq.sys")
    man_arr = gh.cuda_malloc_managed(np.float32, (N_ELEMS,), name="eq.man")
    arrays = [sys_arr, man_arr]
    init = [
        ArrayAccess.write_(a, fraction=f)
        for a, f in zip(arrays, epoch.init_fractions)
        if f > 0.0
    ]
    for acc in init:
        n = max(1, int(acc.array.alloc.n_pages * epoch.init_fractions[
            arrays.index(acc.array)
        ]))
        gh.mem.access(
            Processor.CPU, acc.array.alloc,
            acc.pages.take_first(n), acc.shape, write=True, now=gh.now,
        )
    accesses = []
    for idx, lo_f, hi_f, write in epoch.descriptors:
        arr = arrays[idx]
        n = arr.alloc.n_pages
        lo, hi = sorted((int(lo_f * n), int(hi_f * n)))
        if hi == lo:
            hi = min(lo + 1, n)
        from repro.mem.pageset import PageSet

        pages = PageSet.range(lo, hi)
        accesses.append(
            ArrayAccess.write_(arr, pages) if write
            else ArrayAccess.read(arr, pages)
        )
    # A nonzero epoch time, so a skipped or extra LRU block touch shows
    # up in the fingerprinted state.
    now = gh.now + 1.0
    if fused:
        result = gh.mem.access_batch(
            epoch.processor, AccessBatch.from_accesses(accesses), now=now
        )
    else:
        from repro.mem.subsystem import AccessResult

        result = AccessResult()
        for acc in accesses:
            result.merge(
                gh.mem.access(
                    epoch.processor, acc.array.alloc, acc.pages, acc.shape,
                    write=acc.write, now=now,
                )
            )
    # The epoch boundary flushes deferred access-counter bumps into the
    # migrator — after it, even the deferral is observationally gone.
    gh.mem.begin_epoch()
    return result, SystemCheckpoint.capture(gh)


@pytest.mark.parametrize("mem_arch", architecture_names())
@settings(max_examples=30, deadline=None)
@given(epochs)
def test_access_batch_equals_descriptor_loop(mem_arch, epoch):
    fused_result, fused_state = build_and_run(epoch, mem_arch, fused=True)
    loop_result, loop_state = build_and_run(epoch, mem_arch, fused=False)
    for f in dataclasses.fields(fused_result):
        assert getattr(fused_result, f.name) == getattr(loop_result, f.name), (
            f"AccessResult.{f.name} diverged"
        )
    assert fused_state.fingerprint() == loop_state.fingerprint()
