"""Unit tests for the microbenchmarks and pattern generators."""

import numpy as np
import pytest

from repro.core.runtime import GraceHopperSystem
from repro.sim.config import MiB, Processor, SystemConfig
from repro.workloads.commscope import asymptotic_bandwidth, run_commscope
from repro.workloads.patterns import (
    irregular_gather,
    mixed_pattern,
    regular_sweep,
    regular_window,
    strided_sweep,
)
from repro.workloads.stream import STREAM_KERNELS, best_bandwidth, run_stream


@pytest.fixture
def gh():
    return GraceHopperSystem(SystemConfig.scaled(1 / 64, page_size=65536))


class TestStream:
    def test_runs_all_four_kernels(self, gh):
        results = run_stream(gh, Processor.GPU, n_elements=1 << 18)
        assert [r.kernel for r in results] == [k[0] for k in STREAM_KERNELS]

    def test_gpu_bandwidth_near_hbm(self, gh):
        results = run_stream(gh, Processor.GPU, n_elements=1 << 22)
        best = best_bandwidth(results)
        assert 0.7 * gh.config.hbm_bandwidth < best.bandwidth <= (
            gh.config.hbm_bandwidth
        )
        assert best.efficiency < 1.0

    def test_cpu_bandwidth_near_lpddr(self, gh):
        results = run_stream(gh, Processor.CPU, n_elements=1 << 22)
        best = best_bandwidth(results)
        assert best.bandwidth == pytest.approx(
            gh.config.cpu_memory_bandwidth, rel=0.05
        )

    def test_arrays_are_freed(self, gh):
        rss0 = gh.mem.process_rss_bytes()
        run_stream(gh, Processor.CPU, n_elements=1 << 18)
        assert gh.mem.process_rss_bytes() == rss0


class TestCommScope:
    def test_sweep_directions(self, gh):
        results = run_commscope(gh, sizes=[1 * MiB, 16 * MiB])
        assert {r.direction for r in results} == {"h2d", "d2h"}
        assert len(results) == 4

    def test_asymptotic_bandwidths_are_asymmetric(self, gh):
        results = run_commscope(gh, sizes=[1 * MiB, 64 * MiB])
        h2d = asymptotic_bandwidth(results, "h2d")
        d2h = asymptotic_bandwidth(results, "d2h")
        assert h2d > d2h
        assert h2d <= gh.config.c2c_h2d_bandwidth

    def test_small_transfers_get_lower_bandwidth(self, gh):
        results = run_commscope(gh, sizes=[1 * MiB, 256 * MiB])
        h2d = [r for r in results if r.direction == "h2d"]
        assert h2d[0].bandwidth < h2d[1].bandwidth

    def test_unknown_direction_rejected(self, gh):
        results = run_commscope(gh, sizes=[1 * MiB])
        with pytest.raises(ValueError):
            asymptotic_bandwidth(results, "loopback")


class TestPatterns:
    def test_regular_sweep_covers_all_pages(self, gh):
        arr = gh.malloc(np.float32, (1 << 20,))
        acc = regular_sweep(arr)
        assert acc.pages.covers_all(arr.n_pages)
        assert not acc.write
        assert regular_sweep(arr, write=True).write

    def test_regular_window_rows(self, gh):
        arr = gh.malloc(np.float32, (1024, 1024))
        acc = regular_window(arr, 0, 16)
        assert acc.pages.count == arr.pages_of_rows(0, 16).count

    def test_irregular_gather_is_sparse(self, gh):
        rng = np.random.default_rng(1)
        arr = gh.malloc(np.float64, (1 << 22,))
        acc = irregular_gather(arr, 1000, rng=rng)
        assert acc.shape.density < 0.5
        assert 0 < acc.pages.count <= 1000

    def test_irregular_gather_validates(self, gh):
        arr = gh.malloc(np.float64, (64,))
        with pytest.raises(ValueError):
            irregular_gather(arr, 0, rng=np.random.default_rng(0))

    def test_page_shares_sum_to_one_with_a_short_last_page(self, gh):
        per_page = gh.config.system_page_size // 8
        arr = gh.malloc(np.float64, (9 * per_page + 100,))
        w = arr.elements_per_page() / arr.size
        assert len(w) == 10
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        assert w[-1] == 100 / arr.size
        assert np.all(w[:-1] == per_page / arr.size)

    @pytest.mark.parametrize(
        "dtype, size",
        [
            ("V3", 50_000),
            ([("x", "f8"), ("y", "f8"), ("z", "f8")], 50_000),
            ("V70000", 40),
        ],
        ids=["3-byte", "24-byte", "longer-than-a-page"],
    )
    def test_page_shares_follow_pages_of_indices(self, gh, dtype, size):
        # itemsize does not divide the page size: elements straddle page
        # boundaries and each counts on the page of its first byte.
        arr = gh.malloc(dtype, (size,))
        assert gh.config.system_page_size % arr.itemsize
        idx = np.arange(arr.size)
        first_byte_pages = (idx * arr.itemsize) // arr.page_size
        counts = arr.elements_per_page()
        assert counts.tolist() == np.bincount(first_byte_pages).tolist()
        touched = arr.pages_of_indices(idx)
        assert touched.indices().tolist() == np.flatnonzero(counts).tolist()

    def test_sparse_gather_hits_the_expected_number_of_pages(self, gh):
        # n well below the page count: many pages are missed, so the
        # sampled page set depends on the draw. Its mean size must match
        # the uniform-draw expectation sum_p 1 - (1 - w_p)^n.
        per_page = gh.config.system_page_size // 8
        arr = gh.malloc(np.float64, (1023 * per_page + 7,))
        n = 64
        w = arr.elements_per_page() / arr.size
        expected = float(np.sum(1.0 - (1.0 - w) ** n))
        rng = np.random.default_rng(5)
        counts = [
            irregular_gather(arr, n, rng=rng).pages.count for _ in range(2000)
        ]
        # Var(distinct) < n; 2000 samples put the mean's standard error
        # below 0.18 pages, so 1 page is over five standard errors.
        assert np.mean(counts) == pytest.approx(expected, abs=1.0)
        assert max(counts) <= n

    def test_mixed_pattern(self, gh):
        rng = np.random.default_rng(2)
        dense = gh.malloc(np.float32, (1 << 18,))
        sparse = gh.malloc(np.float32, (1 << 20,))
        accs = mixed_pattern(dense, sparse, 512, rng=rng)
        assert len(accs) == 2
        assert accs[0].shape.density == 1.0
        assert accs[1].shape.density < 1.0

    def test_strided_sweep(self, gh):
        arr = gh.malloc(np.float32, (1 << 20,))
        acc = strided_sweep(arr, 4)
        assert acc.pages.count == -(-arr.n_pages // 4)
