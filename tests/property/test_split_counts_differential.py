"""Differential test: ``Allocation.split_counts`` against ``np.bincount``.

``split_counts`` counts large residency views with one ``int8``
comparison per location and small ones with ``np.bincount``; the cutoff
is :data:`SPLIT_COUNTS_COMPARE_MIN_PAGES`. Both paths must give exactly
``np.bincount(pages.view(state), minlength=len(Location))`` for every
page-set representation, on both sides of the cutoff, over states that
use all five locations.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem.pageset import MAX_SYMBOLIC_RUNS, PageSet
from repro.mem.pagetable import SPLIT_COUNTS_COMPARE_MIN_PAGES, Allocation, AllocKind
from repro.sim.config import Location, SystemConfig

CUTOFF = SPLIT_COUNTS_COMPARE_MIN_PAGES
N_PAGES = 10 * CUTOFF + 123


def allocation(seed: int) -> Allocation:
    """A managed allocation whose page states are random over all five
    locations, laid out as runs of random length (as residency is)."""
    cfg = SystemConfig.scaled(1 / 64, page_size=4096)
    alloc = Allocation(AllocKind.MANAGED, N_PAGES * cfg.system_page_size, cfg)
    rng = np.random.default_rng(seed)
    lengths = rng.integers(1, 300, N_PAGES)
    values = rng.integers(0, len(Location), N_PAGES)
    alloc.state[:] = np.repeat(values, lengths)[:N_PAGES]
    alloc._loc_counts[:] = np.bincount(alloc.state, minlength=len(Location))
    assert np.all(alloc._loc_counts > 0)
    return alloc


def expected(alloc: Allocation, pages: PageSet) -> np.ndarray:
    return np.bincount(pages.view(alloc.state), minlength=len(Location))


def page_sets(rng: np.random.Generator, count: int) -> dict:
    """One page set of ``count`` (at least 5) pages per representation;
    the scattered set is an index array once ``count`` allows it."""
    lo = int(rng.integers(0, N_PAGES - 3 * count))
    n_runs = 5
    per = count // n_runs
    runs = [(lo + 2 * k * per, lo + 2 * k * per + per) for k in range(n_runs)]
    runs[-1] = (runs[-1][0], runs[-1][0] + count - per * (n_runs - 1))
    idx = np.sort(rng.choice(N_PAGES // 2, size=count, replace=False)) * 2
    sets = {
        "range": PageSet.range(lo, lo + count),
        "runs": PageSet.from_runs(runs),
        "strided": PageSet.strided(lo, lo + 3 * count, 3),
        "index": PageSet.of(idx),
    }
    assert sets["range"].is_range
    assert sets["runs"].runs is not None
    assert sets["strided"].step == 3
    # Fewer scattered pages than this stay a symbolic interval list.
    assert (sets["index"].index is not None) == (count > MAX_SYMBOLIC_RUNS)
    for ps in sets.values():
        assert ps.count == count
    return sets


@pytest.mark.parametrize(
    "count", [5, 100, CUTOFF - 1, CUTOFF, CUTOFF + 1, 3 * CUTOFF]
)
@pytest.mark.parametrize("seed", [0, 1])
def test_matches_bincount_on_both_sides_of_cutoff(count, seed):
    alloc = allocation(seed)
    rng = np.random.default_rng(100 + seed)
    for kind, pages in page_sets(rng, count).items():
        got = alloc.split_counts(pages)
        assert got.dtype == np.int64, kind
        assert got.tolist() == expected(alloc, pages).tolist(), kind


def test_full_range_uses_incremental_counts():
    alloc = allocation(2)
    full = PageSet.full(alloc.n_pages)
    assert alloc.split_counts(full).tolist() == expected(alloc, full).tolist()


@settings(max_examples=60, deadline=None)
@given(
    start=st.integers(0, N_PAGES - 1),
    length=st.integers(1, 2 * CUTOFF),
    step=st.integers(1, 3),
)
def test_strided_windows(start, length, step):
    alloc = allocation(3)
    pages = PageSet.strided(start, min(N_PAGES, start + length * step), step)
    assert alloc.split_counts(pages).tolist() == expected(alloc, pages).tolist()
