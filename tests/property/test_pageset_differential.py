"""Differential property suite: PageSet algebra vs a frozenset oracle.

Random *chains* of symbolic operations are applied to a PageSet and to a
plain ``frozenset[int]`` oracle in lockstep; after every step the two
must agree exactly. Unlike the single-op tests in
``test_pageset_properties.py`` this exercises operator *composition* —
representation transitions (range -> runs -> strided -> indices), the
interval-list overflow past :data:`MAX_SYMBOLIC_RUNS`, and the block
algebra (``align_down`` / ``blocks``) the managed-memory model relies
on. ``PageSet.of`` is also checked against an ``np.unique`` reference on
both sides of its mask/sort density limit, representation included.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem.pageset import MAX_MASK_SPAN_PER_INDEX, MAX_SYMBOLIC_RUNS, PageSet

MAX_PAGE = 1 << 12


# -- oracle ----------------------------------------------------------------


def oracle(ps: PageSet) -> frozenset:
    return frozenset(int(i) for i in ps.indices())


def oracle_align_down(s: frozenset, g: int) -> frozenset:
    return frozenset(
        p for page in s for p in range((page // g) * g, (page // g) * g + g)
    )


def oracle_take_first(s: frozenset, k: int) -> frozenset:
    return frozenset(sorted(s)[:k])


def oracle_blocks(s: frozenset, g: int) -> list:
    return sorted({page // g for page in s})


# -- generators ------------------------------------------------------------


def _runs(bounds):
    bounds = sorted(set(bounds))
    return PageSet.from_runs(list(zip(bounds[::2], bounds[1::2])))


leaf_sets = st.one_of(
    st.just(PageSet.empty()),
    st.tuples(st.integers(0, MAX_PAGE), st.integers(0, MAX_PAGE)).map(
        lambda t: PageSet.range(min(t), max(t))
    ),
    st.lists(st.integers(0, MAX_PAGE - 1), max_size=48).map(PageSet.of),
    st.lists(
        st.integers(0, MAX_PAGE), min_size=2, max_size=24, unique=True
    ).map(_runs),
    st.tuples(
        st.integers(0, MAX_PAGE // 2),
        st.integers(0, MAX_PAGE // 2),
        st.integers(1, 33),
    ).map(lambda t: PageSet.strided(t[0], t[0] + t[1], t[2])),
)

ops = st.lists(
    st.one_of(
        st.tuples(st.just("union"), leaf_sets),
        st.tuples(st.just("difference"), leaf_sets),
        st.tuples(st.just("intersect"), leaf_sets),
        st.tuples(st.just("align_down"), st.integers(1, 64)),
        st.tuples(st.just("take_first"), st.integers(0, MAX_PAGE)),
        st.tuples(st.just("clip"), st.integers(0, MAX_PAGE)),
    ),
    max_size=8,
)


@given(leaf_sets, ops)
def test_operation_chains_match_oracle(ps, chain):
    ref = oracle(ps)
    for op, arg in chain:
        if op == "union":
            ps, ref = ps.union(arg), ref | oracle(arg)
        elif op == "difference":
            ps, ref = ps.difference(arg), ref - oracle(arg)
        elif op == "intersect":
            ps, ref = ps.intersect(arg), ref & oracle(arg)
        elif op == "align_down":
            ps, ref = ps.align_down(arg), oracle_align_down(ref, arg)
        elif op == "take_first":
            ps, ref = ps.take_first(arg), oracle_take_first(ref, arg)
        elif op == "clip":
            ps, ref = ps.clip(arg), frozenset(p for p in ref if p < arg)
        assert oracle(ps) == ref, f"after {op}({arg})"
        assert ps.count == len(ref)


@given(leaf_sets, st.integers(1, 64))
def test_blocks_matches_oracle(ps, g):
    assert list(ps.blocks(g)) == oracle_blocks(oracle(ps), g)


@given(leaf_sets, st.integers(1, 64))
def test_align_down_covers_whole_blocks(ps, g):
    aligned = oracle(ps.align_down(g))
    assert aligned == oracle_align_down(oracle(ps), g)
    assert len(aligned) % g == 0


# -- interval-list overflow past MAX_SYMBOLIC_RUNS -------------------------


@settings(max_examples=25)
@given(
    st.integers(MAX_SYMBOLIC_RUNS + 1, 3 * MAX_SYMBOLIC_RUNS),
    st.integers(1, 4),
    st.integers(2, 6),
)
def test_run_count_overflow_preserves_semantics(n_runs, width, gap):
    """More disjoint runs than the symbolic cap must still behave
    identically to the oracle, whatever representation results."""
    stride = width + gap
    bounds = [(i * stride, i * stride + width) for i in range(n_runs)]
    ps = PageSet.from_runs(bounds)
    ref = frozenset(
        p for lo, hi in bounds for p in range(lo, hi)
    )
    assert oracle(ps) == ref
    assert ps.count == n_runs * width
    # Algebra still matches after overflow.
    probe = PageSet.strided(0, n_runs * stride, 2)
    assert oracle(ps.difference(probe)) == ref - oracle(probe)
    assert oracle(ps.union(probe)) == ref | oracle(probe)
    assert oracle(ps.align_down(8)) == oracle_align_down(ref, 8)


def test_overflowed_union_degrades_without_data_loss():
    """Unioning many scattered singletons crosses the symbolic-run cap;
    page membership must survive the representation change exactly."""
    ps = PageSet.empty()
    ref = frozenset()
    rng = np.random.default_rng(1234)
    for lo in sorted(rng.choice(MAX_PAGE, size=4 * MAX_SYMBOLIC_RUNS,
                                replace=False).tolist()):
        ps = ps.union(PageSet.range(lo, lo + 1))
        ref = ref | {lo}
    assert oracle(ps) == ref
    assert ps.count == len(ref)


# -- PageSet.of dedup vs np.unique -------------------------------------------


def unique_reference(x) -> PageSet:
    """Reference ``PageSet.of``: sort and dedup through ``np.unique``."""
    return PageSet._from_sorted(np.unique(np.asarray(x, dtype=np.int64)))


def assert_same_representation(got: PageSet, want: PageSet) -> None:
    assert (got.start, got.stop, got.step) == (want.start, want.stop, want.step)
    assert got.runs == want.runs
    if want.index is None:
        assert got.index is None
    else:
        assert got.index.dtype == np.int64
        assert np.array_equal(got.index, want.index)


@st.composite
def gathers(draw, span_kind):
    """Index arrays whose ``[min, max]`` span relative to their length
    puts them on a chosen side of :data:`MAX_MASK_SPAN_PER_INDEX`."""
    limit = MAX_MASK_SPAN_PER_INDEX
    n = draw(st.integers(2, 400))
    if span_kind == "dense":
        span = draw(st.integers(1, limit * n))
    elif span_kind == "sparse":
        span = draw(st.integers(limit * n + 1, 50 * limit * n))
    elif span_kind == "at_limit":
        span = limit * n
    else:  # one past the limit
        span = limit * n + 1
    lo = draw(st.integers(0, 1 << 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        # Duplicate-heavy: every index from a handful of distinct pages.
        pool = rng.integers(lo, lo + span, size=draw(st.integers(1, 8)))
        body = rng.choice(pool, size=n - 2)
    else:
        body = rng.integers(lo, lo + span, size=n - 2)
    x = np.concatenate(([lo, lo + span - 1], body)).astype(np.int64)
    if draw(st.booleans()):
        x = rng.permutation(x)
    else:
        x.sort()
    if n % 2 == 0 and draw(st.booleans()):
        x = x.reshape(2, n // 2)
    return x


@settings(max_examples=60)
@given(
    st.one_of(
        gathers("dense"),
        gathers("sparse"),
        gathers("at_limit"),
        gathers("past_limit"),
    )
)
def test_of_matches_unique_reference_representation(x):
    assert_same_representation(PageSet.of(x), unique_reference(x))


def test_of_dedup_path_switches_exactly_past_the_span_limit(monkeypatch):
    """Spans up to ``MAX_MASK_SPAN_PER_INDEX`` x the index count take the
    mask; one page more takes the sort."""
    import repro.mem.pageset as pageset_mod

    sorted_calls = []
    real = pageset_mod._drop_adjacent_duplicates

    def spy(a):
        sorted_calls.append(a.size)
        return real(a)

    monkeypatch.setattr(pageset_mod, "_drop_adjacent_duplicates", spy)
    n = 10
    limit = MAX_MASK_SPAN_PER_INDEX * n
    at_limit = np.linspace(7, 7 + limit - 1, n).astype(np.int64)[::-1]
    past_limit = np.linspace(7, 7 + limit, n).astype(np.int64)[::-1]

    got = PageSet.of(at_limit)
    assert sorted_calls == []
    assert_same_representation(got, unique_reference(at_limit))

    got = PageSet.of(past_limit)
    assert sorted_calls == [n]
    assert_same_representation(got, unique_reference(past_limit))


@pytest.mark.parametrize(
    "x",
    [[], np.empty(0, dtype=np.int64), np.empty((0, 3), dtype=np.int32)],
)
def test_of_empty_input_is_empty(x):
    assert PageSet.of(x) == PageSet.empty()


@pytest.mark.parametrize(
    "x",
    [
        [-1, 0, 1, 2],  # dense: mask path
        [5, -1, 10**6],  # sparse: sort path
        np.array([[3, 4], [-2, 4]]),
    ],
)
def test_of_rejects_negative_indices(x):
    with pytest.raises(ValueError, match="non-negative"):
        PageSet.of(x)
