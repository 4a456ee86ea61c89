"""The incremental neighbor search: Verlet shell, a filter at every call, epoch identity, idle calls."""
import math
import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.spatial import cKDTree

from densiflock import Domain, ModelParams, NeighborSearch
from densiflock.dynamics import MODELS, PAIR_DIAMETER_MAX_N, SHELL_SKIN
from densiflock.experiments import oracle_run
from oracles import dense_distances, dense_table


def same_table(a, b):
    return (
        a.indptr.dtype == b.indptr.dtype and a.indices.dtype == b.indices.dtype
        and np.array_equal(a.indptr, b.indptr) and np.array_equal(a.indices, b.indices)
    )


@st.composite
def walks(draw):
    """(params, domain, positions per step, wrap each step) for one random walk.

    Half the walks live on the integer grid with a range that grid distances
    reach exactly, so pairs sit at distance delta and step on and off it.  The
    rest move by Gaussian steps whose scale ranges from far below the skin (the
    certificate holds) to several skins (every step rebuilds), plus rare jumps
    of a whole box.  Boxes run down to side 3, where delta + s reaches L / 2.
    """
    model = draw(st.sampled_from(MODELS))
    n = draw(st.integers(2, 14))
    L = draw(st.sampled_from([None, 3.0, 7.0]))
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    steps = draw(st.integers(1, 40))
    grid = draw(st.booleans())
    if grid:
        delta = draw(st.sampled_from([1.0, 2.0, math.sqrt(2.0), math.sqrt(5.0)]))
        x = rng.integers(0, 7, size=(n, 2)).astype(float)
        moves = rng.integers(-1, 2, size=(steps, n, 2)) * (rng.random((steps, n, 1)) < 0.3)
    else:
        delta = draw(st.floats(0.3, 2.0))
        x = rng.uniform(0, 7, size=(n, 2))
        scale = draw(st.sampled_from([1e-4, 1e-2, 0.1, 1.0])) * delta
        moves = rng.normal(0.0, scale, size=(steps, n, 2))
        moves += 7.0 * (rng.random((steps, n, 1)) < 0.02)
    knobs = {}
    if model == "di":
        m, h_steps = draw(st.integers(1, 4)), draw(st.integers(1, 3))
        knobs = dict(delta=delta, m=m, h_steps=h_steps)
    domain = Domain() if L is None else Domain(L)
    return ModelParams(model, n, **knobs), domain, x + np.cumsum(moves, axis=0), draw(st.booleans())


@given(walks())
@settings(max_examples=300, deadline=None)
def test_search_matches_dense_rule_at_every_step(walk):
    params, domain, path, wrap = walk
    search = NeighborSearch(params, domain)
    ring = deque([path[0]], maxlen=params.h_steps + 1)
    skin = SHELL_SKIN * (params.delta or 0.0)
    previous = expected_before = None
    for k, x in enumerate(path):
        x = domain.wrap(x) if wrap else x  # the search also reads unwrapped positions
        if k:
            ring.append(x)
        ref = getattr(search, "ref", None)  # positions at the last filter
        table = search.table(ring[0])
        expected = dense_table(params, ring[0], domain)
        assert same_table(table, expected)
        # Equal sets come back as the same object, changed sets as a new one.
        if previous is not None:
            assert (table is previous) == same_table(expected, expected_before)
        if ref is not None and np.sqrt(domain.squared_lengths(ring[0] - ref)).max() > skin / 2:
            assert search.drift == 0.0  # a move past half the skin rebuilds the shell
        previous, expected_before = table, expected


@st.composite
def point_sets(draw):
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, 20))
    L = draw(st.sampled_from([None, 0.5, 7.0, 1e3]))
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    x = rng.uniform(-scale, scale, size=(n, d))
    if draw(st.booleans()):  # exact half-box and grid separations
        x = np.round(x) * (L or 1.0) / 2
    return x, Domain() if L is None else Domain(L)


@given(point_sets())
@settings(max_examples=200, deadline=None)
def test_pair_distances_bitwise_equal_distances(case):
    x, domain = case
    i, j = np.nonzero(np.ones((len(x), len(x)), dtype=bool))
    dense = dense_distances(domain, x, x)[i, j]
    assert domain.distances(x, i, j).tobytes() == dense.tobytes()


def test_certificate_skips_the_filter_on_the_oracle_run(monkeypatch):
    # Every search call filters; the certified stretches skip the calls.
    calls = []
    distances = Domain.distances

    def counting(self, *args):
        calls.append(1)
        return distances(self, *args)

    monkeypatch.setattr(Domain, "distances", counting)
    record, _, _ = oracle_run(dt=1e-3)
    steps = record.samples[-1].step
    assert steps == 10_000
    assert 0 < len(calls) < 0.02 * steps


def test_certificate_covers_both_ends_of_a_pair():
    # Two particles just outside each other's ball each step toward the other
    # by less than the margin, but together by more: both gates open (m = 1).
    eps = 1e-3
    search = NeighborSearch(ModelParams("di", 2, m=1, delta=1.0), Domain())
    x = np.array([[0.0, 0.0], [1.0 + eps, 0.0]])
    assert search.table(x).indptr.tolist() == [0, 0, 0]
    y = x + [[0.6 * eps, 0.0], [-0.6 * eps, 0.0]]
    assert search.table(y).indptr.tolist() == [0, 2, 4]


@st.composite
def quiet_configurations(draw):
    """(x, pairs, delta, K) on the plane or the box [0, 7)^2: random points
    plus a pair just outside delta and one just inside or outside it that
    straddles the edge x = 0, each gap at most a thousandth of delta."""
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    delta = draw(st.floats(0.5, 2.0))
    gaps = [delta * 10.0 ** draw(st.floats(-5.5, -3)) for _ in range(2)]
    x = rng.uniform(0, 7, size=(draw(st.integers(4, 16)), 2))
    theta = rng.uniform(0, 2 * np.pi)
    half = (delta + gaps[0]) / 2 * np.array([math.cos(theta), math.sin(theta)])
    x[0], x[1] = x[0] - half, x[0] + half
    e = rng.uniform(0, delta / 2)
    x[2], x[3] = [-e, x[2, 1]], [delta + draw(st.sampled_from([-1, 1])) * gaps[1] - e, x[2, 1]]
    return x, [(0, 1), (2, 3)], delta, draw(st.integers(1, 60))


@pytest.mark.parametrize("domain", [Domain(), Domain(7.0)], ids=["plane", "box"])
@given(case=quiet_configurations())
@settings(max_examples=150, deadline=None)
def test_idle_calls_bound_keeps_the_table(domain, case):
    # Moving every particle by at most k r, k = idle_calls(r, 50), returns
    # the same table.  The pairs move toward the ball's edge by exactly k r
    # each (the first head-on, the second across the box's edge), so a rule
    # that let one end use the whole margin fails.  With r = 0.9 margin / 2K
    # a sound rule finds at least min(K, 50) calls, so one that returns 0
    # fails too.
    x, pairs, delta, K = case
    x = domain.wrap(x)
    search = NeighborSearch(ModelParams("di", len(x), m=1, delta=delta), domain)
    t = search.table(x)
    d = dense_distances(domain, x, x)[np.triu_indices(len(x), 1)]
    margin = min(np.abs(d - delta).min(), SHELL_SKIN * delta)
    assume(margin > 1e-6 * delta)
    r = 0.9 * margin / (2 * K)
    k = search.idle_calls(r, 50)
    assert min(K, 50) <= k <= 50
    rng = np.random.default_rng(K)
    move = rng.normal(size=x.shape)
    move /= np.sqrt((move * move).sum(axis=1, keepdims=True))
    move *= k * r * np.minimum(rng.uniform(0, 1.5, (len(x), 1)), 1.0)  # a third by k r
    for i, j in pairs:
        e = x[j] - x[i]
        if domain.is_periodic:
            e -= np.rint(e / domain.L) * domain.L
        gap = math.hypot(*e) - delta
        move[i] = math.copysign(k * r, gap) * e / math.hypot(*e)
        move[j] = -move[i]
    assert search.table(domain.wrap(x + move)) is t


def test_stretches_skip_most_search_calls_on_the_oracle_run(monkeypatch):
    # The oracle's epoch is certified (its step matrix has no negative entry),
    # so simulate asks the search only where a stretch ends.
    calls = []
    table = NeighborSearch.table

    def counting(self, delayed):
        calls.append(1)
        return table(self, delayed)

    monkeypatch.setattr(NeighborSearch, "table", counting)
    record, _, err = oracle_run(dt=1e-3)
    steps = record.samples[-1].step
    assert steps == 10_000
    assert 0 < len(calls) < 0.05 * steps
    assert err < 1e-10


@pytest.mark.parametrize("L", [None, 2e154], ids=["plane", "box"])
def test_search_refuses_exactly_the_positions_the_kd_tree_refuses(L):
    # Around the span whose squared sides overflow: the search raises
    # OverflowError exactly where cKDTree would raise its ValueError, and
    # builds its table everywhere else.
    root = math.sqrt(np.finfo(float).max)
    params, domain = ModelParams("di", 3, m=1, delta=2.0), Domain(L)
    refused = 0
    for k in range(-8, 9):
        a = root * (1 + k * 2.0**-52)
        for x in ([[0, 0], [a, 0], [1, 1]], [[0, 0], [a / math.sqrt(2), a / math.sqrt(2)], [1, 1]],
                  [[-a / 2, 0], [a / 2, 1], [0, 0]], [[0, 0], [0.7 * a, 0.2 * a], [0.5 * a, 0]]):
            y = domain.wrap(np.array(x, dtype=float))
            try:
                cKDTree(y, boxsize=L).query_pairs(2.0 * (1 + SHELL_SKIN))
                tree_refuses = False
            except ValueError:
                tree_refuses = True
            if tree_refuses:
                with pytest.raises(OverflowError, match="span"):
                    NeighborSearch(params, domain).table(y)
                refused += 1
            else:
                assert NeighborSearch(params, domain).table(y).n == 3
    assert 0 < refused < 68


def assert_shell_is_the_kd_tree_shell(domain, delta, x):
    """The shell's pairs are cKDTree.query_pairs' within delta + s and the
    pairs whose Domain.squared_distances is at most (delta + s)^2; returns
    the shell build's traced peak in bytes."""
    search = NeighborSearch(ModelParams("di", len(x), m=3, delta=delta), domain)
    tracemalloc.start()
    try:
        i, j = search._shell(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (i < j).all()
    shell = set(zip(i.tolist(), j.tolist()))
    assert len(shell) == len(i)
    reach = delta + SHELL_SKIN * delta
    y = domain.wrap(x)
    assert shell == cKDTree(y, boxsize=domain.L).query_pairs(reach)
    a, b = np.triu_indices(len(y), 1)
    near = domain.squared_distances(y, a, b) <= reach**2
    assert shell == set(zip(a[near].tolist(), b[near].tolist()))
    return peak


@st.composite
def shells(draw):
    """(params, positions) for one di shell build: 2..128 uniform points over
    a span of 3 to 30, and delta from 0.3 to 3, so the shell holds from a few
    pairs to nearly all."""
    n = draw(st.integers(2, 128))
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    span = draw(st.floats(3.0, 30.0))
    params = ModelParams("di", n, m=3, delta=draw(st.floats(0.3, 3.0)))
    return params, span, rng.uniform(-span, 2 * span, size=(n, 2))


@pytest.mark.parametrize("periodic", [False, True], ids=["plane", "box"])
@given(case=shells())
@settings(max_examples=100, deadline=None)
def test_all_pairs_shell_is_the_kd_tree_shell(periodic, case):
    # Up to PAIR_DIAMETER_MAX_N particles the shell compares every pair.
    params, span, x = case
    assert_shell_is_the_kd_tree_shell(Domain(span) if periodic else Domain(), params.delta, x)


@st.composite
def crowds(draw):
    """(delta, span, positions) for one shell build above PAIR_DIAMETER_MAX_N:
    129..600 points spread uniformly, in a few tight clusters or along a
    line, over a span of 10^-0.5 to 10^4, so the shell holds from nearly all
    pairs to none."""
    n = draw(st.integers(PAIR_DIAMETER_MAX_N + 1, 600))
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    span = 10.0 ** draw(st.floats(-0.5, 4.0))
    kind = draw(st.sampled_from(["uniform", "clusters", "line"]))
    if kind == "uniform":
        x = rng.uniform(-span, 2 * span, size=(n, 2))
    elif kind == "clusters":
        centres = rng.uniform(0, span, size=(draw(st.integers(1, 5)), 2))
        x = centres[rng.integers(0, len(centres), n)] + rng.normal(size=(n, 2))
    else:
        x = rng.uniform(0, span, size=(n, 1)) * rng.normal(size=2) + rng.normal(size=(n, 2)) * 1e-3
    return draw(st.floats(0.3, 3.0)), span, x


@pytest.mark.parametrize("periodic", [False, True], ids=["plane", "box"])
@given(case=crowds())
@settings(max_examples=60, deadline=None)
def test_cell_list_shell_is_the_kd_tree_shell(periodic, case):
    # Above PAIR_DIAMETER_MAX_N particles the shell takes its candidates from
    # the cell list; no pair within delta + s is lost, on the plane or the
    # torus, whether the cells are many or a torus has fewer than 3 a side.
    delta, span, x = case
    assert_shell_is_the_kd_tree_shell(Domain(span) if periodic else Domain(), delta, x)


def _cell_boundary_points(reach, k):
    """Points on the lines x = i h and y = i h, and one ulp either side, for h
    the reach and the sides L / G of G = k - 1 and k cells in a box of side
    L = k * reach, each line crossed by three others, so that neighbours
    along an axis sit a cell side apart."""
    L = k * reach
    lines = [np.arange(k) * reach, np.arange(k - 1) * (L / (k - 1)), np.arange(k) * (L / k)]
    lines = np.concatenate(lines)
    lines = np.concatenate([lines, np.nextafter(lines, -np.inf), np.nextafter(lines, np.inf)])
    lines = np.unique(lines[(lines >= 0) & (lines < L)])
    across, along = np.repeat([0.0, reach, L / 2], len(lines)), np.tile(lines, 3)
    return L, np.concatenate([np.column_stack([along, across]), np.column_stack([across, along])])


def _sprawl():
    """Two tight clusters 10^5 apart and a thin line between them: the
    planar grid would want some 10^9 cells at the shell's reach."""
    rng = np.random.default_rng(11)
    ends = np.array([[0.0, 0.0], [1e5, 1e5]])
    blobs = ends[rng.integers(0, 2, 200)] + rng.normal(size=(200, 2))
    line = rng.uniform(0, 1e5, (100, 1)) * np.ones(2) + rng.normal(size=(100, 2))
    return np.concatenate([blobs, line])


@pytest.mark.parametrize("case", ["boundaries", "few_cells", "three_cells", "sprawl", "huge_box"])
@pytest.mark.parametrize("periodic", [False, True], ids=["plane", "box"])
def test_cell_list_shell_edge_cases(periodic, case):
    # The box an exact multiple of delta + s with points on the cell
    # boundaries and one ulp either side; a torus just below and just above
    # 3 cells a side; and sets whose natural grid would hold some 10^9 to
    # 10^11 cells, whose build the cap keeps under 1 MiB.
    rng = np.random.default_rng(5)
    delta = 0.7 if case == "boundaries" else 2.0
    reach = delta * (1 + SHELL_SKIN)
    if case == "boundaries":
        # Without the rounding allowance on the cell side, this torus loses 12
        # pairs exactly delta + s long.
        L, x = _cell_boundary_points(reach, 21)
    elif case in ("few_cells", "three_cells"):
        L = 3 * reach if case == "few_cells" else 3.01 * reach
        x = rng.uniform(0, L, (200, 2))
    elif case == "sprawl":
        L, x = 2e5, _sprawl()
    else:
        L = 1e6
        x = rng.uniform(0, L, (200, 2))
    peak = assert_shell_is_the_kd_tree_shell(Domain(L) if periodic else Domain(), delta, x)
    if case in ("sprawl", "huge_box"):
        assert peak < 2**20
