"""The incremental neighbor search: Verlet shell, a filter at every call, epoch identity, idle calls."""
import math
from collections import deque

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.spatial import cKDTree

from densiflock import Domain, ModelParams, NeighborSearch
from densiflock.dynamics import MODELS, SHELL_SKIN
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
    # Up to PAIR_DIAMETER_MAX_N particles the shell compares every pair; its
    # pairs are the ones cKDTree.query_pairs finds within delta + s.
    params, span, x = case
    domain = Domain(span) if periodic else Domain()
    search = NeighborSearch(params, domain)
    i, j = search._shell(x)
    assert (i < j).all()
    reach = params.delta + SHELL_SKIN * params.delta
    expected = cKDTree(domain.wrap(x), boxsize=domain.L).query_pairs(reach)
    assert set(zip(i.tolist(), j.tolist())) == expected
