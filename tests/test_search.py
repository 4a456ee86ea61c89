"""The incremental neighbor search: Verlet shell, skip certificate, epoch identity."""
import math
from collections import deque

import numpy as np
from hypothesis import given, settings, strategies as st

from densiflock import Domain, ModelParams, NeighborSearch
from densiflock.dynamics import MODELS, SHELL_SKIN
from densiflock.experiments import oracle_run
from oracles import dense_table


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
        if ref is not None and domain.lengths(ring[0] - ref).max() > skin / 2:
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
    dense = domain.distances(x, x)[i, j]
    assert domain.pair_distances(x, i, j).tobytes() == dense.tobytes()


def test_certificate_skips_the_filter_on_the_oracle_run(monkeypatch):
    calls = []
    pair_distances = Domain.pair_distances

    def counting(self, *args):
        calls.append(1)
        return pair_distances(self, *args)

    monkeypatch.setattr(Domain, "pair_distances", counting)
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
