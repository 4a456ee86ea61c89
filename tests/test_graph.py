"""Digraph construction, clusters, packedness, spectra, certificate."""
from functools import partial

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st
from scipy.sparse import csr_matrix

from densiflock import (
    Domain,
    ModelParams,
    NeighborSearch,
    build_digraph,
    fiedler_value,
    flocking_certificate,
    log_linear_fit,
    strongly_connected_components,
)
from densiflock.experiments import certificate_experiment, lattice_state
from oracles import dense_distances, is_r_densely_packed, neighbor_sets_di, prefactor_params


def digraph_from_phi(phi):
    return csr_matrix(np.asarray(phi, dtype=float))


def scc_oracle_labels(adj):
    """Mutual reachability via boolean transitive closure."""
    n = len(adj)
    reach = np.asarray(adj, dtype=bool) | np.eye(n, dtype=bool)
    for _ in range(n):
        reach = reach | (reach @ reach)
    mutual = reach & reach.T
    labels = [-1] * n
    next_label = 0
    for i in range(n):
        if labels[i] < 0:
            for j in range(n):
                if mutual[i, j]:
                    labels[j] = next_label
            next_label += 1
    return labels


# --- digraph construction ---------------------------------------------------


def test_build_digraph_empty_sets():
    table = neighbor_sets_di([[0.0, 0.0], [9.0, 0.0]], 1.0, 3)
    phi = build_digraph(table, prefactor_params("per_neighbor", 2))
    assert np.all(phi.toarray() == 0)


def test_build_digraph_fully_mixed_per_neighbor():
    pos = [[0, 0], [0.5, 0], [0, 0.5], [0.5, 0.5]]
    table = neighbor_sets_di(pos, 2.0, 3)
    phi = build_digraph(table, prefactor_params("per_neighbor", 4))
    # All set sizes are 4 = N, so every M_i equals M_* and phi is the ones block.
    assert np.all(phi.toarray() == 1.0)


def test_build_digraph_collinear_asymmetric():
    pos = [[0.0, 0.0], [0.9, 0.0], [1.8, 0.0]]
    table = neighbor_sets_di(pos, 1.0, 2)
    phi = build_digraph(table, prefactor_params("per_neighbor", 3)).toarray()
    assert np.all(phi[0] == 0) and np.all(phi[2] == 0)
    assert np.count_nonzero(phi[1]) == 3
    assert not np.array_equal(phi, phi.T)


def test_build_digraph_row_consistency():
    pos = np.random.default_rng(5).uniform(0, 3, (10, 2))
    table = neighbor_sets_di(pos, 1.5, 2)
    phi = build_digraph(table, prefactor_params("per_neighbor", 10))
    assert isinstance(phi, csr_matrix)
    assert phi.nnz == table.sizes().sum()
    assert np.shares_memory(phi.indices, table.indices)
    assert np.shares_memory(phi.indptr, table.indptr)


def test_m_star_variants():
    pol = prefactor_params("per_neighbor", 4)
    assert pol.m_star == pytest.approx(0.25)
    table = neighbor_sets_di([[0, 0], [0.5, 0], [0, 0.5], [9, 9]], 2.0, 2)
    # Realized sets have size 3, so the realized minimum is 1/3 > 1/4.
    sizes = table.sizes()
    assert pol.prefactors(sizes)[sizes > 0].min() == pytest.approx(1 / 3)
    empty = neighbor_sets_di([[0.0, 0.0], [9.0, 0.0]], 1.0, 3)
    assert not prefactor_params("per_neighbor", 2).prefactors(empty.sizes()).any()


# --- strongly connected components -------------------------------------------


def test_scc_zero_matrix_gives_singletons():
    labels = strongly_connected_components(digraph_from_phi(np.zeros((4, 4))))
    assert labels.cluster_count == 4
    assert sorted(labels.labels) == [0, 1, 2, 3]


def test_scc_symmetric_block():
    labels = strongly_connected_components(digraph_from_phi(np.ones((3, 3))))
    assert labels.cluster_count == 1
    assert np.all(labels.labels == 0)


def test_scc_one_way_edge_separates():
    phi = np.array([[0.0, 0.0], [1.0, 0.0]])  # 0 influences 1 only
    labels = strongly_connected_components(digraph_from_phi(phi))
    assert labels.cluster_count == 2


def test_scc_labels_canonical_order():
    phi = np.zeros((3, 3))
    phi[1, 2] = phi[2, 1] = 1.0
    labels = strongly_connected_components(digraph_from_phi(phi))
    # Node 0 alone gets label 0; the {1, 2} pair gets label 1.
    assert list(labels.labels) == [0, 1, 1]


@given(n=st.integers(1, 8), seed=st.integers(0, 100_000), p=st.floats(0.05, 0.9))
@settings(max_examples=120, deadline=None)
def test_scc_matches_transitive_closure(n, seed, p):
    rng = np.random.default_rng(seed)
    adj = rng.random((n, n)) < p
    np.fill_diagonal(adj, False)
    labels = strongly_connected_components(digraph_from_phi(adj.astype(float)))
    oracle = scc_oracle_labels(adj)
    for i in range(n):
        for j in range(n):
            assert (labels.labels[i] == labels.labels[j]) == (oracle[i] == oracle[j])


@given(n=st.integers(1, 12), seed=st.integers(0, 100_000), p=st.floats(0.05, 0.9))
@settings(max_examples=60, deadline=None)
def test_scc_labels_equal_canonical_oracle(n, seed, p):
    # Cluster ids are numbered by their smallest member, exactly as the oracle does.
    rng = np.random.default_rng(seed)
    adj = rng.random((n, n)) < p
    np.fill_diagonal(adj, False)
    labels = strongly_connected_components(digraph_from_phi(adj.astype(float)))
    assert list(labels.labels) == scc_oracle_labels(adj)
    assert labels.cluster_count == max(scc_oracle_labels(adj)) + 1
    clusters = labels.clusters()
    assert len(clusters) == labels.cluster_count
    for k, members in enumerate(clusters):
        assert np.array_equal(members, np.flatnonzero(labels.labels == k))


# --- packedness ----------------------------------------------------------------


def brute_force_packed(positions, cluster, r, m):
    positions = np.asarray(positions, dtype=float)
    counts = [
        sum(
            float(np.hypot(*(positions[j] - positions[k]))) < r
            for j in range(len(positions))
        )
        for k in cluster
    ]
    members = list(cluster)
    seen = {members[0]}
    frontier = [members[0]]
    while frontier:
        cur = frontier.pop()
        for other in members:
            if other not in seen and np.hypot(*(positions[cur] - positions[other])) < r:
                seen.add(other)
                frontier.append(other)
    connected = len(seen) == len(members)
    return connected, min(counts), connected and min(counts) > m


def test_packed_singleton_cluster():
    report = is_r_densely_packed([[0.0, 0.0], [5.0, 5.0]], [0], r=1.0, m=1)
    assert report.min_ball_count == 1
    assert not report.is_packed


def test_packed_nine_point_lattice():
    # Unit spacing, r = 1.5 > sqrt(2): corner balls hold 4 points, m = 3 passes.
    xs, ys = np.meshgrid(np.arange(3.0), np.arange(3.0))
    pos = np.column_stack([xs.ravel(), ys.ravel()])
    report = is_r_densely_packed(pos, np.arange(9), r=1.5, m=3)
    assert report.connected_at_half_r
    assert report.min_ball_count == 4
    assert report.is_packed


def test_packed_fails_when_blobs_separated():
    pos = [[0.0, 0.0], [0.3, 0.0], [5.0, 0.0], [5.3, 0.0]]
    report = is_r_densely_packed(pos, [0, 1, 2, 3], r=1.0, m=1)
    assert not report.connected_at_half_r
    assert not report.is_packed


def test_packed_counts_whole_ensemble():
    # Cluster {0, 1} alone has counts of 2; outsiders push them past m = 2.
    pos = [[0.0, 0.0], [0.4, 0.0], [0.2, 0.3], [0.2, -0.3]]
    report = is_r_densely_packed(pos, [0, 1], r=1.0, m=2)
    assert report.min_ball_count == 4
    assert report.is_packed


def test_packed_empty_cluster_rejected():
    with pytest.raises(ValueError):
        is_r_densely_packed([[0.0, 0.0]], [], r=1.0, m=1)


@given(n=st.integers(2, 12), seed=st.integers(0, 100_000))
@settings(max_examples=60, deadline=None)
def test_packed_matches_brute_force(n, seed):
    rng = np.random.default_rng(seed)
    pos = rng.uniform(0, 3, (n, 2))
    k = rng.integers(1, n + 1)
    cluster = rng.choice(n, size=k, replace=False)
    report = is_r_densely_packed(pos, cluster, r=1.2, m=2)
    connected, min_count, packed = brute_force_packed(pos, cluster, 1.2, 2)
    assert report.connected_at_half_r == connected
    assert report.min_ball_count == min_count
    assert report.is_packed == packed


def test_packed_clusters_induce_symmetric_connected_digraphs():
    # Whenever a cluster is r-packed with r <= delta, its influence subgraph
    # is symmetric and one strongly connected component.
    rng = np.random.default_rng(11)
    found = 0
    for _ in range(200):
        n = int(rng.integers(4, 10))
        pos = rng.uniform(0, 2.2, (n, 2))
        m = 2
        delta = 1.4
        cluster = np.arange(n)
        if not is_r_densely_packed(pos, cluster, r=delta, m=m).is_packed:
            continue
        found += 1
        table = neighbor_sets_di(pos, delta, m)
        g = build_digraph(table, prefactor_params("per_neighbor", n))
        phi = g.toarray()
        assert np.array_equal(phi > 0, (phi > 0).T)
        labels = strongly_connected_components(g)
        assert labels.cluster_count == 1
    assert found >= 10


def test_gate_reads_whole_ensemble_packedness():
    # One SCC with every particle gated on is the brute-force delta-densely
    # packed test of the whole ensemble, on the plane and on the torus.
    delta, outcomes = 1.0, set()

    @given(
        n=st.integers(1, 24), m=st.integers(1, 4), periodic=st.booleans(),
        side=st.floats(2.05, 5.0), seed=st.integers(0, 100_000),
    )
    @settings(max_examples=300, deadline=None)
    def check(n, m, periodic, side, seed):
        domain = Domain(side) if periodic else Domain()
        x = np.random.default_rng(seed).uniform(0, side, (n, 2))
        table = NeighborSearch(ModelParams("di", n, m=m, delta=delta), domain).table(x)
        labels = strongly_connected_components(build_digraph(table, prefactor_params("flat", n)))
        rule = labels.cluster_count == 1 and bool((table.sizes() > 0).all())
        oracle = is_r_densely_packed(
            x, np.arange(n), delta, m, dist=partial(dense_distances, domain)
        )
        assert rule == oracle.is_packed
        outcomes.add(rule)

    check()
    assert outcomes == {True, False}


# --- spectra ----------------------------------------------------------------


def charpoly_lambda2(lap):
    """Second-smallest eigenvalue via the exact characteristic polynomial."""
    x = sympy.symbols("x")
    exact = sympy.Matrix([[sympy.Rational(v) for v in row] for row in np.asarray(lap)])
    poly = sympy.Poly(exact.charpoly(x).as_expr(), x)
    roots = sorted(float(r.evalf(30)) for r in poly.all_roots())
    return roots[1]


def test_fiedler_complete_graph():
    for n in (2, 3, 4, 6, 256):
        g = digraph_from_phi(np.ones((n, n)))
        assert fiedler_value(g) == pytest.approx(n, rel=1e-8)


def test_fiedler_path_graph_three_nodes():
    phi = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    assert fiedler_value(digraph_from_phi(phi)) == pytest.approx(1.0, rel=1e-10)


def test_fiedler_disconnected_blocks_zero():
    phi = np.zeros((4, 4))
    phi[0, 1] = phi[1, 0] = 1.0
    phi[2, 3] = phi[3, 2] = 1.0
    assert fiedler_value(digraph_from_phi(phi)) == pytest.approx(0.0, abs=1e-12)


def test_fiedler_rejects_asymmetric():
    phi = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        fiedler_value(digraph_from_phi(phi))


def test_fiedler_self_loops_cancel():
    base = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    looped = base + np.eye(3) * 0.7
    assert fiedler_value(digraph_from_phi(looped)) == pytest.approx(
        fiedler_value(digraph_from_phi(base)), rel=1e-12
    )


@given(n=st.integers(2, 4), seed=st.integers(0, 100_000))
@settings(max_examples=30, deadline=None)
def test_fiedler_matches_charpoly_roots(n, seed):
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.1, 2.0, (n, n))
    phi = np.triu(weights, 1) * (rng.random((n, n)) < 0.7)
    phi = phi + phi.T
    g = digraph_from_phi(phi)
    lap = np.diag(phi.sum(axis=1)) - phi
    assert fiedler_value(g) == pytest.approx(max(charpoly_lambda2(lap), 0.0), abs=1e-8)


@given(n=st.integers(3, 8), seed=st.integers(0, 100_000))
@settings(max_examples=40, deadline=None)
def test_fiedler_edge_monotonicity(n, seed):
    rng = np.random.default_rng(seed)
    phi = (rng.random((n, n)) < 0.4).astype(float)
    phi = np.triu(phi, 1)
    phi = phi + phi.T
    g = digraph_from_phi(phi)
    before = fiedler_value(g)
    i, j = sorted(rng.choice(n, 2, replace=False))
    phi2 = phi.copy()
    phi2[i, j] += 0.8
    phi2[j, i] += 0.8
    after = fiedler_value(digraph_from_phi(phi2))
    assert after >= before - 1e-10


# --- certificate and fits ------------------------------------------------------


def test_certificate_holds_case():
    cert = flocking_certificate(r=1.0, delta=2.0, m_star=1.0, lambda2=4.0)
    assert cert.threshold == pytest.approx(0.5)
    assert cert.holds


def test_certificate_strict_inequality():
    cert = flocking_certificate(r=1.0, delta=2.0, m_star=0.5, lambda2=4.0)
    assert not cert.holds


def test_certificate_requires_gap():
    cert = flocking_certificate(r=2.0, delta=2.0, m_star=100.0, lambda2=4.0)
    assert not cert.holds and cert.reason
    near = flocking_certificate(r=1.999999, delta=2.0, m_star=100.0, lambda2=4.0)
    assert near.threshold > 400000


def test_certificate_experiment_reads_packedness_and_lambda2_off_the_run():
    cert = certificate_experiment()
    table = neighbor_sets_di(lattice_state(spacing=1.0).positions, 2.0, 3)
    assert cert.packed_throughout
    assert cert.lambda2 == fiedler_value(build_digraph(table, prefactor_params("flat", 9)))


def test_decay_rate_fit_exact_exponential():
    t = np.linspace(0, 5, 40)
    assert log_linear_fit(t, np.exp(-2.0 * t))[0] == pytest.approx(-2.0, abs=1e-9)


def test_decay_rate_fit_constant():
    t = np.linspace(0, 5, 10)
    assert log_linear_fit(t, np.full(10, 3.7))[0] == pytest.approx(0.0, abs=1e-12)


def test_decay_rate_fit_recovers_certificate_rate():
    m_star, lam2 = 0.4, 2.3
    t = np.linspace(0, 8, 60)
    slope, _, r2 = log_linear_fit(t, 1.7 * np.exp(-m_star * lam2 * t))
    assert slope == pytest.approx(-m_star * lam2, abs=1e-9)
    assert r2 > 0.999999


def test_decay_rate_fit_rejects_nonpositive():
    with pytest.raises(ValueError):
        log_linear_fit([0.0, 1.0], [1.0, 0.0])
    with pytest.raises(ValueError):
        log_linear_fit([0.0], [1.0])
