"""Interaction digraph, cluster extraction, packedness, and spectral checks.

The coupling a_i = sum_k M_i (v_k - v_i) is rewritten as v' = -M_* (D - Phi) v
with Phi[i, k] = M_i / M_* on the neighbor relation and D the M-scaled degree
matrix.  Clusters are strongly connected components of that digraph; for
symmetric restrictions the second Laplacian eigenvalue sets the consensus rate.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .domains import euclidean_distances
from .dynamics import MPolicy, NeighborTable


@dataclass(eq=False)
class InteractionDigraph:
    """Sparse weight matrix Phi (who influences whom) and M-scaled degree vector."""

    n: int
    phi: csr_matrix
    degrees: np.ndarray


@dataclass(eq=False)
class ClusterLabeling:
    """Partition labels: two nodes share a label iff mutually reachable."""

    labels: np.ndarray
    cluster_count: int

    def clusters(self) -> list[np.ndarray]:
        """Member indices of each cluster in id order, ascending within a cluster."""
        order = np.argsort(self.labels, kind="stable")
        return np.split(order, np.cumsum(self.sizes())[:-1])

    def sizes(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.cluster_count)


@dataclass
class PackedReport:
    """Outcome of the r-densely-packed test for one cluster."""

    cluster: tuple[int, ...]
    r: float
    connected_at_half_r: bool
    min_ball_count: int
    is_packed: bool


@dataclass
class FlockingCertificate:
    """Sufficient-condition check M_* > 2 / (lambda2 (delta - r))."""

    r: float
    delta: float
    m_star: float
    lambda2: float
    threshold: float
    holds: bool
    reason: str = ""


def build_digraph(table: NeighborTable, policy: MPolicy, N: int) -> InteractionDigraph:
    """Digraph with phi[i, k] = M_i / M_* for k in set i; degrees are M-scaled set sizes.

    Phi is CSR over the table's own indptr/indices.
    """
    m_star = policy.m_star(N)
    sizes = table.sizes()
    mvals = policy.values(N, sizes)
    data = np.repeat(mvals / m_star, sizes)
    phi = csr_matrix((data, table.indices, table.indptr), shape=(N, N))
    return InteractionDigraph(N, phi, sizes * mvals / m_star)


def strongly_connected_components(g: InteractionDigraph) -> ClusterLabeling:
    """SCC partition of the influence digraph, labeled by ascending minimal member."""
    n, raw = connected_components(g.phi, directed=True, connection="strong")
    # Canonical labels: cluster ids ordered by their smallest node index.
    _, first = np.unique(raw, return_index=True)
    rank = np.empty(n, dtype=int)
    rank[np.argsort(first)] = np.arange(n)
    return ClusterLabeling(rank[raw], n)


def is_r_densely_packed(
    delayed_positions,
    cluster,
    r: float,
    m: int,
    dist=euclidean_distances,
) -> PackedReport:
    """Test whether a cluster is r-densely packed.

    Condition 1 -- the positions thickened by open balls of radius r/2 form a
    connected set; equivalently the graph on the cluster with edges
    dist < r is connected.  Condition 2 -- every open ball B(x_k, r), k in the
    cluster, holds strictly more than m ensemble particles (the count runs
    over the whole ensemble, not only the cluster).
    """
    if not r > 0:
        raise ValueError("r must be > 0")
    cluster = np.asarray(cluster, dtype=int)
    if cluster.size == 0:
        raise ValueError("cluster must be nonempty")
    x = np.atleast_2d(np.asarray(delayed_positions, dtype=float))

    to_all = dist(x[cluster], x)
    min_ball_count = int((to_all < r).sum(axis=1).min())

    within = to_all[:, cluster] < r
    n_comp, _ = connected_components(csr_matrix(within), directed=False)
    connected = bool(n_comp == 1)

    return PackedReport(
        cluster=tuple(int(i) for i in cluster),
        r=float(r),
        connected_at_half_r=connected,
        min_ball_count=min_ball_count,
        is_packed=connected and min_ball_count > m,
    )


def _dense_block(phi: csr_matrix, nodes: np.ndarray) -> np.ndarray:
    """phi[nodes][:, nodes] as a dense array, read from the CSR arrays."""
    local = np.full(phi.shape[1], -1)
    local[nodes] = np.arange(len(nodes))
    starts = phi.indptr[nodes]
    lengths = phi.indptr[nodes + 1] - starts
    rows = np.repeat(np.arange(len(nodes)), lengths)
    # Where each selected row's entries sit in indices/data.
    pos = np.arange(lengths.sum()) + np.repeat(starts - np.cumsum(lengths) + lengths, lengths)
    cols = local[phi.indices[pos]]
    keep = cols >= 0
    block = np.zeros((len(nodes), len(nodes)))
    block[rows[keep], cols[keep]] = phi.data[pos[keep]]
    return block


def fiedler_value(g: InteractionDigraph, cluster=None) -> float:
    """Second-smallest eigenvalue of L = D - Phi restricted to the cluster.

    Requires the restricted weight matrix to be symmetric; positive exactly
    when the restricted undirected graph is connected.
    """
    if cluster is None:
        cluster = np.arange(g.n)
    cluster = np.asarray(cluster, dtype=int)
    if cluster.size < 2:
        raise ValueError("fiedler_value needs a cluster with at least 2 nodes")
    sub = _dense_block(g.phi, cluster)
    scale = max(1.0, float(np.abs(sub).max()))
    if np.abs(sub - sub.T).max() > 1e-12 * scale:
        raise ValueError("cluster restriction of the weight matrix is not symmetric")
    # Row sums minus the matrix: diagonal entries (self-loops) cancel exactly.
    lap = np.diag(sub.sum(axis=1)) - sub
    eigs = np.linalg.eigvalsh(lap)
    return float(max(eigs[1], 0.0))


def flocking_certificate(
    r: float, delta: float, m_star: float, lambda2: float
) -> FlockingCertificate:
    """Evaluate the exponential-flocking sufficient condition."""
    if not r > 0:
        raise ValueError("r must be > 0")
    if r >= delta:
        return FlockingCertificate(
            r, delta, m_star, lambda2, float("inf"), False, "requires r < delta"
        )
    if not lambda2 > 0:
        return FlockingCertificate(
            r, delta, m_star, lambda2, float("inf"), False, "requires lambda2 > 0"
        )
    threshold = 2.0 / (lambda2 * (delta - r))
    holds = m_star > threshold
    reason = "" if holds else "m_star below threshold"
    return FlockingCertificate(r, delta, m_star, lambda2, threshold, holds, reason)


def log_linear_fit(times, values) -> tuple[float, float, float]:
    """Least-squares fit of log(values) vs times: (slope, intercept, r_squared)."""
    t = np.asarray(times, dtype=float)
    y = np.asarray(values, dtype=float)
    if len(t) < 2 or len(t) != len(y):
        raise ValueError("need at least two (t, value) samples")
    if not (y > 0).all():
        raise ValueError("values must be strictly positive")
    logy = np.log(y)
    slope, intercept = np.polyfit(t, logy, 1)
    resid = logy - (slope * t + intercept)
    ss_tot = ((logy - logy.mean()) ** 2).sum()
    r2 = 1.0 if ss_tot == 0 else 1.0 - (resid**2).sum() / ss_tot
    return float(slope), float(intercept), float(r2)
