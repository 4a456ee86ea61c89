"""Interaction digraph, cluster extraction, and spectral checks.

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

from .dynamics import MPolicy, NeighborTable, member_weights


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
class FlockingCertificate:
    """Sufficient-condition check M_* > 2 / (lambda2 (delta - r))."""

    r: float
    delta: float
    m_star: float
    lambda2: float
    threshold: float
    holds: bool
    reason: str = ""


def build_digraph(table: NeighborTable, policy: MPolicy, N: int) -> csr_matrix:
    """Influence digraph Phi with phi[i, k] = M_i / M_* for k in set i.

    Phi is the coupling weights W of member_weights, CSR over the table's own
    indptr/indices, with each entry divided by M_*.
    """
    phi, _ = member_weights(table, policy, N)
    phi.data /= policy.m_star(N)
    return phi


def strongly_connected_components(phi: csr_matrix) -> ClusterLabeling:
    """SCC partition of the influence digraph Phi, labeled by ascending minimal member."""
    n, raw = connected_components(phi, directed=True, connection="strong")
    # Canonical labels: cluster ids ordered by their smallest node index.
    _, first = np.unique(raw, return_index=True)
    rank = np.empty(n, dtype=int)
    rank[np.argsort(first)] = np.arange(n)
    return ClusterLabeling(rank[raw], n)


def fiedler_value(phi: csr_matrix, cluster=None) -> float:
    """Second-smallest eigenvalue of L = D - Phi restricted to the cluster.

    Requires the restricted weight matrix to be symmetric; positive exactly
    when the restricted undirected graph is connected.
    """
    if cluster is None:
        cluster = np.arange(phi.shape[0])
    cluster = np.asarray(cluster, dtype=int)
    if cluster.size < 2:
        raise ValueError("fiedler_value needs a cluster with at least 2 nodes")
    sub = phi[cluster][:, cluster].toarray()
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
