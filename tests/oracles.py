"""Dense min-image distances, brute-force neighbor rules, the N x N masks the
package's search must reproduce table for table, the brute-force
r-densely-packed test, one-set shorthands over that search and over the
prefactor rule, a stepwise reference that runs the package's step engine under
the brute-force table, and the paper's density ratio."""
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial.distance import cdist

from densiflock import ConfigError, EnsembleState, ModelParams, NeighborSearch, NeighborTable
from densiflock.domains import Domain
from densiflock.integrate import _advance, _step_map


def dense_distances(domain, a, b):
    """The (len(a), len(b)) distances to the nearest periodic image: cdist on
    the plane; on the box axis by axis, each difference moved by L times its
    quotient rounded half to even, squared and summed in axis order."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if not domain.is_periodic:
        return cdist(a, b)
    sq = np.zeros((len(a), len(b)))
    for ak, bk in zip(a.T, b.T):
        e = np.subtract.outer(ak, bk)
        e -= np.rint(e / domain.L) * domain.L
        sq += e * e
    return np.sqrt(sq)


def table_from_mask(mask):
    """Table whose set i holds every k with mask[i, k] true, in the package's
    index dtype."""
    mask = np.asarray(mask, dtype=bool)
    itype = np.int32 if mask.size < 2**31 else np.intp
    indptr = np.zeros(len(mask) + 1, dtype=itype)
    np.cumsum(mask.sum(axis=1), out=indptr[1:])
    return NeighborTable(indptr, np.nonzero(mask)[1].astype(itype))


def dense_membership(params, delayed, dist):
    """mask[i, k] is true when k belongs to particle i's set, from one N x N
    distance matrix: di the open delta-balls of the delayed positions, gated on
    holding more than m particles (self counted); cs everyone."""
    if params.model == "cs":
        return np.ones((params.N, params.N), dtype=bool)
    inside = dist(delayed, delayed) < params.delta
    return inside & (inside.sum(axis=1) > params.m)[:, None]


@dataclass
class PackedReport:
    """Outcome of the r-densely-packed test for one cluster."""

    cluster: tuple[int, ...]
    r: float
    connected_at_half_r: bool
    min_ball_count: int
    is_packed: bool


def is_r_densely_packed(delayed_positions, cluster, r, m,
                        dist=partial(dense_distances, Domain())):
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


def dense_table(params, delayed, domain):
    return table_from_mask(dense_membership(params, delayed, partial(dense_distances, domain)))


def prefactor_params(m_policy, N, kappa=1.0):
    """Params of N particles whose prefactor rule M(N, i, #N_i) is m_policy at kappa."""
    return ModelParams("cs", N, kappa=kappa, m_policy=m_policy)


def neighbor_sets_di(delayed_positions, delta, m, domain=Domain()):
    """The package's density-gated sets of one delayed position set: k enters
    set i exactly when dist(x_k, x_i) < delta and the open ball around x_i
    holds strictly more than m particles (count includes i, so a gated
    particle always lists itself).  Below the gate the set is empty."""
    x = np.atleast_2d(np.asarray(delayed_positions, dtype=float))
    if not np.isfinite(x).all():
        raise ValueError("non-finite coordinates")
    return NeighborSearch(ModelParams("di", len(x), m=m, delta=delta), domain).table(x)


def rk4_step(state, dt, params, delayed, domain):
    """Advance one step from the delayed positions' topology; positions are
    wrapped back into a periodic box.

    The step's neighbor table (hence every gating decision) is the brute-force
    dense_table, computed once and reused by all four stages of the package's
    step map.
    """
    if not dt > 0:
        raise ValueError("dt must be > 0")
    step = int(round(state.t / dt))
    table = dense_table(params, delayed, domain)
    step_map = _step_map(table, dt, params, domain, step)
    x, v = _advance(state.positions, state.velocities, step_map, domain, step)
    return EnsembleState(state.t + dt, x, v)


def density_ratio(N: int, m: int, delta: float, L: float) -> tuple[float, float]:
    """(average density N/L^2, gating density m/(pi delta^2)) for the square box."""
    if not L > 0:
        raise ConfigError("L must be > 0")
    rho_a = N / L**2
    rho_m = m / (np.pi * delta**2)
    return rho_a, rho_m
