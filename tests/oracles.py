"""Dense brute-force neighbor rules, the N x N masks the package's search must
reproduce table for table, and one-set shorthands over that search."""
import numpy as np

from densiflock import ModelParams, NeighborSearch, NeighborTable
from densiflock.domains import Domain


def table_from_mask(mask):
    """Table whose set i holds every k with mask[i, k] true, in the package's
    index dtype."""
    mask = np.asarray(mask, dtype=bool)
    itype = np.int32 if mask.size < 2**31 else np.intp
    indptr = np.zeros(len(mask) + 1, dtype=itype)
    np.cumsum(mask.sum(axis=1), out=indptr[1:])
    return NeighborTable(indptr, np.nonzero(mask)[1].astype(itype))


def dense_membership(params, positions, delayed, dist):
    """mask[i, k] is true when k belongs to particle i's set, from one N x N
    distance matrix: di the open delta-balls of the delayed positions, gated on
    holding more than m particles (self counted); cs_delta the closed
    delta-balls of the current positions; cs_q the q closest others, ties
    toward the lower index; cs everyone."""
    if params.model == "di":
        inside = dist(delayed, delayed) < params.delta
        return inside & (inside.sum(axis=1) > params.m)[:, None]
    if params.model == "cs":
        return np.ones((params.N, params.N), dtype=bool)
    if params.model == "cs_delta":
        return dist(positions, positions) <= params.delta
    d = dist(positions, positions).copy()
    np.fill_diagonal(d, np.inf)
    # Stable sort keeps equal distances in index order.
    order = np.argsort(d, axis=1, kind="stable")[:, : params.q]
    mask = np.zeros(d.shape, dtype=bool)
    mask[np.arange(len(d))[:, None], order] = True
    return mask


def dense_table(params, positions, delayed, domain):
    return table_from_mask(dense_membership(params, positions, delayed, domain.distances))


def _one_step_table(params, positions, domain):
    x = np.atleast_2d(np.asarray(positions, dtype=float))
    return NeighborSearch(params, domain).table(x, x)


def neighbor_sets_cs_delta(positions, delta, domain=Domain.unbounded()):
    """The package's closed delta-balls of one position set."""
    return _one_step_table(ModelParams("cs_delta", len(positions), delta=delta), positions, domain)


def neighbor_sets_cs_q(positions, q, domain=Domain.unbounded()):
    """The package's q nearest others of one position set."""
    return _one_step_table(ModelParams("cs_q", len(positions), q=q), positions, domain)
