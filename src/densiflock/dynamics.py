"""Particle state, interaction rules, normalization prefactors, and diagnostics.

Two velocity-alignment rules share one state representation:

* ``di`` -- density-gated consensus: particle i is pulled toward the
  velocities of the particles inside the open ball B(x_i, delta), but only
  when that ball holds strictly more than m particles (itself included).
  Neighborhoods are evaluated on delayed positions, which the integrator
  supplies through its snapshot buffer.
* ``cs`` -- classic all-to-all alignment with weight psi(s) = (1+s)^(-alpha),
  the contrast the gated clusters are measured against.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.spatial import ConvexHull, QhullError, cKDTree
from scipy.spatial.distance import pdist

from .domains import Domain
from .errors import ConfigError

MODELS = ("di", "cs")
POLICY_KINDS = ("flat", "per_neighbor", "constant")

# Prefactor conventions the models usually appear with: mean-field scaling
# for cs, per-neighbor averaging for the gated rule.
DEFAULT_POLICY = {"di": "per_neighbor", "cs": "flat"}


def alignment_weight(s, alpha: float = 0.5):
    """Communication weight (1 + s)^(-alpha) used by cs."""
    return (1.0 + np.asarray(s, dtype=float)) ** (-alpha)


@dataclass
class ModelParams:
    """Model selection plus every scalar knob the interaction rules read."""

    model: str
    N: int
    kappa: float = 1.0
    m: int | None = None
    delta: float | None = None
    alpha: float = 0.5
    m_policy: str | None = None
    h_steps: int = 1

    def __post_init__(self):
        if self.model not in MODELS:
            raise ConfigError(f"unknown model {self.model!r}")
        if self.N < 1:
            raise ConfigError("n must be >= 1")
        # NeighborSearch.table keys each pair as row * N + col in int64.
        if self.N * self.N >= 2**63:
            raise ConfigError(f"n must keep N*N < 2**63, got N={self.N}")
        if not 0 < self.alpha < math.inf:
            raise ConfigError("alpha must be finite and > 0")
        if self.h_steps < 1:
            raise ConfigError("h_steps must be >= 1")
        # The delay ring's maxlen, h_steps + 1, must fit a Py_ssize_t.
        if self.h_steps >= sys.maxsize:
            raise ConfigError(f"h_steps must be < {sys.maxsize}")
        if self.m_policy is None:
            self.m_policy = DEFAULT_POLICY[self.model]
        if self.m_policy not in POLICY_KINDS:
            raise ConfigError(f"unknown m_policy {self.m_policy!r}")
        if not 0 < self.kappa < math.inf:
            raise ConfigError("kappa must be finite and > 0")

        # di weighs no distance (no alpha); cs couples everyone (no delta, no
        # gate) at the current positions (no delay).
        if self.model == "di":
            if self.delta is None or not 0 < self.delta < math.inf:
                raise ConfigError("model di requires a finite delta > 0")
            if self.m is None or self.m < 1:
                raise ConfigError("model di requires m >= 1")
            if self.alpha != 0.5:
                raise ConfigError("model di takes no alpha")
        else:
            if self.delta is not None:
                raise ConfigError("model cs takes no delta")
            if self.m is not None:
                raise ConfigError("model cs takes no m")
            if self.h_steps != 1:
                raise ConfigError("model cs takes no h_steps")

    def prefactors(self, sizes) -> np.ndarray:
        """M(N, i, #N_i) for each particle's set size #N_i; 0 where the set is empty.

        m_policy "flat" gives kappa/N, "per_neighbor" kappa/#N_i, and
        "constant" kappa.  Every value is strictly positive, so the infimum
        M_* over feasible set sizes 1..N is positive and finite.
        """
        sizes = np.asarray(sizes)
        if self.m_policy == "per_neighbor":
            return np.divide(self.kappa, sizes, out=np.zeros(len(sizes)), where=sizes > 0)
        scale = self.kappa / self.N if self.m_policy == "flat" else self.kappa
        return np.where(sizes > 0, scale, 0.0)

    @property
    def m_star(self) -> float:
        """Infimum of M over set sizes 1..N (attained at size N)."""
        return float(self.prefactors([self.N])[0])


@dataclass
class EnsembleState:
    """Positions and velocities of N particles in d dimensions at time t."""

    t: float
    positions: np.ndarray
    velocities: np.ndarray

    def __post_init__(self):
        self.positions = np.atleast_2d(np.asarray(self.positions, dtype=float))
        self.velocities = np.atleast_2d(np.asarray(self.velocities, dtype=float))
        if self.positions.shape != self.velocities.shape:
            raise ValueError("positions and velocities must have identical shape")
        if self.positions.ndim != 2 or min(self.positions.shape) < 1:
            raise ValueError("state requires N >= 1 particles in d >= 1 dimensions")
        if not (np.isfinite(self.positions).all() and np.isfinite(self.velocities).all()):
            raise ValueError("non-finite coordinates in state")

    @property
    def n(self) -> int:
        return self.positions.shape[0]


@dataclass(eq=False)
class NeighborTable:
    """Per-particle neighbor index sets in compressed sparse row (CSR) form.

    Set i is indices[indptr[i]:indptr[i + 1]], sorted ascending.
    """

    indptr: np.ndarray
    indices: np.ndarray

    @property
    def n(self) -> int:
        return len(self.indptr) - 1

    def sizes(self) -> np.ndarray:
        return np.diff(self.indptr)

    def contains(self, i: int, k: int) -> bool:
        """True when particle k belongs to the neighbor set of particle i."""
        s = self.indices[self.indptr[i] : self.indptr[i + 1]]
        j = np.searchsorted(s, k)
        return bool(j < len(s) and s[j] == k)


# Verlet skin s of the candidate shell, as a fraction of delta.
SHELL_SKIN = 0.4


class NeighborSearch:
    """One run's neighbor rule: table(delayed) is the step's NeighborTable,
    the same object for as long as the sets hold.

    di takes the open delta-balls of the delayed positions, kept only where the
    ball holds more than m particles (self counted); cs everyone.  di filters
    a Verlet shell, the kd-tree's pairs within delta + s, rebuilt once twice
    the bound D on each particle's displacement since the build reaches s.  A
    step that moved no particle by half the margin (the least |d - delta| over
    the shell and s - 2 D, both at the last filter) can flip no flag, so it
    skips the filter.
    """

    def __init__(self, params: ModelParams, domain: Domain):
        self.params, self.domain, self.current, self.ref = params, domain, None, None
        self.skin = SHELL_SKIN * (params.delta or 0.0)
        self.slack = 1e-9 * (params.delta or 0.0) * (1 + SHELL_SKIN)
        # scipy.sparse's own index dtype, so CSR matrices over the table's
        # arrays share them; int32 would wrap once the entry count can reach 2**31.
        self.itype = np.int32 if params.N**2 < 2**31 else np.intp

    def table(self, delayed: np.ndarray) -> NeighborTable:
        p, N = self.params, self.params.N
        if p.model == "cs":
            return self.current or self._keep(N * np.arange(N + 1), np.tile(np.arange(N), N))
        if self.ref is not None:
            moved = self.domain.lengths(delayed - self.ref).max()
            if 2 * moved + self.slack < self.margin:
                return self.current
            self.drift += moved
        if self.ref is None or 2 * self.drift + self.slack >= self.skin:
            tree = cKDTree(self.domain.wrap(delayed), boxsize=self.domain.L)
            self.pairs = tree.query_pairs(p.delta + self.skin, output_type="ndarray").T
            self.flags, self.drift = None, 0.0
        i, j = self.pairs
        d = self.domain.pair_distances(delayed, i, j)
        self.ref = delayed.copy()
        self.margin = min(np.abs(d - p.delta).min(initial=np.inf), self.skin - 2 * self.drift)
        flags = d < p.delta
        if np.array_equal(flags, self.flags):
            return self.current
        self.flags, i, j = flags, i[flags], j[flags]
        gated = 1 + np.bincount(i, minlength=N) + np.bincount(j, minlength=N) > p.m
        rows, cols = np.concatenate([i, j, np.arange(N)]), np.concatenate([j, i, np.arange(N)])
        key = np.sort((rows * N + cols)[gated[rows]])
        return self._keep(np.searchsorted(key, N * np.arange(N + 1)), key % N)

    def _keep(self, indptr: np.ndarray, indices: np.ndarray) -> NeighborTable:
        """The current table when it holds these sets, else a new one."""
        t = self.current
        same = t is not None and np.array_equal(t.indptr, indptr)
        if not (same and np.array_equal(t.indices, indices)):
            self.current = NeighborTable(indptr.astype(self.itype), indices.astype(self.itype))
        return self.current


# One coupling formula: a = (W - diag(W 1)) v, with W the membership scaled
# row-wise by M(N, i, #N_i), times psi(|x_i - x_k|) for cs.


def member_weights(table: NeighborTable, params: ModelParams) -> tuple[csr_matrix, float]:
    """W[i, k] = M(N, i, #N_i) for k in set i, as CSR over the table's own
    indptr/indices, and the radius rho = max_i sum_{k != i} W_ik of the
    Gershgorin disc |z + rho| <= rho that holds the spectrum of W - diag(W 1)."""
    sizes, N = table.sizes(), table.n
    m = params.prefactors(sizes)
    weights = csr_matrix((np.repeat(m, sizes), table.indices, table.indptr), shape=(N, N))
    return weights, float((m * (sizes - (weights.diagonal() != 0))).max())


# Fewest planar velocities for which the hull's pdist beats the full one
# (timed on a 2-core x86_64 VM: 111 against 120 us at N = 256, 177 against
# 155 us at N = 320, 6.8 against 0.54 ms at N = 2048).
HULL_DIAMETER_MIN_N = 300


def velocity_diameter(state: EnsembleState) -> float:
    """Largest pairwise velocity difference norm; zero at consensus.

    The diameter of a point set is attained at two of its convex-hull
    vertices, so above HULL_DIAMETER_MIN_N planar velocities pdist runs only
    over the hull's vertices and the points Qhull found coplanar with its
    facets (option Qc): the same pdist entry, bit for bit.  Qhull rejects
    fewer than 3 points and collinear or equal ones; those take the full pdist.
    """
    if state.n < 2:
        return 0.0
    v = state.velocities
    if state.n >= HULL_DIAMETER_MIN_N and v.shape[1] == 2:
        try:
            hull = ConvexHull(v, qhull_options="Qc")
        except QhullError:
            pass
        else:
            v = v[np.concatenate([hull.vertices, hull.coplanar[:, 0]])]
    return float(pdist(v).max())


def total_momentum(state: EnsembleState) -> np.ndarray:
    """Componentwise sum of all velocities."""
    return state.velocities.sum(axis=0)

