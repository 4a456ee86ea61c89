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

from .domains import Domain, pair_indices
from .errors import ConfigError

MODELS = ("di", "cs")
POLICY_KINDS = ("flat", "per_neighbor", "constant")

# Prefactor conventions the models usually appear with: mean-field scaling
# for cs, per-neighbor averaging for the gated rule.
DEFAULT_POLICY = {"di": "per_neighbor", "cs": "flat"}

# Velocities differ in the unbounded plane, whatever the positions' domain.
_PLANE = Domain()


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

    @classmethod
    def _checked(cls, t: float, positions: np.ndarray, velocities: np.ndarray) -> EnsembleState:
        """A state over arrays the caller has proved float, (N, d) alike and
        finite, without the constructor's conversions and tests."""
        state = cls.__new__(cls)
        state.t, state.positions, state.velocities = t, positions, velocities
        return state

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
    skips the filter.  moved is the largest displacement of the last call's
    delayed positions from those of the last filter (0 right after one).
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
            self.moved = moved = self.domain.lengths(delayed - self.ref).max()
            if 2 * moved + self.slack < self.margin:
                return self.current
            self.drift += moved
        if self.ref is None or 2 * self.drift + self.slack >= self.skin:
            tree = self._tree(delayed)
            self.pairs = tree.query_pairs(p.delta + self.skin, output_type="ndarray").T
            self.flags, self.drift = None, 0.0
        i, j = self.pairs
        d = self.domain.distances(delayed, i, j)
        self.ref, self.moved = delayed.copy(), 0.0
        self.margin = min(np.abs(d - p.delta).min(initial=np.inf), self.skin - 2 * self.drift)
        flags = d < p.delta
        if np.array_equal(flags, self.flags):
            return self.current
        self.flags, i, j = flags, i[flags], j[flags]
        gated = 1 + np.bincount(i, minlength=N) + np.bincount(j, minlength=N) > p.m
        rows, cols = np.concatenate([i, j, np.arange(N)]), np.concatenate([j, i, np.arange(N)])
        key = np.sort((rows * N + cols)[gated[rows]])
        return self._keep(np.searchsorted(key, N * np.arange(N + 1)), key % N)

    def _tree(self, delayed: np.ndarray) -> cKDTree:
        """The kd-tree over the wrapped delayed positions.

        Raises OverflowError where the tree would refuse them: cKDTree sums
        the squared sides of its points' bounding box, each side at most half
        the box on a torus, and rejects a set whose sum overflows.
        """
        y, L = self.domain.wrap(delayed), self.domain.L
        sides = np.ptp(y, axis=0)
        if L is not None:
            sides = np.minimum(sides, 0.5 * L)
        square = 0.0
        for side in sides.tolist():  # cKDTree's order; Python floats overflow to inf
            square += side * side
        if square == math.inf:
            raise OverflowError(
                f"the delayed positions span {math.hypot(*sides):.6g}, beyond the "
                "neighbor search's squared distances"
            )
        return cKDTree(y, boxsize=L)

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


# The velocity diameter takes one of two kernels.  The domains pair kernel
# skips pdist's array-API wrapper, most of pdist's time on a few dozen points,
# and the hull cuts a larger planar set to a few dozen points.  Median us per
# call, planar velocities, 2-core x86_64 VM: the pair kernel 17 at N = 64 (26
# for pdist) and 38 at N = 128 (37), past which its gathers fall off a cache
# cliff (409 at N = 200).  Over the hull's points it takes 63 / 68 / 67 / 79 /
# 85 at N = 129 / 160 / 200 / 256 / 299, where pdist took 33 / 45 / 62 / 89 /
# 115, and 484 at N = 2048, where pdist takes 6518.  So planar sets above
# PAIR_DIAMETER_MAX_N are cut to their hull, up to 30 us slower than pdist
# below about 220 points, a band no scenario default or benchmark run reaches.
# Velocities in 3-D cross earlier (kernel 41 against pdist 31 us at N = 64);
# no scenario draws them.
PAIR_DIAMETER_MAX_N = 128


def velocity_diameter(state: EnsembleState) -> float:
    """Largest pairwise velocity difference norm; zero at consensus.

    The diameter of a point set is attained at two of its convex-hull
    vertices, so above PAIR_DIAMETER_MAX_N planar velocities only the hull's
    vertices and the points Qhull found coplanar with its facets (option Qc)
    are compared.  Up to PAIR_DIAMETER_MAX_N points Domain.squared_distances
    compares them over domains.pair_indices.  pdist is the fallback where
    that kernel cannot go: sets with d != 2 above the crossover, sets Qhull
    rejects (collinear or equal points) and larger hulls.  Either way the
    result is pdist(v).max() bit for bit: both sum each pair's squared
    differences left to right from 0, and the root, monotone and correctly
    rounded, of the largest sum is the largest root.
    """
    if state.n < 2:
        return 0.0
    v = state.velocities
    if state.n > PAIR_DIAMETER_MAX_N and v.shape[1] == 2:
        try:
            hull = ConvexHull(v, qhull_options="Qc")
        except QhullError:
            pass
        else:
            v = v[np.concatenate([hull.vertices, hull.coplanar[:, 0]])]
    if len(v) > PAIR_DIAMETER_MAX_N:
        return float(pdist(v).max())
    return math.sqrt(_PLANE.squared_distances(v, *pair_indices(len(v))).max())


def total_momentum(state: EnsembleState) -> np.ndarray:
    """Componentwise sum of all velocities."""
    return state.velocities.sum(axis=0)

