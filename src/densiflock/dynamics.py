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

from .domains import Domain, pair_indices
from .errors import ConfigError, real, whole

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
        self.N, self.h_steps = whole("n", self.N), whole("h_steps", self.h_steps)
        if self.m is not None:
            self.m = whole("m", self.m)
        self.kappa, self.alpha = real("kappa", self.kappa), real("alpha", self.alpha)
        if self.delta is not None:
            self.delta = real("delta", self.delta)
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


# All pairs or a spatial structure: up to PAIR_DIAMETER_MAX_N points the
# velocity diameter and the di search's shell compare every pair through
# domains.pair_indices and Domain.squared_distances; above it they cut the set
# first, with scipy.spatial's hull and kd-tree, which only such sets load.
# That import costs about 0.1 s.  A shell build over wrapped uniform points on
# the torus at the paper's density (L = 25 sqrt(N / 64), delta + s = 2.8),
# best of seven on a 2-core x86_64 VM, took 12 / 30 / 76 us over all pairs at
# N = 11 / 64 / 128 against 28 / 40 / 62 us through cKDTree.query_pairs, with
# the same pairs, and 570 against 133 us at N = 256.  The 14 us lost at
# N = 128 would take some 7000 builds to cost what the import does.
#
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


# Verlet skin s of the candidate shell, as a fraction of delta.
SHELL_SKIN = 0.4

# Rounding allowances, with u = 2^-53 and r(n) = 1 + 2 n u, which exceeds
# (1 + u)^n and (1 - u)^-n while n u <= 1/2.
_U = 2.0**-53


def _r(n: int) -> float:
    return 1 + 2 * n * _U


class NeighborSearch:
    """One run's neighbor rule: table(delayed) is the step's NeighborTable,
    the same object for as long as the sets hold.

    di takes the open delta-balls of the delayed positions, kept only where the
    ball holds more than m particles (self counted); cs everyone.  Every di
    call filters a Verlet shell, the pairs within delta + s, found among all
    pairs up to PAIR_DIAMETER_MAX_N particles and by scipy.spatial's kd-tree
    above it (_shell), and rebuilt once twice the bound D on each particle's
    displacement since the build reaches s.  margin is the least |d - delta|
    over the shell and s - 2 D, both at the last call, whose delayed
    positions are ref: idle_calls reads off them how many coming calls must
    return the same table, the calls that simulate's certified stretches
    skip.
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
            self.drift += math.sqrt(self.domain.squared_lengths(delayed - self.ref).max())
        if self.ref is None or 2 * self.drift + self.slack >= self.skin:
            self.pairs = self._shell(delayed)
            self.flags, self.drift = None, 0.0
        i, j = self.pairs
        d = self.domain.distances(delayed, i, j)
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

    def idle_calls(self, reach: float, limit: int) -> int:
        """How many of the next di calls, at most limit, would return the
        last call's table, given that no particle moves more than reach per
        call from that call's delayed positions, ref.  Positions that moved
        each particle from ref by at most l, where 2 l + slack < margin, flip
        no flag and rebuild no shell (the no-flip rule)."""
        # The no-flip rule's rounding.  The displacement lambda from ref, the
        # root of Domain.squared_lengths, lies within c = r(d + 2) of the true
        # length on the plane: the difference rounds by u per coordinate, the
        # squares, their sum and the root by r(d + 1).  On the box the
        # difference of two coordinates in [0, L) rounds by u L, the image
        # shift k L (|k| <= 1) is exact, the subtraction rounds by u L, and a
        # shift picked on the other side of a half box (the rounded e / L
        # within 3u of 1/2) adds 6 u L: each coordinate's magnitude is within
        # 8 u L, a length within a = 8 u L sqrt(d) before the factor c.  So
        # lambda <= c (l + a) and l <= c lambda + a for a true length l (a = 0
        # on the plane).  At the call lambda is 0, so l <= a, and k calls
        # later l <= a + k reach.  The test rounds 2 lambda + slack up by at
        # most r(1), and the float value of R (2 c (2 a + k reach) + slack)
        # takes at most 9 roundings; R = r(11) exceeds (1 + u) (1 - u)^-9, so
        # that value < margin proves k calls idle.
        d, L = self.ref.shape[1], self.domain.L
        R, c, a = _r(11), _r(d + 2), 0.0 if L is None else 8 * _U * math.sqrt(d) * L
        room = (self.margin / R - self.slack) / (2 * c) - 2 * a
        if not room > 0:
            return 0
        k = limit if room >= limit * reach else int(room / reach)
        while k and R * (2 * c * (2 * a + k * reach) + self.slack) >= self.margin:
            k -= 1
        return k

    def _shell(self, delayed: np.ndarray) -> np.ndarray:
        """The pairs i < j of the wrapped delayed positions within delta + s,
        as a (2, n) array: every pair's Domain.squared_distances against
        (delta + s)^2 up to PAIR_DIAMETER_MAX_N particles, cKDTree.query_pairs
        above it.

        Raises OverflowError where the kd-tree would refuse the positions, at
        every N: cKDTree sums the squared sides of its points' bounding box,
        each side at most half the box on a torus, and rejects a set whose sum
        overflows.
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
        reach = self.params.delta + self.skin
        if len(y) <= PAIR_DIAMETER_MAX_N:
            i, j = pair_indices(len(y))
            near = self.domain.squared_distances(y, i, j) <= reach * reach
            return np.stack((i[near], j[near]))
        from scipy.spatial import cKDTree

        return cKDTree(y, boxsize=L).query_pairs(reach, output_type="ndarray").T

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
    if state.n > PAIR_DIAMETER_MAX_N:
        from scipy.spatial import ConvexHull, QhullError
        from scipy.spatial.distance import pdist

        if v.shape[1] == 2:
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

