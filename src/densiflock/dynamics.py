"""Particle state, interaction rules, normalization policies, and diagnostics.

Four velocity-alignment rules share one state representation:

* ``di`` -- density-gated consensus: particle i is pulled toward the
  velocities of the particles inside the open ball B(x_i, delta), but only
  when that ball holds strictly more than m particles (itself included).
  Neighborhoods are evaluated on delayed positions, which the integrator
  supplies through its snapshot buffer.
* ``cs`` -- classic all-to-all alignment with weight psi(s) = (1+s)^(-alpha).
* ``cs_delta`` -- the same weight cut off at range delta (closed ball).
* ``cs_q`` -- alignment restricted to the q closest other particles.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.spatial.distance import pdist

from .domains import euclidean_distances
from .errors import ConfigError

MODELS = ("di", "cs", "cs_delta", "cs_q")
POLICY_KINDS = ("flat", "per_neighbor", "constant")

# Prefactor conventions the models usually appear with: mean-field scaling
# for cs, per-neighbor averaging for the local rules.
DEFAULT_POLICY = {
    "di": "per_neighbor",
    "cs": "flat",
    "cs_delta": "per_neighbor",
    "cs_q": "per_neighbor",
}


def alignment_weight(s, alpha: float = 0.5):
    """Communication weight (1 + s)^(-alpha) used by the cs family."""
    return (1.0 + np.asarray(s, dtype=float)) ** (-alpha)


@dataclass(frozen=True)
class MPolicy:
    """Normalization rule M(N, i, #N_i) scaling every interaction term.

    kind "flat" gives kappa/N, "per_neighbor" gives kappa/#N_i, and
    "constant" gives kappa.  Every value is strictly positive, so for a
    fixed N the infimum M_* and supremum M^* over feasible neighborhood
    sizes 1..N are positive and finite.
    """

    kind: str
    kappa: float = 1.0

    def __post_init__(self):
        if self.kind not in POLICY_KINDS:
            raise ConfigError(f"unknown m_policy {self.kind!r}")
        if not self.kappa > 0:
            raise ConfigError("kappa must be > 0")

    def values(self, N: int, sizes) -> np.ndarray:
        """M(N, i, #N_i) for each particle's set size #N_i; 0 where the set is empty."""
        sizes = np.asarray(sizes)
        if self.kind == "per_neighbor":
            return np.divide(self.kappa, sizes, out=np.zeros(len(sizes)), where=sizes > 0)
        scale = self.kappa / N if self.kind == "flat" else self.kappa
        return np.where(sizes > 0, scale, 0.0)

    def m_star(self, N: int) -> float:
        """Infimum of M over neighborhood sizes 1..N (attained at size N)."""
        return float(self.values(N, [N])[0])

    def m_sup(self, N: int) -> float:
        """Supremum of M over neighborhood sizes 1..N (attained at size 1)."""
        return float(self.values(N, [1])[0])


@dataclass
class ModelParams:
    """Model selection plus every scalar knob the interaction rules read."""

    model: str
    N: int
    kappa: float = 1.0
    m: int | None = None
    delta: float | None = None
    q: int | None = None
    alpha: float = 0.5
    m_policy: str | None = None
    h_steps: int = 1

    def __post_init__(self):
        if self.model not in MODELS:
            raise ConfigError(f"unknown model {self.model!r}")
        if self.N < 1:
            raise ConfigError("n must be >= 1")
        if not self.alpha > 0:
            raise ConfigError("alpha must be > 0")
        if self.h_steps < 1:
            raise ConfigError("h_steps must be >= 1")
        if self.m_policy is None:
            self.m_policy = DEFAULT_POLICY[self.model]
        self.policy()  # checks m_policy and kappa

        needs_delta = self.model in ("di", "cs_delta")
        if needs_delta:
            if self.delta is None or not self.delta > 0:
                raise ConfigError(f"model {self.model} requires delta > 0")
        elif self.delta is not None:
            raise ConfigError(f"model {self.model} takes no delta")

        # di weighs no distance (no alpha); the cs family reads current positions (no delay).
        if self.model == "di":
            if self.m is None or self.m < 1:
                raise ConfigError("model di requires m >= 1")
            if self.alpha != 0.5:
                raise ConfigError("model di takes no alpha")
        else:
            if self.m is not None:
                raise ConfigError(f"model {self.model} takes no m")
            if self.h_steps != 1:
                raise ConfigError(f"model {self.model} takes no h_steps")

        if self.model == "cs_q":
            if self.q is None or not 1 <= self.q <= self.N - 1:
                raise ConfigError("model cs_q requires 1 <= q <= n-1")
        elif self.q is not None:
            raise ConfigError(f"model {self.model} takes no q")

    def policy(self) -> MPolicy:
        return MPolicy(self.m_policy, self.kappa)

    def membership(self, positions: np.ndarray, delayed: np.ndarray, dist) -> np.ndarray:
        """The neighbor rule: mask[i, k] is true when k belongs to particle i's set.

        di takes the open delta-balls of the delayed positions, kept only where
        the ball holds more than m particles (self counted); cs_delta the closed
        delta-balls of the current positions; cs_q the q closest others, distance
        ties breaking toward the lower index; cs everyone (self included is
        harmless: v_i - v_i = 0).
        """
        if self.model == "di":
            inside = dist(delayed, delayed) < self.delta
            return inside & (inside.sum(axis=1) > self.m)[:, None]
        if self.model == "cs":
            return np.ones((self.N, self.N), dtype=bool)
        if self.model == "cs_delta":
            return dist(positions, positions) <= self.delta
        d = dist(positions, positions).copy()
        np.fill_diagonal(d, np.inf)
        # Stable sort keeps equal distances in index order.
        order = np.argsort(d, axis=1, kind="stable")[:, : self.q]
        mask = np.zeros(d.shape, dtype=bool)
        mask[np.arange(len(d))[:, None], order] = True
        return mask


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

    @classmethod
    def from_mask(cls, mask: np.ndarray) -> "NeighborTable":
        """Table whose set i holds every k with mask[i, k] true."""
        mask = np.asarray(mask, dtype=bool)
        # scipy.sparse's own index dtype, so CSR matrices over these arrays
        # share them; int32 would wrap once the entry count can reach 2**31.
        itype = np.int32 if mask.size < 2**31 else np.intp
        indptr = np.zeros(len(mask) + 1, dtype=itype)
        np.cumsum(mask.sum(axis=1), out=indptr[1:])
        return cls(indptr, np.nonzero(mask)[1].astype(itype))

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


def _check_positions(positions) -> np.ndarray:
    x = np.atleast_2d(np.asarray(positions, dtype=float))
    if not np.isfinite(x).all():
        raise ValueError("non-finite coordinates")
    return x


def neighbor_sets_di(
    delayed_positions, delta: float, m: int, dist=euclidean_distances
) -> NeighborTable:
    """Density-gated neighborhoods from delayed positions.

    k enters set i exactly when dist(x_k, x_i) < delta and the open ball
    around x_i holds strictly more than m particles (count includes i, so
    a gated particle always lists itself).  Below the gate the set is empty.
    """
    x = _check_positions(delayed_positions)
    params = ModelParams("di", len(x), m=m, delta=delta)
    return NeighborTable.from_mask(params.membership(x, x, dist))


def neighbor_sets_cs_delta(positions, delta: float, dist=euclidean_distances) -> NeighborTable:
    """Purely geometric neighborhoods: k in set i iff dist(x_k, x_i) <= delta (closed ball)."""
    x = _check_positions(positions)
    params = ModelParams("cs_delta", len(x), delta=delta)
    return NeighborTable.from_mask(params.membership(x, x, dist))


def neighbor_sets_cs_q(positions, q: int, dist=euclidean_distances) -> NeighborTable:
    """The q other particles closest to i; distance ties break toward the lower index."""
    x = _check_positions(positions)
    params = ModelParams("cs_q", len(x), q=q)
    return NeighborTable.from_mask(params.membership(x, x, dist))


# One coupling formula: a = (W - diag(W 1)) v, with W the membership scaled
# row-wise by M(N, i, #N_i), times psi(|x_i - x_k|) for the cs family.


def member_weights(table: NeighborTable, policy: MPolicy, N: int) -> tuple[csr_matrix, float]:
    """W[i, k] = M(N, i, #N_i) for k in set i, as CSR over the table's own
    indptr/indices, and the radius rho = max_i sum_{k != i} W_ik of the
    Gershgorin disc |z + rho| <= rho that holds the spectrum of W - diag(W 1)."""
    sizes = table.sizes()
    m = policy.values(N, sizes)
    weights = csr_matrix((np.repeat(m, sizes), table.indices, table.indptr), shape=(N, N))
    return weights, float((m * (sizes - (weights.diagonal() != 0))).max())


def velocity_diameter(state: EnsembleState) -> float:
    """Largest pairwise velocity difference norm; zero at consensus."""
    if state.n < 2:
        return 0.0
    return float(pdist(state.velocities).max())


def total_momentum(state: EnsembleState) -> np.ndarray:
    """Componentwise sum of all velocities."""
    return state.velocities.sum(axis=0)


def density_ratio(N: int, m: int, delta: float, L: float) -> tuple[float, float]:
    """(average density N/L^2, gating density m/(pi delta^2)) for the square box."""
    if not L > 0:
        raise ConfigError("L must be > 0")
    rho_a = N / L**2
    rho_m = m / (np.pi * delta**2)
    return rho_a, rho_m
