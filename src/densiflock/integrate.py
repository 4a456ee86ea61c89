"""Classic fourth-order Runge-Kutta time stepping with per-step topology.

One incremental search reads the neighbor relation once per step (di from the
delayed positions; cs couples everyone); it is held fixed for the step: di by
its exact RK4 propagator, cs by four stages with distance weights at the
staged positions.  A topology epoch, a run of steps under one relation, shares
one step map, digraph and cluster labeling.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np
from scipy.sparse import csr_matrix

from .domains import Domain
from .dynamics import (
    EnsembleState,
    ModelParams,
    NeighborSearch,
    NeighborTable,
    alignment_weight,
    member_weights,
    total_momentum,
    velocity_diameter,
)
from .errors import ConfigError, IntegrationFault
from .graph import ClusterLabeling, build_digraph, strongly_connected_components

if TYPE_CHECKING:  # pragma: no cover
    from .scenarios import ScenarioSpec


def step_count(t_end: float, dt: float) -> int:
    """Number of dt steps that end exactly at t_end.

    A horizon between grid points would silently be rounded to one of them,
    so it is rejected.
    """
    steps = t_end / dt
    if not (math.isfinite(steps) and steps >= 0 and math.isclose(steps, round(steps))):
        raise ConfigError(
            f"t_end must be a finite whole number of dt steps, got t_end={t_end!r}, dt={dt!r}"
        )
    return round(steps)


@dataclass(eq=False)
class TrajectorySample:
    """One recorded instant: state, topology, clusters, scalar diagnostics.

    phi is the influence digraph the cluster labels were computed from.
    """

    step: int
    t: float
    state: EnsembleState
    delayed_positions: np.ndarray
    table: NeighborTable
    phi: csr_matrix
    labels: ClusterLabeling
    vmax: float
    momentum: np.ndarray

    @property
    def n_clusters(self) -> int:
        return self.labels.cluster_count


@dataclass(eq=False)
class TrajectoryRecord:
    """Sampled time series of one run plus the spec that produced it.

    spec is None for runs started from an explicit initial state rather than
    a declared scenario.
    """

    spec: ScenarioSpec | None
    samples: list[TrajectorySample] = field(default_factory=list)

    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.samples])

    def vmax_series(self) -> np.ndarray:
        return np.array([s.vmax for s in self.samples])

    def momentum_series(self) -> np.ndarray:
        return np.array([s.momentum for s in self.samples])


# ---------------------------------------------------------------------------
# One step engine: the topology is frozen for the step, RK4 runs under it.


# Largest c for which the Gershgorin disc |z + c| <= c lies inside the RK4
# stability region |1 + z + z^2/2 + z^3/6 + z^4/24| <= 1 (rounded down).
RK4_DISC_RADIUS = 1.3926467

# The di step map takes one of three paths.  A Horner step on the CSR hA costs
# a fixed overhead plus a share per stored entry, one on the dense hA a share
# per entry of the N x N array.  Timed on a 2-core x86_64 VM (Horner step and
# operator build, N = 11..2048, fill 0.0003..0.2), CSR wins once N^2 exceeds
# CSR_ENTRY_COST entries per stored entry plus CSR_CALL_COST; below that, and
# for every N <= 150, dense wins.  For the smallest N a Horner step is mostly
# numpy's per-call overhead (4 products and 9 elementwise calls, 8-17 us), and
# one product with the epoch's step matrix S (2N x N) takes 2-3.5 us.  Building
# S (three N x N products) adds to the epoch's step map the savings of 2.0-2.5
# steps at N = 11, 1.5-3.4 at N = 24, 3.2-4.0 at N = 32, 3.9-4.7 at N = 40,
# 6-7 at N = 64 and 21-36 at N = 128 (same VM, one BLAS thread, _step_map
# timed with either path, three runs).  Up to STEP_MATRIX_MAX_N the matrix
# pays back within about 4 steps, and a longer epoch gains 12-13 us a step.
CSR_ENTRY_COST = 8
CSR_CALL_COST = 150**2
STEP_MATRIX_MAX_N = 32


def csr_step_map(N: int, nnz: int) -> bool:
    """True when the di step map of N particles with nnz stored weights runs
    on CSR, false when it runs on the dense N x N hA."""
    return N * N > CSR_ENTRY_COST * nnz + CSR_CALL_COST


def matrix_step_map(N: int) -> bool:
    """True when the di step map of N particles is one product with the
    epoch's precomputed step matrix, whatever its table holds."""
    return N <= STEP_MATRIX_MAX_N


def _di_operator(weights: csr_matrix, dt: float):
    """hA = dt (W - diag(W 1)), on CSR over W's own structure or dense, as
    csr_step_map picks."""
    N = weights.shape[0]
    if not csr_step_map(N, weights.nnz):
        ha = weights.toarray()
        ha[np.diag_indices_from(ha)] -= ha.sum(axis=1)
        return np.multiply(ha, dt, out=ha)  # in place: one N x N array
    # Row i stores M_i at each member of its set.  A nonempty di set holds its
    # own particle (self is counted), so the diagonal entry M_i - M_i #N_i
    # is already stored, once per nonempty row, and the structure never changes.
    sizes = np.diff(weights.indptr)
    diag = weights.indices == np.repeat(np.arange(N, dtype=weights.indices.dtype), sizes)
    m = weights.data[diag]
    data = dt * weights.data
    data[diag] = dt * (m - m * sizes[sizes > 0])
    return csr_matrix((data, weights.indices, weights.indptr), shape=weights.shape)


def _step_map(table: NeighborTable, dt: float, params: ModelParams, domain: Domain, step: int):
    """One RK4 step (x, v) -> (x', v') frozen under this neighbor table.

    The di force A v, A = W - diag(W 1), ignores x, so its step is exactly
    v' = P4(hA) v, x' = x + h Q3(hA) v (Taylor polynomials of exp and phi1),
    evaluated by Horner on hA (see _di_operator), or for small N precomputed
    as one step matrix (see matrix_step_map).

    Raises IntegrationFault for the given step when dt * rho leaves the RK4
    stability disc, rho being the Gershgorin radius of the step's weights
    (psi <= 1, so it also bounds cs's staged weights).
    """
    weights, rho = member_weights(table, params)
    if dt * rho > RK4_DISC_RADIUS:
        raise IntegrationFault(
            step,
            f"unstable step {step}: h*rho = {dt * rho:.6g} exceeds the RK4 "
            f"stability limit {RK4_DISC_RADIUS}",
        )
    if params.model == "di":
        ha = _di_operator(weights, dt)
        N = table.n
        if matrix_step_map(N):
            # The same polynomials by Horner on the identity, once per epoch:
            # S = [h Q3(hA); P4(hA)] makes each step one product.
            eye = np.eye(N)
            u = eye + ha / 4
            u = eye + ha @ u / 3
            u = eye + ha @ u / 2
            s = np.vstack((dt * u, eye + ha @ u))

            def propagate(x, v):
                out = s @ v
                return x + out[:N], out[N:]

            return propagate

        def propagate(x, v):
            u = v + ha @ v / 4
            u = v + ha @ u / 3
            u = v + ha @ u / 2
            return x + dt * u, v + ha @ u

        return propagate

    # cs's all-to-all sets share one size, N, so every W_ik is M_*.
    metric, alpha, m_star = domain.distances, params.alpha, params.m_star

    def accel(x, v):  # a_i = sum_k M_* psi_ik (v_k - v_i); the diagonal cancels
        w = m_star * alignment_weight(metric(x, x), alpha)
        return w @ v - w.sum(axis=1, keepdims=True) * v

    def stages(x, v):
        kx1, kv1 = v * dt, accel(x, v) * dt
        kx2, kv2 = (v + kv1 / 2) * dt, accel(x + kx1 / 2, v + kv1 / 2) * dt
        kx3, kv3 = (v + kv2 / 2) * dt, accel(x + kx2 / 2, v + kv2 / 2) * dt
        kx4, kv4 = (v + kv3) * dt, accel(x + kx3, v + kv3) * dt
        return (x + (kx1 + 2 * kx2 + 2 * kx3 + kx4) / 6,
                v + (kv1 + 2 * kv2 + 2 * kv3 + kv4) / 6)

    return stages


def _advance(x: np.ndarray, v: np.ndarray, step_map, domain: Domain, step: int):
    """The step map's output, positions wrapped; raises IntegrationFault for
    the given step when it is non-finite."""
    x_next, v_next = step_map(x, v)
    if not (np.isfinite(x_next).all() and np.isfinite(v_next).all()):
        raise IntegrationFault(step)
    return domain.wrap(x_next), v_next


def simulate(
    initial: EnsembleState,
    params: ModelParams,
    domain: Domain,
    dt: float,
    t_end: float,
    sample_every: int = 10,
    spec: ScenarioSpec | None = None,
) -> TrajectoryRecord:
    """Integrate from an explicit initial state.

    Samples are recorded every sample_every steps; the initial and final
    steps are always included.  Deterministic: the stepper holds no
    randomness beyond the initial state.
    """
    if initial.n != params.N:
        raise ValueError("initial state particle count differs from params.N")
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be finite and > 0, got dt={dt!r}")
    if sample_every < 1:
        raise ValueError("sample_every must be >= 1")
    x = domain.wrap(initial.positions.copy())
    v = initial.velocities.copy()
    n_steps = step_count(t_end, dt)
    # The delay ring: ring[0] holds the positions of step max(step - h_steps, 0).
    ring = deque([x], maxlen=params.h_steps + 1)

    search = NeighborSearch(params, domain)
    record = TrajectoryRecord(spec)
    epoch = None
    for step in range(n_steps + 1):
        table = search.table(ring[0])
        # A topology epoch is a run of steps under one table, which the search
        # returns as one object.  The step map and the sampled Phi and labels
        # are built from it at most once per epoch, when first needed.
        if table is not epoch:
            epoch, step_map, phi = table, None, None
        if step % sample_every == 0 or step == n_steps:
            if phi is None:
                phi = build_digraph(table, params)
                labels = strongly_connected_components(phi)
            state = EnsembleState(step * dt, x, v)
            record.samples.append(TrajectorySample(
                step=step, t=state.t, state=state, delayed_positions=ring[0],
                table=table, phi=phi, labels=labels,
                vmax=velocity_diameter(state), momentum=total_momentum(state),
            ))
        if step == n_steps:
            break
        if step_map is None:
            step_map = _step_map(table, dt, params, domain, step)
        x, v = _advance(x, v, step_map, domain, step)
        ring.append(x)
    return record
