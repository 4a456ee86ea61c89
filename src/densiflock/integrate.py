"""Classic fourth-order Runge-Kutta time stepping with per-step topology.

One incremental search reads the neighbor relation once per step (di from the
delayed positions; cs couples everyone); it is held fixed for the step: di by
its exact RK4 propagator, cs by four stages with distance weights at the
staged positions.  A topology epoch, a run of steps under one relation, shares
one step map, digraph and cluster labeling.  In a small di epoch whose step
matrix has no negative entry no speed can grow, so one bound proves every
step finite, and after a search call how many coming calls would return the
same table: those steps, a certified stretch, skip the search.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np
from scipy.sparse import csr_matrix
from scipy.spatial.distance import squareform

from .domains import Domain, pair_indices
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


# Certified stretches.  Rows of A = W - diag(W 1) sum to zero, so P4(hA) and
# Q3(hA) keep the all-ones vector.  Where the epoch's computed S has no
# negative entry, every new velocity is thus a weighted average of the old
# ones, and every position step dt times one: by convexity of the norm no
# speed exceeds V, the largest at the epoch's first step, and no step moves a
# particle by more than about dt V.  After a search call that returned the
# epoch's table, its skip test 2 moved + slack < margin then holds for the k
# coming calls for which 2 (moved + k dt V) + slack < margin, so those k
# steps need no call: the search would return the same table.  The bound needs
# the delayed positions to have moved under this S alone, so a stretch starts
# h_steps steps into its epoch at the earliest.
#
# The float arithmetic widens each term by these allowances, with u = 2^-53
# and r(n) = 1 + 2 n u, which exceeds (1 + u)^n and (1 - u)^-n while
# n u <= 1/2:
# * a row of S: the exact sum of its N entries is at most r(N) times the
#   computed one (sigma_T, sigma_B the largest of the top and bottom halves);
# * the product S @ v: each entry lies within r(N) - 1 times
#   sum_k S_ik |v_kc| of that sum, so |v'_i| <= r(2N + 2) sigma_B max |v_k|
#   and the position step out_i is at most O = r(2N + 2) sigma_T max |v_k|;
# * V, computed from d squares, their sum and a root: r(d + 1) V bounds the
#   speeds, and r(d + 1) V (r(2N + 3) sigma_B)^n those of the n steps left
#   (the base raised by one more r(1), since the power multiplies its rounding
#   by n);
# * x + out rounds each coordinate by u |x + out|, and Domain.wrap moves it by
#   at most u L (np.mod's fmod is exact; only the + L of a negative
#   coordinate rounds, and mapping L to 0 keeps the torus point).  A step so
#   moves a particle by at most P = r(1) O + 2 u sqrt(d) L on the box, where
#   |x| < sqrt(d) L, and on the plane, where |x| <= sqrt(d) X + n P with X the
#   largest coordinate at the epoch's first step, by
#   P = (r(1) O + u sqrt(d) X) / (1 - n u);
# * Domain.lengths, the search's displacement: on the plane the difference
#   rounds by u per coordinate, and the squares, their sum and the root by
#   r(d + 1), so the computed length lies within c = r(d + 2) of the true one.
#   On the box the difference of two coordinates in [0, L) rounds by u L, the
#   image shift k L (|k| <= 1) is exact, the subtraction rounds by u L, and a
#   shift picked on the other side of a half box (the rounded e / L within
#   3u of 1/2) adds 6 u L: each coordinate's magnitude is within 8 u L, a
#   length within a = 8 u L sqrt(d) before the factor c.  So
#   lambda <= c (l + a) and l <= c lambda + a for a true length l and its
#   computed lambda (a = 0 on the plane), and k steps later l <= l_0 + k P by
#   the triangle inequality;
# * the search's test rounds 2 lambda + slack up by at most r(1).
# Hence R (2 c (c moved + 2 a + k P) + slack) < margin proves k calls idle.
# Each float formula here adds, multiplies, divides or raises non-negative
# numbers with at most 9 roundings, so a factor r(10) makes its value an
# upper bound; R = r(11) exceeds (1 + u) (1 - u)^-9 and so covers both that
# and the test's rounding.  Where the bounds on |x + out| and on the speeds
# are finite, no step of the epoch can overflow, so its finiteness test is
# idle too.
_U = 2.0**-53


def _r(n: int) -> float:
    return 1 + 2 * n * _U


class _StepMatrix:
    """A small di epoch's step (x, v) -> [x'; v'] as one product with its
    step matrix S = [h Q3(hA); P4(hA)] (see matrix_step_map), and the bound
    that certifies its stretches."""

    def __init__(self, s: np.ndarray):
        self.s, self.n = s, len(s) // 2

    def __call__(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        out = self.s @ v
        out[: self.n] += x  # the IEEE sums of x + out[:n], in out's own buffer
        return out

    def certify(self, x: np.ndarray, v: np.ndarray, domain: Domain, steps: int) -> bool:
        """True when S has no negative entry and no step of the steps left
        from (x, v), the epoch's first state, can overflow or move a particle
        by more than self.reach."""
        s, N, d = self.s, self.n, x.shape[1]
        if not (s.min() >= 0 and steps * _U <= 0.5):
            return False
        rows = s.sum(axis=1)
        speed = math.sqrt(Domain().squared_lengths(v.copy()).max())
        try:
            growth = max(rows[N:].max() * _r(2 * N + 3), 1.0) ** steps
        except OverflowError:
            return False
        vmax = _r(10) * _r(d + 1) * speed * growth
        out = _r(2 * N + 2) * rows[:N].max() * vmax
        root_d = math.sqrt(d)
        if domain.is_periodic:
            self.a = 8 * _U * root_d * domain.L
            self.reach = _r(10) * (_r(1) * out + 2 * _U * root_d * domain.L)
            top = _r(10) * (root_d * domain.L + self.reach)
        else:
            X = root_d * float(np.abs(x).max())
            self.a = 0.0
            self.reach = _r(10) * (_r(1) * out + _U * X) / (1 - steps * _U)
            top = _r(10) * (X + (steps + 1) * self.reach)
        self.c = _r(d + 2)
        return math.isfinite(vmax) and math.isfinite(top)

    def idle_steps(self, search: NeighborSearch, steps: int) -> int:
        """How many of the next steps (at most steps) need no search call,
        the search's last call having returned this certified epoch's table."""
        R, c, a, reach = _r(11), self.c, self.a, self.reach
        moved, margin, slack = search.moved, search.margin, search.slack
        room = (margin / R - slack) / (2 * c) - c * moved - 2 * a
        if not room > 0:
            return 0
        k = steps if room >= steps * reach else int(room / reach)
        while k and R * (2 * c * (c * moved + 2 * a + k * reach) + slack) >= margin:
            k -= 1
        return k


def _step_map(table: NeighborTable, dt: float, params: ModelParams, domain: Domain, step: int):
    """One RK4 step (x, v) -> [x'; v'] frozen under this neighbor table, as
    one fresh (2N, d) array, so one finiteness test covers both halves.

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
            return _StepMatrix(np.vstack((dt * u, eye + ha @ u)))

        def propagate(x, v):
            u = v + ha @ v / 4
            u = v + ha @ u / 3
            u = v + ha @ u / 2
            out = np.empty((2 * N, x.shape[1]))
            np.add(x, dt * u, out=out[:N])
            np.add(v, ha @ u, out=out[N:])
            return out

        return propagate

    # cs's all-to-all sets share one size, N, so every W_ik is M_*.  IEEE
    # subtraction and the half-even image shift are antisymmetric, so the
    # computed |x_i - x_k| equals |x_k - x_i|: the weights come from the
    # N(N - 1)/2 unordered pairs, and psi(0) = 1 puts M_* on the diagonal.
    alpha, m_star = params.alpha, params.m_star
    i, j = pair_indices(table.n)

    def accel(x, v):  # a_i = sum_k M_* psi_ik (v_k - v_i); the diagonal cancels
        w = squareform(m_star * alignment_weight(domain.distances(x, i, j), alpha), checks=False)
        np.fill_diagonal(w, m_star)
        return w @ v - w.sum(axis=1, keepdims=True) * v

    def stages(x, v):
        kx1, kv1 = v * dt, accel(x, v) * dt
        u2 = v + kv1 / 2
        kx2, kv2 = u2 * dt, accel(x + kx1 / 2, u2) * dt
        u3 = v + kv2 / 2
        kx3, kv3 = u3 * dt, accel(x + kx2 / 2, u3) * dt
        u4 = v + kv3
        kx4, kv4 = u4 * dt, accel(x + kx3, u4) * dt
        return np.vstack((x + (kx1 + 2 * kx2 + 2 * kx3 + kx4) / 6,
                          v + (kv1 + 2 * kv2 + 2 * kv3 + kv4) / 6))

    return stages


def _advance(x: np.ndarray, v: np.ndarray, step_map, domain: Domain, step: int,
             checked: bool = True):
    """The step map's output, positions wrapped; raises IntegrationFault for
    the given step when it is non-finite, tested unless a bound proved it
    finite (checked false)."""
    out, n = step_map(x, v), len(x)
    if checked and not np.isfinite(out).all():
        raise IntegrationFault(step)
    # Wrapped in place: a sample's x' and v' are the two halves of one buffer.
    return domain.wrap(out[:n], in_place=True), out[n:]


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

    Each step asks the neighbor search for its table, and raises
    IntegrationFault when its result is non-finite or when the search cannot
    span its delayed positions.  On the step-matrix path
    (matrix_step_map) an epoch whose S has no negative entry is certified
    instead: velocities are weighted averages, so no speed exceeds the
    largest at the epoch's first step, and where the positions this allows
    stay finite a non-finite step is impossible by the bound and is not
    tested for.  From h_steps steps into such an epoch, each search call
    starts a stretch of the coming steps whose delayed positions cannot have
    moved far enough to fail the search's skip test; those steps are not
    asked, since the search would return the same table.  Either way the
    results are the same bit for bit.  numpy's overflow warnings are not
    printed: an overflowing step raises IntegrationFault, and a sample's
    velocity diameter beyond the largest float is inf.
    """
    if initial.n != params.N:
        raise ValueError("initial state particle count differs from params.N")
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be finite and > 0, got dt={dt!r}")
    if sample_every < 1:
        raise ValueError("sample_every must be >= 1")
    # The public checks once more, on the arrays as they are now, since no
    # sample repeats them.
    initial = EnsembleState(initial.t, initial.positions, initial.velocities)
    x = domain.wrap(initial.positions.copy())
    v = initial.velocities.copy()
    n_steps = step_count(t_end, dt)
    # The delay ring: ring[0] holds the positions of step max(step - h_steps, 0).
    ring = deque([x], maxlen=params.h_steps + 1)

    search = NeighborSearch(params, domain)
    record = TrajectoryRecord(spec)
    epoch, quiet = None, -1
    # One errstate for the whole run, not one per call that can overflow.
    with np.errstate(over="ignore"):
        for step in range(n_steps + 1):
            # Steps up to quiet lie in a certified stretch: the search would
            # return the epoch's table, so it is not asked.
            if step > quiet:
                try:
                    table = search.table(ring[0])
                except OverflowError as exc:
                    raise IntegrationFault(step, f"step {step}: {exc}") from exc
            # A topology epoch is a run of steps under one table, which the
            # search returns as one object.  The step map and the sampled Phi
            # and labels are built from it at most once per epoch, when first
            # needed.
            if table is not epoch:
                epoch, first, step_map, phi = table, step, None, None
            if step % sample_every == 0 or step == n_steps:
                if phi is None:
                    phi = build_digraph(table, params)
                    labels = strongly_connected_components(phi)
                # x and v passed the initial state's checks, _advance's or the
                # certificate's, so the sample skips the constructor's.
                state = EnsembleState._checked(step * dt, x, v)
                record.samples.append(TrajectorySample(
                    step=step, t=state.t, state=state, delayed_positions=ring[0],
                    table=table, phi=phi, labels=labels,
                    vmax=velocity_diameter(state), momentum=total_momentum(state),
                ))
            if step == n_steps:
                break
            if step_map is None:
                step_map = _step_map(table, dt, params, domain, step)
                certified = isinstance(step_map, _StepMatrix) and step_map.certify(
                    x, v, domain, n_steps - step
                )
            if certified and step > quiet and step >= first + params.h_steps:
                quiet = step + step_map.idle_steps(search, n_steps - step)
            x, v = _advance(x, v, step_map, domain, step, checked=not certified)
            ring.append(x)
    return record
