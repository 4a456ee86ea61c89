"""Classic fourth-order Runge-Kutta time stepping with per-step topology.

One incremental search reads the neighbor relation once per step (di from the
delayed positions; cs couples everyone); it is held fixed for the step: di by
its exact RK4 propagator, cs by four stages with distance weights at the
staged positions.  A topology epoch, a run of steps under one relation, shares
one step map, digraph and cluster labeling, and decides how its steps are
taken.  A certified epoch, a small di one whose step matrix has no negative
entry, is proved finite by one bound that also caps each step's move: its
steps go through _StepMatrix.advance, a stretch of them that the search need
not be asked for in one call.  Every other step goes through _advance, which
tests it for finiteness.  step_count is the one rule for a run's schedule.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np
from scipy.sparse import csr_matrix

from .domains import Domain, pair_gather, pair_indices
from .dynamics import (
    EnsembleState,
    ModelParams,
    NeighborSearch,
    NeighborTable,
    _r,
    _U,
    alignment_weight,
    member_weights,
    total_momentum,
    velocity_diameter,
)
from .errors import ConfigError, IntegrationFault, real, whole
from .graph import ClusterLabeling, build_digraph, strongly_connected_components

if TYPE_CHECKING:  # pragma: no cover
    from .scenarios import ScenarioSpec


def step_count(t_end: float, dt: float, sample_every: int) -> int:
    """Number of dt steps that end exactly at t_end: the run's schedule.

    Raises ConfigError unless dt and t_end are real numbers (errors.real), dt
    is finite and > 0, t_end is a whole number of dt steps (a horizon between
    grid points would silently be rounded to one of them) and sample_every is
    a whole number >= 1.
    """
    dt, t_end = real("dt", dt), real("t_end", t_end)
    if not 0 < dt < math.inf:
        raise ConfigError(f"dt must be finite and > 0, got dt={dt!r}")
    steps = t_end / dt
    if not (math.isfinite(steps) and steps >= 0 and math.isclose(steps, round(steps))):
        raise ConfigError(
            f"t_end must be a finite whole number of dt steps, got t_end={t_end!r}, dt={dt!r}"
        )
    if whole("sample_every", sample_every) < 1:
        raise ConfigError("sample_every must be >= 1")
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

# The di step map takes one of two paths, split at STEP_MATRIX_MAX_N.  Each
# step above it is Horner on the CSR hA: four sparse products and nine
# elementwise calls, mostly per-call overhead at small N.  Up to it an epoch
# applies that step once to [0; I], which gives the step matrix
# S = [h Q3(hA); P4(hA)] (2N x N), and each step is one product with S.
# Timed on a 2-core x86_64 VM (one BLAS thread, _step_map with either path on
# a random_clusters table at the paper's density, best of five): a Horner step
# takes 20-24 us for N = 11..150, a product with S 2-3 us up to N = 64, 5 at
# N = 96 and 7-8 at N = 128..150, building S 68-77 us up to N = 40 and 96 at
# N = 64, and that build costs what 2.2 steps save at N = 32, 3.2 at N = 64,
# 4.6 at N = 96 and 8-12 at N = 128..150.  No scenario default or benchmark
# workload has 64 < N < 2048.
STEP_MATRIX_MAX_N = 64


def matrix_step_map(N: int) -> bool:
    """True when the di step map of N particles is one product with the
    epoch's precomputed step matrix, whatever its table holds; false when it
    is Horner on the CSR hA."""
    return N <= STEP_MATRIX_MAX_N


def _di_operator(weights: csr_matrix, dt: float) -> csr_matrix:
    """hA = dt (W - diag(W 1)), W's own CSR matrix with its data scaled in
    place, so it keeps the table's indptr and indices."""
    # Row i stores M_i at each member of its set.  A nonempty di set holds its
    # own particle (self is counted), so the diagonal entry M_i - M_i #N_i
    # is already stored, once per nonempty row, and the structure never changes.
    sizes, data = np.diff(weights.indptr), weights.data
    diag = weights.indices == np.repeat(np.arange(len(sizes), dtype=weights.indices.dtype), sizes)
    m = data[diag]
    data *= dt
    data[diag] = dt * (m - m * sizes[sizes > 0])
    return weights


# Certified stretches.  Rows of A = W - diag(W 1) sum to zero, so P4(hA) and
# Q3(hA) keep the all-ones vector.  Where the epoch's computed S has no
# negative entry, every new velocity is thus a weighted average of the old
# ones, and every position step dt times one: by convexity of the norm no
# speed exceeds V, the largest at the epoch's first step, and no step moves a
# particle by more than P, about dt V.  A search call that returned the
# epoch's table leaves ref at its delayed positions, and
# NeighborSearch.idle_calls(P, ...) counts the coming calls that would return
# that table too: those steps need no call.  The bound needs the delayed
# positions to have moved under this S alone, so a stretch starts h_steps
# steps into its epoch at the earliest.
#
# The float arithmetic widens each term by these allowances (u and r(n) as in
# dynamics):
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
#   coordinate rounds, and mapping L to 0 keeps the torus point).  Let
#   X = sqrt(d) L on the box and sqrt(d) max |x| over the epoch's first
#   positions on the plane.  On the box |x| < X, so x + out and the wrap
#   round by at most u (X + O) + u X, and a step moves a particle by at most
#   r(1) O + 2 u X.  On the plane |x| <= X + n P after n steps and nothing
#   wraps, so (r(1) O + u X) / (1 - n u) bounds a step.  Hence
#   P = (r(1) O + 2 u X) / (1 - n u) bounds both, and X + (n + 1) P every
#   |x + out|.
# Each float formula here adds, multiplies, divides or raises non-negative
# numbers with at most 9 roundings, so a factor r(10) makes its value an
# upper bound.  Where the bounds on |x + out| and on the speeds are finite,
# no step of the epoch can overflow, so its finiteness test is idle too.


class _StepMatrix:
    """A small di epoch's step (x, v) -> [x'; v'] as one product with its
    step matrix S = [h Q3(hA); P4(hA)] (see matrix_step_map), and the bound
    that certifies its stretches."""

    def __init__(self, s: np.ndarray):
        self.s, self.n = s, len(s) // 2

    def __call__(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        out = self.s @ v
        y = out[: self.n]
        y += x  # the IEEE sums of x + out[:n], in out's own buffer
        return out

    def advance(self, x: np.ndarray, v: np.ndarray, k: int, ring: deque, domain: Domain):
        """k steps of a certified epoch from (x, v), each with __call__'s
        arithmetic into a fresh [x'; v'] buffer, its positions wrapped in
        place and appended to ring; returns the last step's (x, v).  No step
        is tested: certify proved them all finite."""
        s, n, periodic = self.s, self.n, domain.is_periodic
        for _ in range(k):
            out = s @ v
            y, v = out[:n], out[n:]
            y += x
            x = domain.wrap(y, in_place=True) if periodic else y
            ring.append(x)
        return x, v

    def certify(self, x: np.ndarray, v: np.ndarray, domain: Domain, steps: int) -> float | None:
        """P, a bound on how far a particle moves in any step of the steps
        left from (x, v), the epoch's first state, when S has no negative
        entry and no such step can overflow; else None."""
        s, N, d = self.s, self.n, x.shape[1]
        if not (s.min() >= 0 and steps * _U <= 0.5):
            return None
        rows = s.sum(axis=1)
        speed = math.sqrt(Domain().squared_lengths(v.copy()).max())
        try:
            growth = max(rows[N:].max() * _r(2 * N + 3), 1.0) ** steps
        except OverflowError:
            return None
        vmax = _r(10) * _r(d + 1) * speed * growth
        out = _r(2 * N + 2) * rows[:N].max() * vmax
        X = math.sqrt(d) * (domain.L if domain.is_periodic else float(np.abs(x).max()))
        reach = _r(10) * (_r(1) * out + 2 * _U * X) / (1 - steps * _U)
        top = _r(10) * (X + (steps + 1) * reach)
        return reach if math.isfinite(vmax) and math.isfinite(top) else None


def _step_map(table: NeighborTable, dt: float, params: ModelParams, domain: Domain, step: int):
    """One RK4 step (x, v) -> [x'; v'] frozen under this neighbor table, as
    one fresh (2N, d) array, so one finiteness test covers both halves.

    The di force A v, A = W - diag(W 1), ignores x, so its step is exactly
    v' = P4(hA) v, x' = x + h Q3(hA) v (Taylor polynomials of exp and phi1),
    evaluated by Horner on the CSR hA; up to STEP_MATRIX_MAX_N that step
    applied once to [0; I] gives the epoch's step matrix (see
    matrix_step_map).

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
        ha, N = _di_operator(weights, dt), table.n

        def propagate(x, v):
            u = v + ha @ v / 4
            u = v + ha @ u / 3
            u = v + ha @ u / 2
            out = np.empty((2 * N, x.shape[1]))
            np.add(x, dt * u, out=out[:N])
            np.add(v, ha @ u, out=out[N:])
            return out

        if matrix_step_map(N):  # the step applied to [0; I], once per epoch
            return _StepMatrix(propagate(np.zeros((N, N)), np.eye(N)))
        return propagate

    # cs's all-to-all sets share one size, N, so every W_ik is M_*.  IEEE
    # subtraction and the half-even image shift are antisymmetric, so the
    # computed |x_i - x_k| equals |x_k - x_i|: the weights come from the
    # N(N - 1)/2 unordered pairs, and psi(0) = 1 puts M_* on the diagonal.
    # Each stage appends M_* to the pair weights and gathers the matrix.
    alpha, m_star, N = params.alpha, params.m_star, table.n
    (i, j), gather = pair_indices(N), pair_gather(N)

    def accel(x, v):  # a_i = sum_k M_* psi_ik (v_k - v_i); the diagonal cancels
        w = m_star * alignment_weight(domain.distances(x, i, j), alpha)
        w = np.append(w, m_star).take(gather).reshape(N, N)
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


def _advance(x: np.ndarray, v: np.ndarray, step_map, domain: Domain, step: int):
    """The step map's output, positions wrapped; raises IntegrationFault for
    the given step when it is non-finite."""
    out, n = step_map(x, v), len(x)
    if not np.isfinite(out).all():
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
    randomness beyond the initial state.  step_count checks the schedule.

    A step's table is the neighbor search's for its delayed positions.  A
    certified epoch (_StepMatrix.certify) takes every step through
    _StepMatrix.advance, unchecked, and each stretch of steps that
    NeighborSearch.idle_calls finds need no search call in one call to it;
    every other step goes through _advance, checked.  Raises
    IntegrationFault when a checked step is non-finite or the search cannot
    span its delayed positions.  numpy's overflow warnings are not printed;
    a sample's velocity diameter beyond the largest float is inf.
    """
    if initial.n != params.N:
        raise ConfigError(
            f"n must equal the initial state's particle count {initial.n}, got n={params.N}"
        )
    n_steps = step_count(t_end, dt, sample_every)
    # The public checks once more, on the arrays as they are now, since no
    # sample repeats them.
    initial = EnsembleState(initial.t, initial.positions, initial.velocities)
    x = domain.wrap(initial.positions.copy(), in_place=True)
    v = initial.velocities.copy()
    # The delay ring: ring[0] holds the positions of step max(step - h_steps, 0).
    ring = deque([x], maxlen=params.h_steps + 1)

    search = NeighborSearch(params, domain)
    record = TrajectoryRecord(spec)
    epoch, quiet, step = None, -1, 0
    # One errstate for the whole run, not one per call that can overflow.
    with np.errstate(over="ignore"):
        while True:
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
                reach = (step_map.certify(x, v, domain, n_steps - step)
                         if isinstance(step_map, _StepMatrix) else None)
            if reach is not None and step > quiet and step >= first + params.h_steps:
                quiet = step + search.idle_calls(reach, n_steps - step)
            # The next step where something happens: a search call (past
            # quiet), a sample or the last.  Outside a stretch, and so in
            # every epoch that is not certified, it is the next step.
            next_sample = (step // sample_every + 1) * sample_every
            k = min(max(quiet, step) + 1, next_sample, n_steps) - step
            if reach is None:
                x, v = _advance(x, v, step_map, domain, step)
                ring.append(x)
            else:
                x, v = step_map.advance(x, v, k, ring, domain)
            step += k
    return record
