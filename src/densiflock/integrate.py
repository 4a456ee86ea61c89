"""Classic fourth-order Runge-Kutta time stepping with per-step topology.

The neighbor relation is rebuilt once per step -- from the delay buffer for
the density-gated model, from the current positions for the cs family -- and
held fixed across the four stages.  Distance weights of the cs family are
re-evaluated at the staged positions.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .domains import Domain
from .dynamics import (
    EnsembleState,
    ModelParams,
    MPolicy,
    NeighborTable,
    alignment_weight,
    cs_delta_mask,
    cs_mask,
    cs_q_mask,
    di_mask,
    member_weights,
    stage_force,
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


class DelayBuffer:
    """Ring of recent position snapshots realizing the topology delay.

    With snapshots pushed for steps 0..n, delayed() returns the snapshot of
    step max(n - h_steps, 0): the initial positions serve until the buffer
    has aged past the delay.
    """

    def __init__(self, h_steps: int, initial=None):
        if h_steps < 1:
            raise ValueError("h_steps must be >= 1")
        self._ring: deque[np.ndarray] = deque(maxlen=h_steps + 1)
        if initial is not None:
            self.push(initial)

    def push(self, positions: np.ndarray) -> None:
        self._ring.append(np.array(positions, dtype=float, copy=True))

    def delayed(self) -> np.ndarray:
        if not self._ring:
            raise ValueError("buffer holds no snapshot")
        return self._ring[0]


@dataclass(eq=False)
class TrajectorySample:
    """One recorded instant: state, topology, clusters, scalar diagnostics."""

    step: int
    t: float
    state: EnsembleState
    unwrapped: np.ndarray
    delayed_positions: np.ndarray
    table: NeighborTable
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


def _step_mask(
    params: ModelParams, positions: np.ndarray, buffer: DelayBuffer, domain: Domain
) -> np.ndarray:
    """Membership of the step that starts from these positions."""
    metric = domain.distances
    if params.model == "di":
        return di_mask(buffer.delayed(), params.delta, params.m, metric)
    if params.model == "cs":
        return cs_mask(params.N)
    if params.model == "cs_delta":
        return cs_delta_mask(positions, params.delta, metric)
    return cs_q_mask(positions, params.q, metric)


def neighbor_table_for_step(
    params: ModelParams, state: EnsembleState, buffer: DelayBuffer, domain: Domain
) -> NeighborTable:
    """Table in effect for the step starting at state.t."""
    return NeighborTable.from_mask(_step_mask(params, state.positions, buffer, domain))


# Largest c for which the Gershgorin disc |z + c| <= c lies inside the RK4
# stability region |1 + z + z^2/2 + z^3/6 + z^4/24| <= 1 (rounded down).
RK4_DISC_RADIUS = 1.3926467


def _step_force(
    mask: np.ndarray, dt: float, params: ModelParams, policy: MPolicy, domain: Domain,
    step: int,
):
    """Force a(x, v) of a step frozen under this membership mask.

    Raises IntegrationFault for the given step when dt * rho leaves the RK4
    stability disc, rho being the Gershgorin radius of the step's weights
    (psi <= 1, so it also bounds the cs family's staged weights).
    """
    weights, rho = member_weights(mask, policy, params.N)
    if dt * rho > RK4_DISC_RADIUS:
        raise IntegrationFault(
            step,
            f"unstable step {step}: h*rho = {dt * rho:.6g} exceeds the RK4 "
            f"stability limit {RK4_DISC_RADIUS}",
        )
    if params.model == "di":
        return stage_force(weights)
    metric, alpha = domain.distances, params.alpha
    return stage_force(weights, lambda pos: alignment_weight(metric(pos, pos), alpha))


def _advance(
    x: np.ndarray, v: np.ndarray, dt: float, accel, domain: Domain, step: int
):
    """One RK4 step under a frozen force: velocity stages use accel, position
    stages the staged velocities.  Returns wrapped positions and velocities.

    Raises IntegrationFault for the given step when the output is non-finite.
    """
    kv1 = accel(x, v) * dt
    kx1 = v * dt
    kv2 = accel(x + kx1 / 2, v + kv1 / 2) * dt
    kx2 = (v + kv1 / 2) * dt
    kv3 = accel(x + kx2 / 2, v + kv2 / 2) * dt
    kx3 = (v + kv2 / 2) * dt
    kv4 = accel(x + kx3, v + kv3) * dt
    kx4 = (v + kv3) * dt
    v_next = v + (kv1 + 2 * kv2 + 2 * kv3 + kv4) / 6
    x_next = x + (kx1 + 2 * kx2 + 2 * kx3 + kx4) / 6
    if not (np.isfinite(x_next).all() and np.isfinite(v_next).all()):
        raise IntegrationFault(step)
    return domain.wrap(x_next), v_next


def rk4_step(
    state: EnsembleState,
    dt: float,
    params: ModelParams,
    buffer: DelayBuffer,
    domain: Domain,
) -> EnsembleState:
    """Advance one step; positions are wrapped back into a periodic box.

    The step's neighbor table (hence every gating decision) is computed once
    and reused by all four stages.
    """
    if not dt > 0:
        raise ValueError("dt must be > 0")
    step = int(round(state.t / dt))
    mask = _step_mask(params, state.positions, buffer, domain)
    accel = _step_force(mask, dt, params, params.policy(), domain, step)
    x, v = _advance(state.positions, state.velocities, dt, accel, domain, step)
    return EnsembleState(state.t + dt, x, v)


def _sample(step, t, x, v, unwrapped, delayed, table: NeighborTable, policy) -> TrajectorySample:
    state = EnsembleState(t, x, v)
    digraph = build_digraph(table, policy, table.n)
    labels = strongly_connected_components(digraph)
    return TrajectorySample(
        step=step,
        t=t,
        state=state,
        unwrapped=unwrapped.copy(),
        delayed_positions=np.array(delayed, copy=True),
        table=table,
        labels=labels,
        vmax=velocity_diameter(state),
        momentum=total_momentum(state),
    )


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
    if not dt > 0:
        raise ValueError("dt must be > 0")
    if sample_every < 1:
        raise ValueError("sample_every must be >= 1")
    x = domain.wrap(initial.positions)
    v = initial.velocities.copy()
    n_steps = step_count(t_end, dt)
    buffer = DelayBuffer(params.h_steps, x)
    unwrapped = x.copy()
    policy = params.policy()

    record = TrajectoryRecord(spec)
    force_mask = accel = None
    for step in range(n_steps + 1):
        t = step * dt
        mask = _step_mask(params, x, buffer, domain)
        if step % sample_every == 0 or step == n_steps:
            table = NeighborTable.from_mask(mask)
            record.samples.append(
                _sample(step, t, x, v, unwrapped, buffer.delayed(), table, policy)
            )
        if step == n_steps:
            break
        # The weights depend on the mask alone, so the force is rebuilt only
        # when the topology changes.
        if not np.array_equal(mask, force_mask):
            accel = _step_force(mask, dt, params, policy, domain, step)
            force_mask = mask
        wrapped, v = _advance(x, v, dt, accel, domain, step)
        unwrapped += domain.shortest_displacement(wrapped, x)
        buffer.push(wrapped)
        x = wrapped
    return record
