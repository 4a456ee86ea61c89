"""Classic fourth-order Runge-Kutta time stepping with per-step topology.

The neighbor relation is rebuilt once per step -- from the delay buffer for
the density-gated model, from the current positions for the cs family -- and
held fixed across the four stages.  Distance weights of the cs family are
re-evaluated at the staged positions.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .domains import Domain
from .dynamics import (
    EnsembleState,
    ModelParams,
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
from .errors import IntegrationFault
from .graph import ClusterLabeling, build_digraph, strongly_connected_components
from .scenarios import ScenarioSpec, initial_state, step_count


class DelayBuffer:
    """Ring of recent position snapshots realizing the topology delay.

    With snapshots pushed for steps 0..n, delayed() returns the snapshot of
    step max(n - h_steps, 0): the initial positions serve until the buffer
    has aged past the delay.
    """

    def __init__(self, h_steps: int, initial=None, t0: float = 0.0):
        if h_steps < 1:
            raise ValueError("h_steps must be >= 1")
        self.h_steps = h_steps
        self._ring: deque[tuple[float, np.ndarray]] = deque(maxlen=h_steps + 1)
        if initial is not None:
            self.push(initial, t0)

    def push(self, positions: np.ndarray, t: float = 0.0) -> None:
        self._ring.append((float(t), np.array(positions, dtype=float, copy=True)))

    def delayed(self) -> np.ndarray:
        if not self._ring:
            raise ValueError("buffer holds no snapshot")
        return self._ring[0][1]

    def delayed_time(self) -> float:
        """Time of the snapshot delayed() returns."""
        if not self._ring:
            raise ValueError("buffer holds no snapshot")
        return self._ring[0][0]


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

    @property
    def seed(self) -> int | None:
        return self.spec.seed if self.spec is not None else None

    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.samples])

    def vmax_series(self) -> np.ndarray:
        return np.array([s.vmax for s in self.samples])

    def momentum_series(self) -> np.ndarray:
        return np.array([s.momentum for s in self.samples])

    def cluster_counts(self) -> np.ndarray:
        return np.array([s.n_clusters for s in self.samples])


# ---------------------------------------------------------------------------
# One step engine: the topology is frozen for the step, RK4 runs under it.


def _step_mask(
    params: ModelParams, positions: np.ndarray, buffer: DelayBuffer, domain: Domain, t: float
) -> tuple[np.ndarray, float]:
    """Membership of the step starting at time t, and the time its positions date from."""
    metric = domain.distances
    if params.model == "di":
        return di_mask(buffer.delayed(), params.delta, params.m, metric), buffer.delayed_time()
    if params.model == "cs":
        return cs_mask(params.N), t
    if params.model == "cs_delta":
        return cs_delta_mask(positions, params.delta, metric), t
    return cs_q_mask(positions, params.q, metric), t


def neighbor_table_for_step(
    params: ModelParams, state: EnsembleState, buffer: DelayBuffer, domain: Domain
) -> NeighborTable:
    """Table in effect for the step starting at state.t."""
    return NeighborTable.from_mask(*_step_mask(params, state.positions, buffer, domain, state.t))


def _stage_force(params: ModelParams, mask: np.ndarray, domain: Domain):
    """Stage-callable a(x, v) with the step's membership frozen."""
    weights = member_weights(mask, params.policy(), params.N)
    if params.model == "di":
        return stage_force(weights)
    metric, alpha = domain.distances, params.alpha
    return stage_force(weights, lambda x: alignment_weight(metric(x, x), alpha))


def _advance(x: np.ndarray, v: np.ndarray, dt: float, accel, domain: Domain, step: int):
    """One RK4 step: velocity stages use the model force, position stages the
    staged velocities.  Returns wrapped positions and velocities; non-finite
    output raises IntegrationFault for the given step."""
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
    table: NeighborTable | None = None,
) -> EnsembleState:
    """Advance one step; positions are wrapped back into a periodic box.

    The step's neighbor table (hence every gating decision) is computed once
    and reused by all four stages.
    """
    if not dt > 0:
        raise ValueError("dt must be > 0")
    if table is None:
        mask, _ = _step_mask(params, state.positions, buffer, domain, state.t)
    else:
        mask = table.membership_matrix()
    accel = _stage_force(params, mask, domain)
    x, v = _advance(
        state.positions, state.velocities, dt, accel, domain, int(round(state.t / dt))
    )
    return EnsembleState(state.t + dt, x, v)


def _sample(step, t, x, v, unwrapped, delayed, table: NeighborTable, params) -> TrajectorySample:
    state = EnsembleState(t, x, v)
    digraph = build_digraph(table, params.policy(), params.N)
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
    buffer = DelayBuffer(params.h_steps, x, t0=0.0)
    unwrapped = x.copy()

    record = TrajectoryRecord(spec)
    for step in range(n_steps + 1):
        t = step * dt
        mask, source_time = _step_mask(params, x, buffer, domain, t)
        if step % sample_every == 0 or step == n_steps:
            table = NeighborTable.from_mask(mask, source_time)
            record.samples.append(
                _sample(step, t, x, v, unwrapped, buffer.delayed(), table, params)
            )
        if step == n_steps:
            break
        wrapped, v = _advance(x, v, dt, _stage_force(params, mask, domain), domain, step)
        unwrapped += domain.shortest_displacement(wrapped, x)
        buffer.push(wrapped, (step + 1) * dt)
        x = wrapped
    return record


def run_simulation(spec: ScenarioSpec) -> TrajectoryRecord:
    """Integrate a declared scenario; deterministic for a fixed spec."""
    return simulate(
        initial_state(spec),
        spec.params,
        spec.domain,
        spec.dt,
        spec.t_end,
        spec.sample_every,
        spec=spec,
    )
