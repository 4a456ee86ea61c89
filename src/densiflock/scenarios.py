"""Run descriptions, their initial conditions, and regime classifiers.

``initial_state(spec)`` builds the initial ensemble of a validated
``ScenarioSpec``; it is the one entry to the four scenario families:

* ``random_clusters`` -- seeded random positions and velocities in a periodic
  box, half the ensemble given a fixed velocity bias.
* ``group_vs_individual`` -- a 28-particle lattice drifting right meets a fast
  singleton coming the other way; two lattice shapes probe whether the
  singleton can flip the total momentum.
* ``chain`` -- a vertical 21-particle chain, the one-column lattice, crossed
  by a fast singleton.
* ``three_body`` -- a resting cluster (core ``a`` of N-1 particles plus edge
  member ``b``) and a constant-velocity intruder ``c`` escaping along the
  line through all three; the setting behind the reduced analytic solution.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import integrate
from .domains import Domain
from .dynamics import EnsembleState, ModelParams
from .errors import ConfigError, real, whole
from .integrate import TrajectoryRecord, step_count

# The generator fields each scenario reads; ScenarioSpec rejects the others.
SCENARIO_FIELDS = {
    "random_clusters": ("margin",),
    "group_vs_individual": ("shape", "spacing"),
    "chain": ("spacing",),
    "three_body": ("beta", "gamma", "v_c"),
}
SCENARIOS = tuple(SCENARIO_FIELDS)
GENERATOR_FIELDS = frozenset().union(*SCENARIO_FIELDS.values())
REGIMES = ("stability", "breaking", "sticking", "undetermined")

# Lattice layouts for the group-versus-individual runs: shape "a" is
# elongated along the approach axis, shape "b" is a deep block.
GROUP_SHAPE_ROWS = {"a": 2, "b": 7}
# The lattice-plus-singleton scenarios: default cluster size and spacing, the
# singleton's start beyond the lattice's right edge, and the x velocities of
# the cluster and of the singleton.
LATTICES = {
    "group_vs_individual": dict(n=28, spacing=1.0, gap=3.0, v_cluster=0.1, v_single=-2.7),
    "chain": dict(n=21, spacing=0.95, gap=8.0, v_cluster=0.1, v_single=-8.0),
}
DEFAULT_MARGIN = 2.0
# Horizons; three_body's is 3 N instead, scaling with the consensus rate.
DEFAULT_T_END = {"random_clusters": 150.0, "group_vs_individual": 30.0, "chain": 30.0}


@dataclass
class ScenarioSpec:
    """Declarative description of one run: model, domain, horizon, generator.

    t_end None takes the scenario's default horizon.
    """

    scenario: str
    params: ModelParams
    domain: Domain
    dt: float = 0.01
    t_end: float | None = None
    sample_every: int = 10
    seed: int = 0
    # Generator fields; None when the scenario does not use them.
    beta: float | None = None
    gamma: float | None = None
    v_c: float | None = None
    shape: str | None = None
    spacing: float | None = None
    margin: float | None = None

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {self.scenario!r}")
        for name in (f.name for f in fields(self) if f.name in GENERATOR_FIELDS):
            value = getattr(self, name)
            if value is None:
                continue
            if name not in SCENARIO_FIELDS[self.scenario]:
                raise ConfigError(f"scenario {self.scenario} takes no {name}")
            if name != "shape":
                setattr(self, name, real(name, value))
        if self.t_end is None:
            self.t_end = DEFAULT_T_END.get(self.scenario, 3.0 * self.params.N)
        step_count(self.t_end, self.dt, self.sample_every)
        if whole("seed", self.seed) < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.domain.is_periodic and self.params.delta is not None:
            if not self.domain.L > 2 * self.params.delta:
                raise ConfigError("periodic runs require L > 2*delta")
        if self.scenario == "random_clusters":
            if not self.domain.is_periodic:
                raise ConfigError("scenario random_clusters requires a periodic Domain(L)")
            if self.margin is None:
                self.margin = DEFAULT_MARGIN
            if not (0 <= self.margin and 2 * self.margin < self.domain.L):
                raise ConfigError("margin must satisfy 0 <= margin < L/2")
            return
        if self.scenario == "three_body":
            if self.params.model != "di":
                raise ConfigError("three_body runs use the di model")
            for key in ("beta", "gamma", "v_c"):
                if getattr(self, key) is None:
                    raise ConfigError(f"three_body requires {key}")
            if not math.isfinite(self.v_c):
                raise ConfigError(f"three_body requires a finite v_c, got v_c={self.v_c}")
            _check_three_body_geometry(self.beta, self.gamma, self.params.delta)
            if not self.params.delta / 1000.0 < self.beta:
                raise ConfigError("three_body requires beta > delta/1000, the core's jitter")
            if not self.n_cluster > self.params.m:
                raise ConfigError("three_body requires cluster size n > m")
            return
        if self.spacing is None:
            self.spacing = LATTICES[self.scenario]["spacing"]
        if self.scenario == "chain":
            if self.n_cluster < 2:
                raise ConfigError(f"chain requires n >= 2, got n={self.n_cluster}")
        else:
            self.shape = self.shape or "a"
            rows = GROUP_SHAPE_ROWS.get(self.shape)
            if rows is None:
                raise ConfigError("shape must be 'a' or 'b'")
            if not (self.n_cluster > 0 and self.n_cluster % rows == 0):
                raise ConfigError(
                    f"shape {self.shape!r} needs n a positive multiple of {rows}, "
                    f"got n={self.n_cluster}"
                )
        if not 0 < self.spacing < math.inf:
            raise ConfigError(f"spacing must be finite and > 0, got {self.spacing}")

    @property
    def n_cluster(self) -> int:
        """Size of the resting cluster: every particle but the last, the singleton."""
        return self.params.N - 1


def _check_three_body_geometry(beta: float, gamma: float, delta: float) -> None:
    """The three-body rule that ScenarioSpec and predict_three_body share."""
    if not (0 < beta < delta <= gamma and gamma - beta < delta):
        raise ConfigError(
            "three_body requires 0 < beta < delta <= gamma and gamma - beta < delta, "
            f"got beta={beta}, gamma={gamma}, delta={delta}"
        )


@dataclass
class RegimeResult:
    """Outcome of a cluster-versus-intruder run.

    t_c_detach / t_b_detach are the first times the intruder leaves the edge
    member's neighbor set and the edge member leaves the core's (None when
    the separation never shows up); final_momentum is the resting cluster's
    momentum along the intruder axis at the end of the horizon.
    """

    regime: str
    t_c_detach: float | None
    t_b_detach: float | None
    final_momentum: float


@dataclass
class ChainResult:
    """Connectivity and sign summary of a chain run."""

    split: bool
    initial_clusters: int
    final_clusters: int
    chain_vx_final: float
    single_vx_final: float
    regime: str


@dataclass
class GroupResult:
    """Momentum-sign summary of a group-versus-individual run."""

    momentum_flipped: bool


def _random_clusters(spec: ScenarioSpec) -> EnsembleState:
    """Uniform positions in [margin, L-margin]^2 with biased random velocities.

    Velocities are r_i (cos a_i, sin a_i) with r_i ~ U[0,1], a_i ~ U[0,2pi];
    the first floor(N/2) particles additionally get the drift r_i * (0.5, 1)
    so the ensemble average does not vanish.
    """
    N, L, margin = spec.params.N, spec.domain.L, spec.margin
    rng = np.random.default_rng(spec.seed)
    positions = rng.uniform(margin, L - margin, size=(N, 2))
    r = rng.uniform(0.0, 1.0, size=N)
    ang = rng.uniform(0.0, 2.0 * np.pi, size=N)
    velocities = r[:, None] * np.column_stack([np.cos(ang), np.sin(ang)])
    biased = N // 2
    velocities[:biased] += r[:biased, None] * np.array([0.5, 1.0])
    return EnsembleState(0.0, positions, velocities)


def _three_body(spec: ScenarioSpec) -> EnsembleState:
    """Resting cluster plus escaping intruder, all on one line.

    Layout (index order): particles 0..n-2 jittered within delta/1000 of the
    origin at rest, edge member b = n-1 at (beta, 0) at rest, intruder
    c = n at (gamma, 0) moving with (v_c, 0) -- along the common line, so
    separations grow exactly by the integrated relative velocities.
    """
    n = spec.n_cluster
    a_spread = spec.params.delta / 1000.0
    rng = np.random.default_rng(spec.seed)
    positions = np.zeros((n + 1, 2))
    # Core jitter stays in the x <= 0 half-box: no core particle may creep
    # inside the intruder's ball when gamma sits exactly at the range delta.
    positions[: n - 1, 0] = -rng.uniform(0.0, a_spread, size=n - 1)
    positions[: n - 1, 1] = rng.uniform(-a_spread / 2, a_spread / 2, size=n - 1)
    positions[n - 1] = (spec.beta, 0.0)
    positions[n] = (spec.gamma, 0.0)
    velocities = np.zeros((n + 1, 2))
    velocities[n] = (spec.v_c, 0.0)
    return EnsembleState(0.0, positions, velocities)


def _lattice(spec: ScenarioSpec) -> EnsembleState:
    """Lattice cluster drifting right, singleton approaching from the right.

    A group lays its cluster out in its shape's row count; a chain is the
    one-column lattice.  The singleton starts the scenario's gap beyond the
    lattice's right edge, on its horizontal midline.
    """
    layout = LATTICES[spec.scenario]
    n = spec.n_cluster
    rows = GROUP_SHAPE_ROWS[spec.shape] if spec.shape else n
    cols = n // rows
    xs = (np.arange(cols) - (cols - 1) / 2) * spec.spacing
    ys = (np.arange(rows) - (rows - 1) / 2) * spec.spacing
    gx, gy = np.meshgrid(xs, ys)
    lattice = np.column_stack([gx.ravel(), gy.ravel()])
    positions = np.vstack([lattice, [xs.max() + layout["gap"], 0.0]])
    velocities = np.zeros((n + 1, 2))
    velocities[:n, 0] = layout["v_cluster"]
    velocities[n, 0] = layout["v_single"]
    return EnsembleState(0.0, positions, velocities)


def _require_scenario(record: TrajectoryRecord, scenario: str) -> ScenarioSpec:
    spec = record.spec
    if spec is None:
        raise ValueError(f"record has no scenario spec, expected scenario {scenario!r}")
    if spec.scenario != scenario:
        raise ValueError(f"record is from scenario {spec.scenario!r}, expected {scenario!r}")
    return spec


def classify_three_body(record: TrajectoryRecord) -> RegimeResult:
    """Read the regime off a simulated three-body record.

    stability -- the intruder left the edge member's set and the cluster held;
    breaking  -- the edge member left the core first (or no later than the
    intruder); sticking -- no separation by t_end and every velocity within
    10% of the intruder's; anything else is undetermined.  Detach times are
    resolved at sample granularity.
    """
    spec = _require_scenario(record, "three_body")
    n = spec.n_cluster
    b, c = n - 1, n
    t_c = t_b = None
    for sample in record.samples:
        table = sample.table
        if t_c is None and not table.contains(b, c):
            t_c = sample.t
        if t_b is None and not table.contains(0, b):
            t_b = sample.t
        if t_c is not None and t_b is not None:
            break

    final = record.samples[-1]
    target = np.array([spec.v_c, 0.0])
    gap = float(np.linalg.norm(final.state.velocities - target, axis=1).max())
    settled = gap <= 0.1 * abs(spec.v_c)

    cluster_momentum = float(final.state.velocities[:n, 0].sum())
    if t_b is not None and (t_c is None or t_b <= t_c):
        regime = "breaking"
    elif t_c is not None and t_b is None:
        regime = "stability"
    elif t_c is None and t_b is None and settled:
        regime = "sticking"
    else:
        regime = "undetermined"
    return RegimeResult(regime, t_c, t_b, cluster_momentum)


def predict_three_body(
    beta: float, gamma: float, delta: float, N: int, v_c: float
) -> RegimeResult:
    """Regime predicted by the leading-order contact-loss analysis.

    Sticking when |gamma-beta| + N|v_c| <= delta and |beta| + |v_c| <= delta;
    otherwise compare T_c = (delta - (gamma-beta)) / |v_c| against
    T_b = N (delta - beta) / |v_c| and call breaking when the edge member
    leaves first and the required speed bound T_b |v_c| (1/N + 1) < delta
    holds; stability otherwise.
    """
    _check_three_body_geometry(beta, gamma, delta)
    speed = abs(v_c)
    if speed == 0:
        return RegimeResult("sticking", None, None, 0.0)
    if abs(gamma - beta) + N * speed <= delta and abs(beta) + speed <= delta:
        return RegimeResult("sticking", None, None, momentum_estimate("sticking", delta, N, v_c))
    t_c = (delta - (gamma - beta)) / speed
    t_b = N * (delta - beta) / speed
    if t_b < t_c and t_b * speed * (1.0 / N + 1.0) < delta:
        return RegimeResult(
            "breaking", t_c, t_b, momentum_estimate("breaking", delta, N, v_c)
        )
    return RegimeResult("stability", t_c, None, momentum_estimate("stability", delta, N, v_c))


def momentum_estimate(regime: str, delta: float, N: int, v_c: float) -> float:
    """Large-N estimate of the cluster momentum gained from the intruder.

    Asymptotic only, not an oracle: the escape regimes gain roughly
    delta + |v_c| e^(-delta / (N |v_c|)); sticking transfers N |v_c|.
    """
    if regime not in REGIMES:
        raise ValueError(f"unknown regime {regime!r}")
    speed = abs(v_c)
    if regime == "sticking":
        return N * speed
    if speed == 0:
        return delta
    return delta + speed * math.exp(-delta / (N * speed))


def classify_chain(record: TrajectoryRecord) -> ChainResult:
    """Split / repel / push summary of a chain run.

    split -- the chain occupies more clusters at the end than at the start;
    otherwise the sign of the singleton's final horizontal velocity separates
    repel (turned back) from push (still advancing, cluster carried along).
    """
    spec = _require_scenario(record, "chain")
    n = spec.n_cluster
    first, last = record.samples[0], record.samples[-1]
    initial = len(np.unique(first.labels.labels[:n]))
    final = len(np.unique(last.labels.labels[:n]))
    chain_vx = float(last.state.velocities[:n, 0].mean())
    single_vx = float(last.state.velocities[n, 0])
    split = final > initial
    if split:
        regime = "split"
    elif single_vx > 0:
        regime = "repel"
    else:
        regime = "push"
    return ChainResult(split, initial, final, chain_vx, single_vx, regime)


def classify_group(record: TrajectoryRecord) -> GroupResult:
    """Whether the singleton drove the total horizontal momentum through zero."""
    _require_scenario(record, "group_vs_individual")
    mom_x = np.array([sample.momentum[0] for sample in record.samples])
    return GroupResult(bool(mom_x.min() < 0))


def regime_of(record: TrajectoryRecord) -> str:
    """A record's regime by its scenario's classifier; "" for random_clusters."""
    scenario = record.spec.scenario
    if scenario == "three_body":
        return classify_three_body(record).regime
    if scenario == "chain":
        return classify_chain(record).regime
    if scenario == "group_vs_individual":
        return "flip" if classify_group(record).momentum_flipped else "no_flip"
    return ""


def initial_state(spec: ScenarioSpec) -> EnsembleState:
    """Build the scenario's initial ensemble (deterministic per seed)."""
    if spec.scenario == "random_clusters":
        return _random_clusters(spec)
    if spec.scenario == "three_body":
        return _three_body(spec)
    return _lattice(spec)


def run_simulation(spec: ScenarioSpec) -> TrajectoryRecord:
    """Integrate a declared scenario; deterministic for a fixed spec."""
    # integrate.simulate is looked up at call time, so a wrapper installed on
    # the module attribute (the benchmark's tracer) sees every run.
    return integrate.simulate(
        initial_state(spec),
        spec.params,
        spec.domain,
        spec.dt,
        spec.t_end,
        spec.sample_every,
        spec=spec,
    )
