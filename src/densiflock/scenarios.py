"""Initial-condition generators, run descriptions, and regime classifiers.

Four scenario families:

* ``random_clusters`` -- seeded random positions and velocities in a periodic
  box, half the ensemble given a fixed velocity bias.
* ``group_vs_individual`` -- a 28-particle lattice drifting right meets a fast
  singleton coming the other way; two lattice shapes probe whether the
  singleton can flip the total momentum.
* ``chain`` -- a vertical 21-particle chain crossed by a fast singleton.
* ``three_body`` -- a resting cluster (core ``a`` of N-1 particles plus edge
  member ``b``) and a constant-velocity intruder ``c`` escaping along the
  line through all three; the setting behind the reduced analytic solution.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import integrate
from .domains import Domain
from .dynamics import EnsembleState, ModelParams
from .errors import ConfigError
from .integrate import TrajectoryRecord, step_count

SCENARIOS = ("random_clusters", "group_vs_individual", "chain", "three_body")
REGIMES = ("stability", "breaking", "sticking", "undetermined")

# Lattice layouts for the group-versus-individual runs: shape "a" is
# elongated along the approach axis, shape "b" is a deep block.
GROUP_SHAPE_ROWS = {"a": 2, "b": 7}
DEFAULT_GROUP_SPACING = 1.0
DEFAULT_GROUP_GAP = 3.0
DEFAULT_CHAIN_SPACING = 0.95
DEFAULT_CHAIN_GAP = 8.0


@dataclass
class ScenarioSpec:
    """Declarative description of one run: model, domain, horizon, generator."""

    scenario: str
    params: ModelParams
    domain: Domain
    dt: float = 0.01
    t_end: float = 30.0
    sample_every: int = 10
    seed: int = 0
    # Generator fields; None when the scenario does not use them.
    n_cluster: int | None = None
    beta: float | None = None
    gamma: float | None = None
    v_c: float | None = None
    shape: str | None = None
    spacing: float | None = None
    margin: float | None = None

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {self.scenario!r}")
        if not self.dt > 0:
            raise ConfigError("dt must be > 0")
        if self.t_end < 0:
            raise ConfigError("t_end must be >= 0")
        step_count(self.t_end, self.dt)
        if self.sample_every < 1:
            raise ConfigError("sample_every must be >= 1")
        if self.scenario == "three_body":
            self._validate_three_body()
        if self.scenario == "group_vs_individual":
            shape = self.shape or "a"
            if shape not in GROUP_SHAPE_ROWS:
                raise ConfigError("shape must be 'a' or 'b'")
            self.shape = shape
        if self.scenario in ("group_vs_individual", "chain", "three_body"):
            if self.n_cluster is None:
                raise ConfigError("scenario requires the resting-cluster size n")
            if self.params.N != self.n_cluster + 1:
                raise ConfigError("particle count must equal cluster size + 1")
        if self.scenario == "group_vs_individual":
            rows = GROUP_SHAPE_ROWS[self.shape]
            if self.n_cluster % rows != 0:
                raise ConfigError(f"shape {self.shape!r} needs n divisible by {rows}")
        if self.scenario == "random_clusters" and not self.domain.is_periodic:
            raise ConfigError("scenario random_clusters requires domain = periodic")
        if self.scenario == "random_clusters" and self.margin is not None:
            if self.margin < 0 or 2 * self.margin >= self.domain.L:
                raise ConfigError("margin must satisfy 0 <= margin < L/2")
        if self.domain.is_periodic and self.params.delta is not None:
            if not self.domain.L > 2 * self.params.delta:
                raise ConfigError("periodic runs require L > 2*delta")

    def _validate_three_body(self):
        if self.params.model != "di":
            raise ConfigError("three_body runs use the di model")
        for key in ("beta", "gamma", "v_c"):
            if getattr(self, key) is None:
                raise ConfigError(f"three_body requires {key}")
        delta = self.params.delta
        if not 0 < self.beta < delta:
            raise ConfigError("three_body requires 0 < beta < delta")
        if not self.gamma >= delta:
            raise ConfigError("three_body requires gamma >= delta")
        if not self.gamma - self.beta < delta:
            raise ConfigError("three_body requires gamma - beta < delta")
        if self.n_cluster is not None and self.params.m is not None:
            if not self.n_cluster > self.params.m:
                raise ConfigError("three_body requires cluster size n > m")


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
    min_momentum_x: float
    final_momentum_x: float


def init_random_clusters(N: int, L: float, seed: int, margin: float = 2.0) -> EnsembleState:
    """Uniform positions in [margin, L-margin]^2 with biased random velocities.

    Velocities are r_i (cos a_i, sin a_i) with r_i ~ U[0,1], a_i ~ U[0,2pi];
    the first floor(N/2) particles additionally get the drift r_i * (0.5, 1)
    so the ensemble average does not vanish.
    """
    if margin < 0 or 2 * margin >= L:
        raise ConfigError("margin must satisfy 0 <= margin < L/2")
    rng = np.random.default_rng(seed)
    positions = rng.uniform(margin, L - margin, size=(N, 2))
    r = rng.uniform(0.0, 1.0, size=N)
    ang = rng.uniform(0.0, 2.0 * np.pi, size=N)
    velocities = r[:, None] * np.column_stack([np.cos(ang), np.sin(ang)])
    biased = N // 2
    velocities[:biased] += r[:biased, None] * np.array([0.5, 1.0])
    return EnsembleState(0.0, positions, velocities)


def init_three_body(
    N: int,
    beta: float,
    gamma: float,
    v_c: float,
    delta: float,
    a_spread: float | None = None,
    seed: int = 0,
) -> EnsembleState:
    """Resting cluster plus escaping intruder, all on one line.

    Layout (index order): particles 0..N-2 jittered within a_spread of the
    origin at rest, edge member b = N-1 at (beta, 0) at rest, intruder
    c = N at (gamma, 0) moving with (v_c, 0) -- along the common line, so
    separations grow exactly by the integrated relative velocities.
    """
    if not (0 < beta < delta and gamma >= delta and gamma - beta < delta):
        raise ConfigError("requires 0 < beta < delta <= gamma and gamma - beta < delta")
    if a_spread is None:
        a_spread = delta / 1000.0
    if not 0 <= a_spread < beta:
        raise ConfigError("a_spread must be small and nonnegative")
    rng = np.random.default_rng(seed)
    positions = np.zeros((N + 1, 2))
    # Core jitter stays in the x <= 0 half-box: no core particle may creep
    # inside the intruder's ball when gamma sits exactly at the range delta.
    positions[: N - 1, 0] = -rng.uniform(0.0, a_spread, size=N - 1)
    positions[: N - 1, 1] = rng.uniform(-a_spread / 2, a_spread / 2, size=N - 1)
    positions[N - 1] = (beta, 0.0)
    positions[N] = (gamma, 0.0)
    velocities = np.zeros((N + 1, 2))
    velocities[N] = (v_c, 0.0)
    return EnsembleState(0.0, positions, velocities)


def init_group_vs_individual(
    shape: str,
    cluster_size: int = 28,
    v_cluster=(0.1, 0.0),
    v_single=(-2.7, 0.0),
    spacing: float = DEFAULT_GROUP_SPACING,
    gap: float = DEFAULT_GROUP_GAP,
) -> EnsembleState:
    """Lattice cluster drifting right, singleton approaching from the right.

    Shape "a" lays the cluster out in 2 rows (long side along the approach
    axis); shape "b" in 7 rows (deep block).  The singleton starts `gap`
    beyond the lattice's right edge on its horizontal midline, so the total
    initial momentum is cluster_size * v_cluster + v_single.
    """
    rows = GROUP_SHAPE_ROWS.get(shape)
    if rows is None:
        raise ConfigError("shape must be 'a' or 'b'")
    if cluster_size % rows != 0:
        raise ConfigError(f"cluster_size must be divisible by {rows} for shape {shape!r}")
    cols = cluster_size // rows
    xs = (np.arange(cols) - (cols - 1) / 2) * spacing
    ys = (np.arange(rows) - (rows - 1) / 2) * spacing
    gx, gy = np.meshgrid(xs, ys)
    lattice = np.column_stack([gx.ravel(), gy.ravel()])
    single = np.array([[xs.max() + gap, 0.0]])
    positions = np.vstack([lattice, single])
    velocities = np.vstack(
        [np.tile(np.asarray(v_cluster, dtype=float), (cluster_size, 1)),
         np.asarray(v_single, dtype=float)[None, :]]
    )
    return EnsembleState(0.0, positions, velocities)


def init_chain(
    n_chain: int = 21,
    spacing: float = DEFAULT_CHAIN_SPACING,
    v_chain=(0.1, 0.0),
    v_single=(-8.0, 0.0),
    gap: float = DEFAULT_CHAIN_GAP,
) -> EnsembleState:
    """Vertical chain of n_chain particles, fast singleton incoming on its midline."""
    if n_chain < 2:
        raise ConfigError("n_chain must be >= 2")
    if not spacing > 0:
        raise ConfigError("spacing must be > 0")
    ys = (np.arange(n_chain) - (n_chain - 1) / 2) * spacing
    chain = np.column_stack([np.zeros(n_chain), ys])
    positions = np.vstack([chain, [[gap, 0.0]]])
    velocities = np.vstack(
        [np.tile(np.asarray(v_chain, dtype=float), (n_chain, 1)),
         np.asarray(v_single, dtype=float)[None, :]]
    )
    return EnsembleState(0.0, positions, velocities)


def _require_scenario(record: TrajectoryRecord, scenario: str) -> ScenarioSpec:
    spec = record.spec
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
    if not (0 < beta < delta and gamma >= delta and gamma - beta < delta):
        raise ConfigError("requires 0 < beta < delta <= gamma and gamma - beta < delta")
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
    return GroupResult(bool(mom_x.min() < 0), float(mom_x.min()), float(mom_x[-1]))


def initial_state(spec: ScenarioSpec) -> EnsembleState:
    """Build the scenario's initial ensemble (deterministic per seed)."""
    if spec.scenario == "random_clusters":
        margin = spec.margin if spec.margin is not None else 2.0
        return init_random_clusters(spec.params.N, spec.domain.L, spec.seed, margin)
    if spec.scenario == "three_body":
        return init_three_body(
            spec.n_cluster, spec.beta, spec.gamma, spec.v_c, spec.params.delta,
            seed=spec.seed,
        )
    if spec.scenario == "group_vs_individual":
        spacing = spec.spacing if spec.spacing is not None else DEFAULT_GROUP_SPACING
        return init_group_vs_individual(spec.shape, spec.n_cluster, spacing=spacing)
    if spec.scenario == "chain":
        spacing = spec.spacing if spec.spacing is not None else DEFAULT_CHAIN_SPACING
        return init_chain(spec.n_cluster, spacing=spacing)
    raise ConfigError(f"unknown scenario {spec.scenario!r}")


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
