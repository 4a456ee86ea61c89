"""Stepping scheme, topology delay, domains, and the run loop."""
import hashlib
import importlib.util
import math
import tracemalloc
from collections import deque
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import expm
from scipy.spatial.distance import cdist

import densiflock.integrate
from densiflock import (
    Domain,
    EnsembleState,
    IntegrationFault,
    ModelParams,
    NeighborSearch,
    ScenarioSpec,
    build_digraph,
    initial_state,
    parse_config,
    run_simulation,
    simulate,
    strongly_connected_components,
)
from densiflock.dynamics import POLICY_KINDS, alignment_weight, member_weights
from densiflock.errors import ConfigError
from densiflock.integrate import (
    RK4_DISC_RADIUS,
    STEP_MATRIX_MAX_N,
    csr_step_map,
    matrix_step_map,
)
from oracles import dense_distances, dense_table, neighbor_sets_di, rk4_step


# --- domains ------------------------------------------------------------------


def _distance(domain, a, b):
    return domain.distances(np.array([a, b]), [0], [1])[0]


def test_min_image_wraparound():
    domain = Domain(25.0)
    assert _distance(domain, [0.5, 0.0], [24.9, 0.0]) == pytest.approx(0.6)
    assert _distance(domain, [3.0, 4.0], [3.0, 4.0]) == 0.0
    assert _distance(domain, [0.0, 0.0], [12.5, 0.0]) == pytest.approx(12.5)


def test_unbounded_distance_is_euclidean():
    domain = Domain()
    assert _distance(domain, [0.0, 0.0], [3.0, 4.0]) == pytest.approx(5.0)


def test_wrap_maps_into_box():
    domain = Domain(10.0)
    wrapped = domain.wrap(np.array([[10.0, -0.1], [23.5, 5.0]]))
    assert np.allclose(wrapped, [[0.0, 9.9], [3.5, 5.0]])
    # -1e-17 mod 25 rounds up to 25, which is the torus point 0.
    tiny = Domain(25.0).wrap(np.array([[-1e-17, 3.0]]))
    assert tiny.tolist() == [[0.0, 3.0]]


@pytest.mark.parametrize("domain", [Domain(), Domain(25.0)], ids=["plane", "box"])
def test_wrap_in_place_writes_the_same_bits_into_its_argument(domain):
    x = np.array([[10.0, -0.1], [53.5, 5.0], [-1e-17, 25.0]])
    fresh = domain.wrap(x)
    assert x[1, 0] == 53.5  # without in_place the argument is left alone
    buffer = np.vstack((x, np.ones((3, 2))))
    wrapped = domain.wrap(buffer[:3], in_place=True)
    assert np.shares_memory(wrapped, buffer) and wrapped.tobytes() == fresh.tobytes()
    assert (buffer[3:] == 1.0).all()


def test_periodic_box_side_must_be_finite():
    for L in (np.inf, 0.0, -1.0, np.nan):
        with pytest.raises(ConfigError, match="L"):
            Domain(L)


def _min_image_oracle(a, b, L):
    """Minimum image through one (len(a), len(b), d) difference tensor."""
    diff = a[:, None, :] - b[None, :, :]
    diff -= L * np.round(diff / L)
    return np.sqrt((diff * diff).sum(axis=-1))


@st.composite
def periodic_point_sets(draw):
    """Box side, then two point sets mixing far-out coordinates and exact
    multiples of L/2 (half-box separations, where np.round ties to even)."""
    L = draw(st.one_of(st.floats(1e-2, 1e3), st.integers(-6, 9).map(lambda k: 2.0**k)))
    d = draw(st.integers(1, 3))
    coord = st.one_of(
        st.floats(-1e3 * L, 1e3 * L),
        st.integers(-400, 400).map(lambda k: k * L / 2),
    )

    def points():
        n = draw(st.integers(1, 12))
        return np.array(draw(st.lists(coord, min_size=n * d, max_size=n * d))).reshape(n, d)

    return L, points(), points()


@given(case=periodic_point_sets())
@example(case=(4.0, np.array([[0.0, 0.0], [2.0, -6.0]]), np.array([[6.0, 2.0], [-2.0, 0.0]])))
@example(case=(0.5, np.array([[1e3, -7e2]]), np.array([[0.25, 0.75], [-1e3, 3e2]])))
@settings(max_examples=200, deadline=None)
def test_min_image_bitwise_equals_difference_tensor(case):
    # The dense oracle and the package's pair form, over every (a, b) pair.
    L, a, b = case
    want = _min_image_oracle(a, b, L).tobytes()
    assert dense_distances(Domain(L), a, b).tobytes() == want
    i, j = np.indices((len(a), len(b))).reshape(2, -1)
    assert Domain(L).distances(np.vstack((a, b)), i, len(a) + j).tobytes() == want


@pytest.mark.parametrize("L", [None, 10.0], ids=["plane", "box"])
def test_distances_take_a_nested_list(L):
    domain = Domain(L)
    x = [[0.5, 0.5], [9.5, 9.5], [3.0, 4.5]]
    got = domain.distances(x, [0, 0, 1], [1, 2, 2])
    assert got.tobytes() == domain.distances(np.array(x), [0, 0, 1], [1, 2, 2]).tobytes()
    assert got[0] == (math.sqrt(2.0) if L else math.sqrt(162.0))


# --- single steps ----------------------------------------------------------------


def _di_params(n, **kw):
    defaults = dict(model="di", N=n, m=3, delta=2.0, kappa=1.0)
    defaults.update(kw)
    return ModelParams(**defaults)


def test_rk4_free_streaming_exact():
    # Gated-out particles keep their velocity and move linearly.
    state = EnsembleState(0.0, [[0.0, 0.0], [10.0, 0.0]], [[1.0, 0.5], [-2.0, 0.0]])
    params = _di_params(2)
    domain = Domain()
    out = rk4_step(state, 0.25, params, state.positions, domain)
    assert np.array_equal(out.velocities, state.velocities)
    assert np.allclose(out.positions, state.positions + 0.25 * state.velocities, atol=0)


def test_rk4_periodic_reentry():
    domain = Domain(5.0)
    state = EnsembleState(0.0, [[4.9, 1.0], [2.0, 2.0]], [[1.0, 0.0], [0.0, 0.0]])
    params = _di_params(2)
    out = rk4_step(state, 0.5, params, state.positions, domain)
    assert out.positions[0, 0] == pytest.approx(0.4)
    assert np.array_equal(out.velocities, state.velocities)


def _blob_state(n=5, scale=0.3, vel_scale=0.01, seed=4):
    rng = np.random.default_rng(seed)
    pos = rng.uniform(-scale, scale, (n, 2))
    vel = rng.uniform(-vel_scale, vel_scale, (n, 2))
    return EnsembleState(0.0, pos, vel)


def _same_table(a, b):
    return np.array_equal(a.indptr, b.indptr) and np.array_equal(a.indices, b.indices)


def _explicit_di_rk4(x, v, dt, weights):
    """Four explicit RK4 stages of the di force W v - (W 1) v, staged
    positions included although the force never reads them."""
    row = weights.sum(axis=1, keepdims=True)

    def accel(_x, u):
        return weights @ u - row * u

    kv1, kx1 = accel(x, v) * dt, v * dt
    kv2, kx2 = accel(x + kx1 / 2, v + kv1 / 2) * dt, (v + kv1 / 2) * dt
    kv3, kx3 = accel(x + kx2 / 2, v + kv2 / 2) * dt, (v + kv2 / 2) * dt
    kv4, kx4 = accel(x + kx3, v + kv3) * dt, (v + kv3) * dt
    return x + (kx1 + 2 * kx2 + 2 * kx3 + kx4) / 6, v + (kv1 + 2 * kv2 + 2 * kv3 + kv4) / 6


@pytest.mark.parametrize(
    "n, m, policy, h_steps, seed",
    [
        (6, 2, {}, 1, 0),
        (12, 3, {"m_policy": "flat"}, 1, 1),
        (30, 3, {"m_policy": "constant", "kappa": 0.1}, 1, 2),
        (30, 3, {"m_policy": "per_neighbor", "kappa": 2.0}, 3, 3),
        (8, 8, {}, 1, 4),  # no ball holds more than m particles: an empty gate
    ],
)
def test_di_propagator_matches_explicit_stages(n, m, policy, h_steps, seed):
    rng = np.random.default_rng(seed)
    params = _di_params(n, m=m, h_steps=h_steps, **policy)
    domain = Domain(10.0)
    # Positions of steps 0..h_steps; the step h_steps reads those of step 0.
    snapshots = [rng.uniform(3.0, 7.0, (n, 2)) for _ in range(h_steps + 1)]
    state = EnsembleState(0.0, snapshots[-1], rng.uniform(-1.0, 1.0, (n, 2)))
    table = neighbor_sets_di(snapshots[0], params.delta, m, domain)
    if h_steps > 1:  # the step reads the delayed snapshot, not the current one
        current = neighbor_sets_di(state.positions, params.delta, m, domain)
        assert not _same_table(table, current)
    assert (table.indptr[-1] == 0) == (m == n)
    weights = member_weights(table, params)[0].toarray()

    out = rk4_step(state, 0.05, params, snapshots[0], domain)
    x, v = _explicit_di_rk4(state.positions, state.velocities, 0.05, weights)
    tol = 1e-14 * np.abs(state.velocities).max()
    assert np.abs(out.velocities - v).max() <= tol
    assert np.abs(out.positions - domain.wrap(x)).max() <= tol


def _velocity_error_vs_expm(dt, t_end=1.0, state=None, params=None, domain=Domain()):
    """Fixed-topology velocities against the exact matrix exponential."""
    if state is None:
        state, params = _blob_state(), _di_params(5, m=2)
    table = neighbor_sets_di(state.positions, params.delta, params.m, domain)
    w = member_weights(table, params)[0].toarray()
    lap = np.diag(w.sum(axis=1)) - w
    record = simulate(state, params, domain, dt, t_end, sample_every=10**9)
    final = record.samples[-1]
    assert _same_table(final.table, table)  # topology never switched
    exact = expm(-lap * t_end) @ state.velocities
    return np.abs(final.state.velocities - exact).max()


def test_rk4_matches_matrix_exponential():
    assert _velocity_error_vs_expm(0.05) < 1e-8


def test_rk4_fourth_order_convergence():
    coarse = _velocity_error_vs_expm(0.05)
    fine = _velocity_error_vs_expm(0.025)
    assert coarse / fine > 12.0


@pytest.mark.parametrize(
    "params",
    [
        ModelParams(model="di", N=6, m=2, delta=2.0),
        ModelParams(model="cs", N=6),
        ModelParams(model="di", N=6, m=2, delta=2.0, m_policy="flat"),
        ModelParams(model="cs", N=6, m_policy="per_neighbor"),
        # Delayed di on a spread-out state whose gates switch within the 10 steps.
        ModelParams(model="di", N=6, m=2, delta=2.0, h_steps=3),
    ],
)
def test_simulate_matches_stepwise_rk4(params):
    # The run loop's fast path reproduces the per-step reference bitwise.
    if params.h_steps > 1:
        rng = np.random.default_rng(5)
        state = EnsembleState(0.0, rng.uniform(0.0, 3.5, (6, 2)), rng.uniform(-2.0, 2.0, (6, 2)))
    else:
        state = _blob_state(n=6, scale=0.5, vel_scale=0.3)
    domain = Domain(8.0)
    record = simulate(state, params, domain, 0.05, 0.5, sample_every=1)

    cur = EnsembleState(0.0, domain.wrap(state.positions), state.velocities)
    ring = deque([cur.positions], maxlen=params.h_steps + 1)
    for k, sample in enumerate(record.samples):
        assert np.array_equal(sample.state.positions, cur.positions)
        assert np.array_equal(sample.state.velocities, cur.velocities)
        if k == len(record.samples) - 1:
            break
        assert _same_table(sample.table, dense_table(params, ring[0], domain))
        cur = rk4_step(cur, 0.05, params, ring[0], domain)
        ring.append(cur.positions)
    if params.h_steps > 1:  # the case cannot silently stay static
        gated = [tuple(s.table.sizes() > 0) for s in record.samples]
        assert any(a != b for a, b in zip(gated, gated[1:]))


def _switching_di_run():
    """A delayed di run whose gates switch many times, sampled every step."""
    spec = ScenarioSpec(
        scenario="random_clusters",
        params=_di_params(30, h_steps=3),
        domain=Domain(12.0),
        dt=0.01,
        t_end=2.0,
        sample_every=1,
        seed=5,
        margin=2.0,
    )
    return spec, run_simulation(spec)


def test_topology_epoch_builds_each_digraph_once(monkeypatch):
    calls = []

    def counting_build_digraph(*args):
        calls.append(args)
        return build_digraph(*args)

    monkeypatch.setattr(densiflock.integrate, "build_digraph", counting_build_digraph)
    _, record = _switching_di_run()
    samples = record.samples
    epochs = 1 + sum(not _same_table(a.table, b.table) for a, b in zip(samples, samples[1:]))
    assert 1 < epochs < len(samples)  # the run switches, and epochs span samples
    assert len(calls) == epochs


def test_shared_labels_match_labels_built_from_scratch():
    spec, record = _switching_di_run()
    params = spec.params
    for sample in record.samples:
        table = neighbor_sets_di(
            sample.delayed_positions, params.delta, params.m, spec.domain
        )
        phi = build_digraph(table, params)
        expected = strongly_connected_components(phi)
        assert _same_table(sample.table, table)
        assert np.array_equal(sample.labels.labels, expected.labels)
        assert sample.labels.cluster_count == expected.cluster_count


def test_delayed_positions_lag_the_state_by_h_steps():
    # Two particles out of each other's range stream freely, so every step
    # moves them; step n's topology reads the positions of step max(n - 2, 0).
    initial = EnsembleState(0.0, [[0.0, 0.0], [10.0, 0.0]], [[1.0, 0.5], [-2.0, 0.0]])
    record = simulate(initial, _di_params(2, h_steps=2), Domain(), 0.25, 1.5, sample_every=1)
    samples = record.samples
    assert [s.step for s in samples] == list(range(7))
    assert all(s.table.indptr[-1] == 0 for s in samples)  # no gate ever opens
    for n, sample in enumerate(samples):
        assert np.array_equal(sample.delayed_positions, samples[max(n - 2, 0)].state.positions)


def test_simulate_keeps_no_view_of_the_callers_positions():
    rng = np.random.default_rng(0)
    initial = EnsembleState(0.0, rng.uniform(0, 2, (5, 2)), rng.uniform(-1, 1, (5, 2)))
    params = ModelParams("di", 5, m=2, delta=1.5, h_steps=2)
    record = simulate(initial, params, Domain(), 0.01, 0.05, sample_every=1)
    first = record.samples[0]
    before = first.state.positions.copy()
    delayed = [s.delayed_positions.copy() for s in record.samples]
    initial.positions[0, 0] = 99.0
    initial.velocities[0, 0] = 99.0
    assert np.array_equal(first.state.positions, before)
    assert np.array_equal(first.state.positions, first.delayed_positions)
    for sample, expected in zip(record.samples, delayed):
        assert np.array_equal(sample.delayed_positions, expected)
    assert first.state.velocities[0, 0] != 99.0


def test_run_is_deterministic():
    spec = ScenarioSpec(
        scenario="random_clusters",
        params=_di_params(16),
        domain=Domain(25.0),
        dt=0.01,
        t_end=1.0,
        sample_every=10,
        seed=5,
        margin=2.0,
    )
    a, b = run_simulation(spec), run_simulation(spec)
    for sa, sb in zip(a.samples, b.samples):
        assert np.array_equal(sa.state.positions, sb.state.positions)
        assert np.array_equal(sa.state.velocities, sb.state.velocities)
        assert sa.vmax == sb.vmax


def test_zero_horizon_records_initial_state_only():
    state = _blob_state()
    record = simulate(state, _di_params(5, m=2), Domain(), 0.01, 0.0)
    assert len(record.samples) == 1
    assert record.samples[0].t == 0.0


@pytest.mark.parametrize("t_end", [0.015, 0.025, -0.01, np.nan, np.inf])
def test_simulate_rejects_horizon_off_the_step_grid(t_end):
    with pytest.raises(ValueError, match="t_end"):
        simulate(_blob_state(), _di_params(5, m=2), Domain(), 0.01, t_end)


@pytest.mark.parametrize("dt", [np.inf, np.nan, 0.0, -0.01])
def test_simulate_rejects_a_step_that_is_not_finite_and_positive(dt):
    # dt = inf used to pass: step_count(150, inf) is 0, and t = 0 * inf is nan.
    with pytest.raises(ValueError, match="dt"):
        simulate(_blob_state(), _di_params(5, m=2), Domain(), dt, 150.0)


def test_sample_times_are_exact_grid_multiples():
    state = _blob_state()
    record = simulate(state, _di_params(5, m=2), Domain(), 0.01, 0.5, sample_every=7)
    for s in record.samples:
        assert s.t == s.step * 0.01


def test_integration_fault_reports_step():
    # An absurd coupling puts h*rho = 8e199 far outside the RK4 stability
    # disc, so the Gershgorin check refuses the first step before any value
    # can overflow.
    state = _blob_state(vel_scale=1.0)
    params = _di_params(5, m=2, kappa=1e200)
    with pytest.raises(IntegrationFault, match="unstable step 0") as info:
        simulate(state, params, Domain(), 1.0, 10.0)
    assert info.value.step == 0


@pytest.mark.parametrize(
    "params, domain",
    [(_di_params(4), Domain(6.0)), (_di_params(40), Domain(6.0)), (_di_params(40), Domain()),
     (ModelParams("cs", 5), Domain(6.0))],
    ids=["matrix-box", "dense-box", "dense-plane", "cs-box"],
)
def test_sampled_state_is_one_buffer_with_no_dead_half(params, domain):
    # A step's x' and v' are the two halves of one fresh (2N, d) array, the
    # positions wrapped in place, so a sample keeps no unused copy alive.
    rng = np.random.default_rng(5)
    state = EnsembleState(0.0, rng.uniform(0, 6, (params.N, 2)), rng.normal(size=(params.N, 2)))
    record = simulate(state, params, domain, 0.01, 0.03, sample_every=1)
    for sample in record.samples[1:]:
        x, v = sample.state.positions, sample.state.velocities
        assert x.base is v.base and x.base.nbytes == x.nbytes + v.nbytes


@pytest.mark.parametrize("n", [2, 40])
@pytest.mark.parametrize("speed, dt", [(1.5e308, 0.5), (1e150, 0.75e158)])
def test_non_finite_step_raises_integration_fault_at_that_step(n, speed, dt):
    # Ungated particles drift by 0.75e308 a step: x is 0.75e308 after step 0
    # and 1.5e308 after step 1, and step 2 overflows.  N = 2 takes the step
    # matrix, N = 40 the dense Horner path.  At speed 1e150 the squared speeds
    # are finite, so there only the bound on the positions can refuse to
    # certify the epoch.
    x = np.column_stack([np.zeros(n), 10.0 * np.arange(n)])
    v = np.column_stack([np.full(n, speed), np.zeros(n)])
    assert matrix_step_map(n) == (n == 2) and not csr_step_map(n, n)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(IntegrationFault) as info:
            simulate(EnsembleState(0.0, x, v), _di_params(n), Domain(), dt, 10 * dt)
    assert info.value.step == 2


def test_rk4_disc_radius_is_the_stability_limit():
    # Bisect for the largest c with the disc |z + c| <= c inside |R(z)| <= 1,
    # R the RK4 stability polynomial; by the maximum principle the boundary
    # circle decides.
    theta = np.linspace(0.0, 2 * np.pi, 100_001)

    def inside(c):
        z = -c + c * np.exp(1j * theta)
        return np.abs(1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24).max() <= 1 + 1e-12

    lo, hi = 1.0, 2.0
    for _ in range(50):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if inside(mid) else (lo, mid)
    assert lo == pytest.approx(1.39265, abs=1e-5)
    assert lo - 1e-6 < RK4_DISC_RADIUS <= lo


def test_unstable_step_size_raises_fault():
    # Constant kappa = 10 on a 5-particle blob: rho = 40, so dt = 0.05 gives
    # h*rho = 2 beyond the limit while dt = 0.03 gives 1.2 within it.
    state = _blob_state()
    params = _di_params(5, m=2, kappa=10.0, m_policy="constant")
    simulate(state, params, Domain(), 0.03, 0.3)
    with pytest.raises(IntegrationFault, match=r"h\*rho = 2 .*1\.39") as info:
        simulate(state, params, Domain(), 0.05, 0.5)
    assert info.value.step == 0


def test_unwrapped_positions_accumulate_across_wraps():
    domain = Domain(4.0)
    state = EnsembleState(0.0, [[3.8, 1.0], [1.0, 3.9]], [[1.0, 0.0], [0.0, 1.0]])
    params = _di_params(2)
    record = simulate(state, params, domain, 0.1, 6.0, sample_every=10)
    final = record.samples[-1]
    assert 0 <= final.state.positions[0, 0] < 4.0
    # Each particle travelled 6.0 across the wraps and sits at its image.
    assert final.state.positions[0, 0] == pytest.approx((3.8 + 6.0) % 4.0)
    assert final.state.positions[1, 1] == pytest.approx((3.9 + 6.0) % 4.0)


def test_topology_delay_commutes_with_dt_refinement():
    # Holding h_steps * dt fixed while halving dt changes the trajectory only
    # at integrator order.
    base = ScenarioSpec(
        scenario="random_clusters",
        params=_di_params(16, h_steps=1),
        domain=Domain(25.0),
        dt=0.02,
        t_end=2.0,
        sample_every=100,
        seed=9,
        margin=2.0,
    )
    fine = ScenarioSpec(
        scenario="random_clusters",
        params=_di_params(16, h_steps=2),
        domain=Domain(25.0),
        dt=0.01,
        t_end=2.0,
        sample_every=200,
        seed=9,
        margin=2.0,
    )
    a, b = run_simulation(base), run_simulation(fine)
    assert np.abs(a.samples[-1].state.velocities - b.samples[-1].state.velocities).max() < 1e-5


@pytest.mark.parametrize("params", [ModelParams("cs", 12, m_policy=p) for p in POLICY_KINDS])
def test_cs_family_runs_and_contracts_velocities(params):
    state = _blob_state(n=12, scale=1.0, vel_scale=1.0, seed=8)
    record = simulate(state, params, Domain(), 0.01, 5.0, sample_every=100)
    v = record.vmax_series()
    assert np.isfinite(v).all()
    assert v[-1] < v[0]


@pytest.mark.parametrize("m_policy", POLICY_KINDS)
def test_cs_step_equals_explicit_stages_of_the_dense_weights(m_policy):
    # cs scales psi by the one prefactor M_*; the oracle expands W (N x N,
    # every row M(N, i, N)) and stages the force W psi(|x_i - x_k|) (v_k - v_i).
    state = _blob_state(n=7, scale=2.0, vel_scale=1.0, seed=3)
    params = ModelParams("cs", 7, kappa=1.5, alpha=0.7, m_policy=m_policy)
    table = dense_table(params, state.positions, Domain())
    weights = member_weights(table, params)[0].toarray()

    def accel(x, u):
        w = weights * alignment_weight(cdist(x, x), params.alpha)
        return w @ u - w.sum(axis=1, keepdims=True) * u

    x, v, dt = state.positions, state.velocities, 0.05
    kx1, kv1 = v * dt, accel(x, v) * dt
    kx2, kv2 = (v + kv1 / 2) * dt, accel(x + kx1 / 2, v + kv1 / 2) * dt
    kx3, kv3 = (v + kv2 / 2) * dt, accel(x + kx2 / 2, v + kv2 / 2) * dt
    kx4, kv4 = (v + kv3) * dt, accel(x + kx3, v + kv3) * dt
    out = rk4_step(state, dt, params, state.positions, Domain())
    assert np.array_equal(out.positions, x + (kx1 + 2 * kx2 + 2 * kx3 + kx4) / 6)
    assert np.array_equal(out.velocities, v + (kv1 + 2 * kv2 + 2 * kv3 + kv4) / 6)


# sha256 of every sample's positions and velocities in a short cs run (seeded
# by N, kappa 2, alpha 0.75, dt 0.05 to t = 2): on the box positions wrap, and
# N = 1 has no pair.  flat and per_neighbor both give M_* = kappa / N on cs's
# size-N sets, so one digest serves both.
CS_RUN_DIGESTS = {
    ("plane", 1): "435aca78c92ac14d6180b9a8d03eeeacb76aa60d30be2d364cb947f2dd9938c2",
    ("plane", 2): "803b110ca153bf4c6e4b8c510a650efeec361904214c1ef04dd64ace49ade0bf",
    ("plane", 24): "0244fd82541d950ca3bf29a44f03d18625e87b72124642e76571b8ee5877ab53",
    ("box", 1): "f5704ffa133c816ee72d2c7efe2bf0d198e900782c753807f89a7643a79841af",
    ("box", 2): "df101d180265c08e9c098e923e70c52dfb4b1ead7b6feb267eb96d03d472324b",
    ("box", 24): "c7911fa4f1293c1c90a942fa19177b65575e67d0463e5ef0608e9be6c0eb900a",
}


@pytest.mark.parametrize("m_policy", ["flat", "per_neighbor"])
@pytest.mark.parametrize("n", [1, 2, 24])
@pytest.mark.parametrize("domain", [Domain(), Domain(6.0)], ids=["plane", "box"])
def test_cs_run_keeps_its_digest(domain, n, m_policy):
    rng = np.random.default_rng(n)
    state = EnsembleState(0.0, rng.uniform(0.0, 6.0, (n, 2)), 3 * rng.normal(size=(n, 2)))
    params = ModelParams("cs", n, kappa=2.0, alpha=0.75, m_policy=m_policy)
    record = simulate(state, params, domain, 0.05, 2.0, sample_every=10)
    digest = hashlib.sha256()
    for s in record.samples:
        digest.update(s.state.positions.tobytes() + s.state.velocities.tobytes())
    name = "box" if domain.is_periodic else "plane"
    assert digest.hexdigest() == CS_RUN_DIGESTS[name, n]


# sha256 of every sample's positions, velocities, vmax and momentum in a short
# di run sampled at every step (seeded by N, m 3, delta 2, dt 0.02 to t = 1):
# N = 24 takes the step matrix, N = 40 and 64 the dense Horner path, and the
# velocity diameter of each takes the pair kernel.
DI_SAMPLE_DIGESTS = {
    ("plane", 24): "af94f9323dc455a1e8850833ff9385783cc2d75f97678af9bec89ea27b34c919",
    ("plane", 40): "9beb28f3859d7ca3976c4d7e5b27c84c8bef96a3ce1f55ac1935fa26101d323c",
    ("plane", 64): "2f505c132f8d19eda9b8d4b7638205c0f4bf1567e34d4b739466fb2608bc227b",
    ("box", 24): "ae92f74806ca7388df6672f2b679b43742ffb4f5c521f4630259bc5e396ec1b6",
    ("box", 40): "0888b9c80c7af8d7435d487ff9423a8ff632c013f99cd65e39d3fdd9beaa4977",
    ("box", 64): "5169d2a106177d00804c02a20e10e03389b8983e54bdd462977617ee5e48e65c",
}


@pytest.mark.parametrize("n", [24, 40, 64])
@pytest.mark.parametrize("domain", [Domain(), Domain(12.0)], ids=["plane", "box"])
def test_di_samples_keep_their_digest(domain, n):
    assert matrix_step_map(n) == (n == 24) and not csr_step_map(n, n)
    rng = np.random.default_rng(n)
    state = EnsembleState(0.0, rng.uniform(0.0, 12.0, (n, 2)), rng.normal(size=(n, 2)))
    record = simulate(state, _di_params(n), domain, 0.02, 1.0, sample_every=1)
    assert len(record.samples) == 51
    digest = hashlib.sha256()
    for s in record.samples:
        x, v = s.state.positions, s.state.velocities
        for a in (x, v):
            assert a.dtype == np.float64 and a.shape == (n, 2) and np.isfinite(a).all()
        digest.update(x.tobytes() + v.tobytes())
        digest.update(np.float64(s.vmax).tobytes() + s.momentum.tobytes())
    name = "box" if domain.is_periodic else "plane"
    assert digest.hexdigest() == DI_SAMPLE_DIGESTS[name, n]


def test_simulate_checks_an_initial_state_changed_after_construction():
    # The samples skip the constructor's checks, so simulate repeats them once.
    state = EnsembleState(0.0, [[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]])
    state.velocities[1, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        simulate(state, _di_params(2), Domain(), 0.01, 0.1)
    state.velocities = np.zeros((3, 2))
    with pytest.raises(ValueError, match="shape"):
        simulate(state, _di_params(2), Domain(), 0.01, 0.1)


def test_momentum_conserved_on_symmetric_flat_topology():
    state = _blob_state(n=6, scale=0.4, vel_scale=0.2, seed=12)
    params = _di_params(6, m=2, m_policy="flat")
    record = simulate(state, params, Domain(), 0.01, 5.0, sample_every=50)
    mom = record.momentum_series()
    assert np.abs(mom - mom[0]).max() < 1e-12


# --- the CSR step map, above its crossover ------------------------------------


def _lattice_blob(side=20, seed=6):
    """side^2 particles on a jittered unit lattice filling a periodic box, with
    velocities small enough that under delta = 1.5 each set keeps its 3 x 3
    block for a unit of time."""
    rng = np.random.default_rng(seed)
    grid = np.stack(np.meshgrid(np.arange(side), np.arange(side)), axis=-1).reshape(-1, 2)
    positions = grid + 0.5 + rng.uniform(-0.01, 0.01, grid.shape)
    state = EnsembleState(0.0, positions, rng.uniform(-0.01, 0.01, grid.shape))
    return state, _di_params(side * side, delta=1.5), Domain(float(side))


def test_csr_step_matches_explicit_stages():
    state, params, domain = _lattice_blob()
    state.velocities *= 100.0  # order 1, so the tolerance exceeds an ulp of the positions
    table = neighbor_sets_di(state.positions, params.delta, params.m, domain)
    assert np.array_equal(table.sizes(), np.full(params.N, 9))
    assert csr_step_map(params.N, table.indptr[-1])
    weights = member_weights(table, params)[0].toarray()
    out = rk4_step(state, 0.05, params, state.positions, domain)
    x, v = _explicit_di_rk4(state.positions, state.velocities, 0.05, weights)
    tol = 1e-14 * np.abs(state.velocities).max()
    assert np.abs(out.velocities - v).max() <= tol
    assert np.abs(out.positions - domain.wrap(x)).max() <= tol


def test_csr_run_matches_matrix_exponential():
    state, params, domain = _lattice_blob()
    assert _velocity_error_vs_expm(0.05, state=state, params=params, domain=domain) < 1e-8


def test_csr_run_is_byte_identical_on_rerun():
    state, params, domain = _lattice_blob()
    state.velocities *= 100.0  # topology switches, so the run crosses epochs
    a, b = (simulate(state, params, domain, 0.01, 0.5, sample_every=5) for _ in range(2))
    for sa, sb in zip(a.samples, b.samples, strict=True):
        assert sa.state.positions.tobytes() == sb.state.positions.tobytes()
        assert sa.state.velocities.tobytes() == sb.state.velocities.tobytes()
    assert not _same_table(a.samples[0].table, a.samples[-1].table)


def test_step_map_is_dense_at_the_small_workloads_and_csr_at_n2048():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "specs.py"
    loader = importlib.util.spec_from_file_location("perfbench_specs", path)
    specs = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(specs)
    picked = {}
    for name, configs in specs.WORKLOADS.items():
        for config in configs:
            if config["model"] != "di":
                continue
            spec = parse_config(specs.config_text(config, seed=3)).spec
            x = initial_state(spec).positions
            table = NeighborSearch(spec.params, spec.domain).table(x)
            n = spec.params.N
            picked[name, n] = csr_step_map(n, table.indptr[-1])
            # Dense below the crossover whatever the table holds.
            assert n > 150 or not csr_step_map(n, 0)
    assert picked == {
        ("oracle_n11", 11): False,
        ("observe_n64", 64): False,
        ("formation_run_n64", 64): False,
        ("di_scale_n2048", 2048): True,
    }


def test_step_map_is_a_matrix_product_at_oracle_n11_only():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "specs.py"
    loader = importlib.util.spec_from_file_location("perfbench_specs", path)
    specs = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(specs)
    picked = {}
    for name, configs in specs.WORKLOADS.items():
        for config in configs:
            if config["model"] == "di":
                n = parse_config(specs.config_text(config, seed=3)).spec.params.N
                picked[name, n] = matrix_step_map(n)
    assert picked == {
        ("oracle_n11", 11): True,
        ("observe_n64", 64): False,
        ("formation_run_n64", 64): False,
        ("di_scale_n2048", 2048): False,
    }


# --- the step matrix, below its crossover -------------------------------------


@pytest.mark.parametrize("n, matrix", [(STEP_MATRIX_MAX_N, True), (STEP_MATRIX_MAX_N + 1, False)])
def test_step_matches_explicit_stages_on_both_sides_of_the_matrix_crossover(n, matrix):
    state, params, domain = _blob_state(n, scale=2.0, vel_scale=1.0), _di_params(n), Domain(10.0)
    table = neighbor_sets_di(state.positions, params.delta, params.m, domain)
    assert (table.sizes() > 0).all()
    assert matrix_step_map(n) == matrix and not csr_step_map(n, table.indptr[-1])
    weights = member_weights(table, params)[0].toarray()
    out = rk4_step(state, 0.05, params, state.positions, domain)
    x, v = _explicit_di_rk4(state.positions, state.velocities, 0.05, weights)
    tol = 1e-14 * np.abs(state.velocities).max()
    assert np.abs(out.velocities - v).max() <= tol
    assert np.abs(out.positions - domain.wrap(x)).max() <= tol


def test_matrix_run_is_byte_identical_on_rerun():
    n = 24
    assert matrix_step_map(n)
    state, params, domain = _blob_state(n, scale=3.0, vel_scale=1.0), _di_params(n), Domain(8.0)
    a, b = (simulate(state, params, domain, 0.01, 0.5, sample_every=5) for _ in range(2))
    for sa, sb in zip(a.samples, b.samples, strict=True):
        assert sa.state.positions.tobytes() == sb.state.positions.tobytes()
        assert sa.state.velocities.tobytes() == sb.state.velocities.tobytes()
    assert not _same_table(a.samples[0].table, a.samples[-1].table)


def test_large_di_run_allocates_no_n_by_n_array():
    # N^2 * 8 / 8 bytes: an eighth of one N x N float64 array.
    n = 4096
    L = 25.0 * math.sqrt(n / 64)  # the paper's density, 64 particles per 25 x 25
    params = _di_params(n)
    state = initial_state(ScenarioSpec("random_clusters", params, Domain(L), seed=1))
    tracemalloc.start()
    try:
        record = simulate(state, params, Domain(L), 0.01, 0.02, sample_every=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(record.samples) == 3
    assert peak < n * n * 8 / 8


# --- certified stretches ----------------------------------------------------


def _count_search_calls(monkeypatch):
    calls = []
    table = NeighborSearch.table

    def counting(self, delayed):
        calls.append(1)
        return table(self, delayed)

    monkeypatch.setattr(NeighborSearch, "table", counting)
    return calls


def _assert_stepwise(record, state, params, domain, dt):
    """Every sample equals, bit for bit, rk4_step stepping under the
    brute-force table of the delayed positions."""
    cur = EnsembleState(0.0, domain.wrap(state.positions), state.velocities)
    ring = deque([cur.positions], maxlen=params.h_steps + 1)
    for k, sample in enumerate(record.samples):
        assert sample.step == k
        assert sample.state.positions.tobytes() == cur.positions.tobytes()
        assert sample.state.velocities.tobytes() == cur.velocities.tobytes()
        assert sample.delayed_positions.tobytes() == ring[0].tobytes()
        assert _same_table(sample.table, dense_table(params, ring[0], domain))
        if k < len(record.samples) - 1:
            cur = rk4_step(cur, dt, params, ring[0], domain)
            ring.append(cur.positions)


def _drifting_groups(n=12, seed=2):
    """Two gated groups with small internal velocities on a common drift."""
    rng = np.random.default_rng(seed)
    centres = np.repeat([[1.0, 1.0], [4.0, 3.5]], [n // 2, n - n // 2], axis=0)
    positions = centres + rng.uniform(-0.6, 0.6, (n, 2))
    velocities = [1.0, 0.4] + rng.uniform(-0.05, 0.05, (n, 2))
    return EnsembleState(0.0, positions, velocities)


@pytest.mark.parametrize(
    "domain, h_steps",
    [(Domain(), 1), (Domain(6.0), 1), (Domain(6.0), 2)],
    ids=["plane", "box", "box-delayed"],
)
def test_run_with_stretches_matches_stepwise_rk4(monkeypatch, domain, h_steps):
    state, dt, t_end = _drifting_groups(), 0.01, 8.0
    params = _di_params(12, h_steps=h_steps)
    assert matrix_step_map(params.N)
    calls = _count_search_calls(monkeypatch)
    record = simulate(state, params, domain, dt, t_end, sample_every=1)
    steps = record.samples[-1].step
    assert len(calls) < steps / 4  # most steps lie in stretches
    _assert_stepwise(record, state, params, domain, dt)
    assert record.samples[-1].n_clusters > 1 and record.samples[-1].table.indptr[-1] > 0
    if domain.is_periodic:  # the groups cross the box, so stretches span wraps
        x = np.array([s.state.positions[0, 0] for s in record.samples])
        assert (np.diff(x) < 0).any()


@pytest.mark.parametrize("h_steps", [1, 3])
@pytest.mark.parametrize("damped_pair", [False, True])
@pytest.mark.parametrize("domain", [Domain(), Domain(40.0)], ids=["plane", "box"])
def test_stretch_ends_before_a_head_on_flip(monkeypatch, domain, h_steps, damped_pair):
    # Two particles close in on each other at full speed, so each step moves
    # both by exactly the bound: the last stretch must end before the delayed
    # distance drops below delta, where both gates open (m = 1).  On the box
    # the first starts at 39.5 and wraps to 0 at step 50, inside a stretch.  A
    # gated pair far off, flying apart at 1.5 and damped to rest within a few
    # steps, sets the epoch's bound V = 1.5 above the racing speed 1:
    # stretches then end with the search's displacement short of its margin,
    # and the next one must start from that displacement.
    x, v = [[-0.5, 0.0], [2.505, 0.0]], [[1.0, 0.0], [-1.0, 0.0]]
    if damped_pair:
        x, v = x + [[0.0, 10.0], [0.5, 10.0]], v + [[0.0, 1.5], [0.0, -1.5]]
    state, dt = EnsembleState(0.0, x, v), 0.01
    params = _di_params(len(x), m=1, delta=1.0, kappa=50.0, m_policy="constant", h_steps=h_steps)
    # The distance 3.005 - 0.02 k is below 1 from k = 101 on, so the run's
    # last step is the first whose delayed positions flip the gates.
    steps = 101 + h_steps
    calls = _count_search_calls(monkeypatch)
    record = simulate(state, params, domain, dt, steps * dt, sample_every=1)
    _assert_stepwise(record, state, params, domain, dt)
    assert [s.step for s in record.samples if s.table.sizes()[0]] == [steps]
    assert len(calls) < steps / 2
    if domain.is_periodic:
        assert record.samples[0].state.positions[0, 0] == 39.5
        assert record.samples[-1].state.positions[0, 0] < 1.0


@pytest.mark.parametrize("h_steps", [2, 3, 4])
def test_stretch_waits_h_steps_for_the_delayed_positions(h_steps):
    # A and B, gated, fly apart and are damped to a tenth of their speed by
    # the time their gate closes; B's delayed position, h_steps behind, still
    # moves at the old speed and enters C's ball a step or two later.  A
    # stretch started at the new epoch's first step would bound that motion
    # by the damped speed and miss the flip.
    state = EnsembleState(
        0.0, [[0.0, 0.0], [0.97, 0.0], [0.97 + 1.005, 0.0]], [[-1.0, 0.0], [1.0, 0.0], [0.0, 0.0]]
    )
    params = _di_params(3, m=1, delta=1.0, kappa=30.0, m_policy="constant", h_steps=h_steps)
    record = simulate(state, params, Domain(), 0.01, 1.0, sample_every=1)
    _assert_stepwise(record, state, params, Domain(), 0.01)
    assert record.samples[0].table.sizes().tolist() == [2, 2, 0]
    assert record.samples[-1].table.sizes().tolist() == [0, 2, 2]


@pytest.mark.parametrize("dt_rho, negative", [(0.8, False), (1.2, True)])
def test_step_matrix_with_a_negative_entry_asks_the_search_every_step(
    monkeypatch, dt_rho, negative
):
    # Four particles at rest in a line, 1.5 apart: each is gated with its
    # neighbours (m = 1), and at h rho = 1.2 the step matrix has a negative
    # entry.
    x = np.column_stack([1.5 * np.arange(4), np.zeros(4)])
    state = EnsembleState(0.0, x, np.zeros((4, 2)))
    params, domain = _di_params(4, m=1, m_policy="per_neighbor"), Domain()
    table = neighbor_sets_di(state.positions, params.delta, params.m, domain)
    dt = dt_rho / member_weights(table, params)[1]
    step_map = densiflock.integrate._step_map(table, dt, params, domain, 0)
    assert (step_map.s.min() < 0) == negative
    calls = _count_search_calls(monkeypatch)
    record = simulate(state, params, domain, dt, 20 * dt, sample_every=1)
    assert len(record.samples) == 21 and record.samples[-1].table.indptr[-1] > 0
    assert len(calls) == 21 if negative else len(calls) < 5
