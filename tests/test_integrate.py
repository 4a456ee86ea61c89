"""Stepping scheme, delay buffer, domains, and the run loop."""
import numpy as np
import pytest
from scipy.linalg import expm

from densiflock import (
    DelayBuffer,
    Domain,
    EnsembleState,
    IntegrationFault,
    ModelParams,
    ScenarioSpec,
    neighbor_sets_di,
    neighbor_table_for_step,
    rk4_step,
    run_simulation,
    simulate,
)
from densiflock.dynamics import member_weights
from densiflock.errors import ConfigError
from densiflock.integrate import RK4_DISC_RADIUS


# --- delay buffer ------------------------------------------------------------


def test_delay_buffer_returns_initial_until_aged():
    snapshots = [np.full((1, 2), float(k)) for k in range(5)]
    buf = DelayBuffer(h_steps=2, initial=snapshots[0])
    # Step n uses x_{max(n-2, 0)}.
    assert buf.delayed()[0, 0] == 0  # step 0
    buf.push(snapshots[1])
    assert buf.delayed()[0, 0] == 0  # step 1
    buf.push(snapshots[2])
    assert buf.delayed()[0, 0] == 0  # step 2
    buf.push(snapshots[3])
    assert buf.delayed()[0, 0] == 1  # step 3
    buf.push(snapshots[4])
    assert buf.delayed()[0, 0] == 2  # step 4


def test_delay_buffer_copies_snapshots():
    x = np.zeros((1, 2))
    buf = DelayBuffer(1, x)
    x[0, 0] = 99.0
    assert buf.delayed()[0, 0] == 0.0


def test_delay_buffer_rejects_zero_delay():
    with pytest.raises(ValueError):
        DelayBuffer(0)


# --- domains ------------------------------------------------------------------


def test_min_image_wraparound():
    domain = Domain.periodic(25.0)
    assert domain.distances([0.5, 0.0], [24.9, 0.0])[0, 0] == pytest.approx(0.6)
    assert domain.distances([3.0, 4.0], [3.0, 4.0])[0, 0] == 0.0
    assert domain.distances([0.0, 0.0], [12.5, 0.0])[0, 0] == pytest.approx(12.5)


def test_unbounded_distance_is_euclidean():
    domain = Domain.unbounded()
    assert domain.distances([0.0, 0.0], [3.0, 4.0])[0, 0] == pytest.approx(5.0)


def test_wrap_maps_into_box():
    domain = Domain.periodic(10.0)
    wrapped = domain.wrap(np.array([[10.0, -0.1], [23.5, 5.0]]))
    assert np.allclose(wrapped, [[0.0, 9.9], [3.5, 5.0]])


def test_periodic_box_side_must_be_finite():
    with pytest.raises(ConfigError, match="L"):
        Domain.periodic(float("inf"))


# --- single steps ----------------------------------------------------------------


def _di_params(n, **kw):
    defaults = dict(model="di", N=n, m=3, delta=2.0, kappa=1.0)
    defaults.update(kw)
    return ModelParams(**defaults)


def test_rk4_free_streaming_exact():
    # Gated-out particles keep their velocity and move linearly.
    state = EnsembleState(0.0, [[0.0, 0.0], [10.0, 0.0]], [[1.0, 0.5], [-2.0, 0.0]])
    params = _di_params(2)
    domain = Domain.unbounded()
    buf = DelayBuffer(1, state.positions)
    out = rk4_step(state, 0.25, params, buf, domain)
    assert np.array_equal(out.velocities, state.velocities)
    assert np.allclose(out.positions, state.positions + 0.25 * state.velocities, atol=0)


def test_rk4_periodic_reentry():
    domain = Domain.periodic(5.0)
    state = EnsembleState(0.0, [[4.9, 1.0], [2.0, 2.0]], [[1.0, 0.0], [0.0, 0.0]])
    params = _di_params(2)
    buf = DelayBuffer(1, state.positions)
    out = rk4_step(state, 0.5, params, buf, domain)
    assert out.positions[0, 0] == pytest.approx(0.4)
    assert np.array_equal(out.velocities, state.velocities)


def _blob_state(n=5, scale=0.3, vel_scale=0.01, seed=4):
    rng = np.random.default_rng(seed)
    pos = rng.uniform(-scale, scale, (n, 2))
    vel = rng.uniform(-vel_scale, vel_scale, (n, 2))
    return EnsembleState(0.0, pos, vel)


def _velocity_error_vs_expm(dt, t_end=1.0):
    """Fixed-topology velocities against the exact matrix exponential."""
    state = _blob_state()
    params = _di_params(5, m=2)
    domain = Domain.unbounded()
    table = neighbor_sets_di(state.positions, params.delta, params.m)
    w, _ = member_weights(table.membership_matrix(), params.policy(), 5)
    lap = np.diag(w.sum(axis=1)) - w
    record = simulate(state, params, domain, dt, t_end, sample_every=10**9)
    final = record.samples[-1]
    assert final.table.same_as(table)  # topology never switched
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
        ModelParams(model="cs_delta", N=6, delta=2.0),
        ModelParams(model="cs_q", N=6, q=2),
    ],
)
def test_simulate_matches_stepwise_rk4(params):
    # The run loop's fast path reproduces the public per-step operation bitwise.
    state = _blob_state(n=6, scale=0.5, vel_scale=0.3)
    domain = Domain.periodic(8.0)
    record = simulate(state, params, domain, 0.05, 0.5, sample_every=1)

    cur = EnsembleState(0.0, domain.wrap(state.positions), state.velocities)
    buf = DelayBuffer(params.h_steps, cur.positions)
    for k, sample in enumerate(record.samples):
        assert np.array_equal(sample.state.positions, cur.positions)
        assert np.array_equal(sample.state.velocities, cur.velocities)
        if k == len(record.samples) - 1:
            break
        table = neighbor_table_for_step(params, cur, buf, domain)
        assert sample.table.same_as(table)
        cur = rk4_step(cur, 0.05, params, buf, domain)
        buf.push(cur.positions)


def test_run_is_deterministic():
    spec = ScenarioSpec(
        scenario="random_clusters",
        params=_di_params(16),
        domain=Domain.periodic(25.0),
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
    record = simulate(state, _di_params(5, m=2), Domain.unbounded(), 0.01, 0.0)
    assert len(record.samples) == 1
    assert record.samples[0].t == 0.0


@pytest.mark.parametrize("t_end", [0.015, 0.025, -0.01, np.nan, np.inf])
def test_simulate_rejects_horizon_off_the_step_grid(t_end):
    with pytest.raises(ValueError, match="t_end"):
        simulate(_blob_state(), _di_params(5, m=2), Domain.unbounded(), 0.01, t_end)


def test_sample_times_are_exact_grid_multiples():
    state = _blob_state()
    record = simulate(state, _di_params(5, m=2), Domain.unbounded(), 0.01, 0.5, sample_every=7)
    for s in record.samples:
        assert s.t == s.step * 0.01


def test_integration_fault_reports_step():
    # An absurd coupling overflows within the first few steps.
    state = _blob_state(vel_scale=1.0)
    params = _di_params(5, m=2, kappa=1e200)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(IntegrationFault) as info:
            simulate(state, params, Domain.unbounded(), 1.0, 10.0)
    assert info.value.step >= 0


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
    simulate(state, params, Domain.unbounded(), 0.03, 0.3)
    with pytest.raises(IntegrationFault, match=r"h\*rho = 2 .*1\.39") as info:
        simulate(state, params, Domain.unbounded(), 0.05, 0.5)
    assert info.value.step == 0


def test_unwrapped_positions_accumulate_across_wraps():
    domain = Domain.periodic(4.0)
    state = EnsembleState(0.0, [[3.8, 1.0], [1.0, 3.9]], [[1.0, 0.0], [0.0, 1.0]])
    params = _di_params(2)
    record = simulate(state, params, domain, 0.1, 6.0, sample_every=10)
    final = record.samples[-1]
    assert final.unwrapped[0, 0] == pytest.approx(3.8 + 6.0)
    assert final.unwrapped[1, 1] == pytest.approx(3.9 + 6.0)
    assert 0 <= final.state.positions[0, 0] < 4.0


def test_topology_delay_commutes_with_dt_refinement():
    # Holding h_steps * dt fixed while halving dt changes the trajectory only
    # at integrator order.
    base = ScenarioSpec(
        scenario="random_clusters",
        params=_di_params(16, h_steps=1),
        domain=Domain.periodic(25.0),
        dt=0.02,
        t_end=2.0,
        sample_every=100,
        seed=9,
        margin=2.0,
    )
    fine = ScenarioSpec(
        scenario="random_clusters",
        params=_di_params(16, h_steps=2),
        domain=Domain.periodic(25.0),
        dt=0.01,
        t_end=2.0,
        sample_every=200,
        seed=9,
        margin=2.0,
    )
    a, b = run_simulation(base), run_simulation(fine)
    assert np.abs(a.samples[-1].state.velocities - b.samples[-1].state.velocities).max() < 1e-5


@pytest.mark.parametrize(
    "params",
    [
        ModelParams(model="cs", N=12),
        ModelParams(model="cs_delta", N=12, delta=2.0),
        ModelParams(model="cs_q", N=12, q=3),
    ],
)
def test_cs_family_runs_and_contracts_velocities(params):
    state = _blob_state(n=12, scale=1.0, vel_scale=1.0, seed=8)
    record = simulate(state, params, Domain.unbounded(), 0.01, 5.0, sample_every=100)
    v = record.vmax_series()
    assert np.isfinite(v).all()
    assert v[-1] < v[0]


def test_momentum_conserved_on_symmetric_flat_topology():
    state = _blob_state(n=6, scale=0.4, vel_scale=0.2, seed=12)
    params = _di_params(6, m=2, m_policy="flat")
    record = simulate(state, params, Domain.unbounded(), 0.01, 5.0, sample_every=50)
    mom = record.momentum_series()
    assert np.abs(mom - mom[0]).max() < 1e-12
