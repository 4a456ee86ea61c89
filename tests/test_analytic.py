"""Closed-form reduced solution and contact-loss times."""
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from densiflock import (
    detach_times,
    eval_v_b,
    reduced_solution,
)
from oracles import eval_v_b_minus_v_a


def integrate_reduced_system(N, v_c, t_eval):
    """Independent high-accuracy integration of the coupled first-order system.

    v_a' = (v_b - v_a),  v_b' = -(N-1)(v_b - v_a) - (v_b - v_c).
    """

    def rhs(_t, y):
        v_a, v_b = y
        return [v_b - v_a, -(N - 1) * (v_b - v_a) - (v_b - v_c)]

    sol = solve_ivp(
        rhs, (0.0, float(t_eval[-1])), [0.0, 0.0], t_eval=t_eval,
        rtol=1e-12, atol=1e-14, method="DOP853",
    )
    assert sol.success
    return sol.y


def test_roots_and_coefficients_reference_values():
    sol = reduced_solution(10, 1.0)
    assert sol.r1 == pytest.approx(-10.90833, abs=1e-5)
    assert sol.r2 == pytest.approx(-0.09167, abs=1e-5)
    assert sol.A == pytest.approx(-0.08398, abs=1e-5)
    assert sol.B == pytest.approx(-0.91602, abs=1e-5)
    assert sol.A + sol.B == pytest.approx(-1.0, abs=1e-12)
    assert sol.A * sol.r1 + sol.B * sol.r2 == pytest.approx(1.0, abs=1e-12)


def test_zero_intruder_velocity_gives_zero_solution():
    sol = reduced_solution(10, 0.0)
    assert sol.A == 0.0 and sol.B == 0.0
    assert eval_v_b(sol, 3.0) == 0.0
    assert eval_v_b_minus_v_a(sol, 3.0) == 0.0


@pytest.mark.parametrize("N", [2, 10, 100, 10_000, 1_000_000])
def test_vieta_identities(N):
    sol = reduced_solution(N, 1.0)
    assert sol.r1 * sol.r2 == pytest.approx(1.0, rel=1e-12)
    assert (sol.r1 + sol.r2) == pytest.approx(-(N + 1), rel=1e-12)


def test_initial_values():
    sol = reduced_solution(30, 0.7)
    assert eval_v_b(sol, 0.0) == pytest.approx(0.0, abs=1e-14)
    assert eval_v_b_minus_v_a(sol, 0.0) == pytest.approx(0.0, abs=1e-14)


def test_long_time_limits():
    sol = reduced_solution(12, 0.9)
    assert eval_v_b(sol, 400.0) == pytest.approx(0.9, abs=1e-12)
    assert eval_v_b_minus_v_a(sol, 400.0) == pytest.approx(0.0, abs=1e-12)


def test_large_n_leading_order():
    # For large N the edge velocity approaches v_c (1 - e^(-t/(N+1))).
    n, v_c = 500, 1.0
    sol = reduced_solution(n, v_c)
    for t in (1.0, 10.0, 100.0):
        approx = v_c * (1.0 - math.exp(-t / (n + 1)))
        assert eval_v_b(sol, t) == pytest.approx(approx, abs=5e-3)


def test_ode_residual_with_analytic_derivatives():
    sol = reduced_solution(30, 1.0)
    rng = np.random.default_rng(0)
    for t in rng.uniform(0, 10, 100):
        v = sol.A * np.exp(sol.r1 * t) + sol.B * np.exp(sol.r2 * t)
        vdot = sol.A * sol.r1 * np.exp(sol.r1 * t) + sol.B * sol.r2 * np.exp(sol.r2 * t)
        vddot = sol.A * sol.r1**2 * np.exp(sol.r1 * t) + sol.B * sol.r2**2 * np.exp(sol.r2 * t)
        assert abs(vddot + 31 * vdot + v) < 1e-9


@pytest.mark.parametrize("N,v_c", [(10, 1.0), (30, 0.5), (50, -0.8)])
def test_closed_forms_match_fine_integration(N, v_c):
    t_eval = np.linspace(0.0, 5.0, 41)
    v_a, v_b = integrate_reduced_system(N, v_c, t_eval)
    sol = reduced_solution(N, v_c)
    assert np.abs(eval_v_b(sol, t_eval) - v_b).max() < 1e-10
    assert np.abs(eval_v_b_minus_v_a(sol, t_eval) - (v_b - v_a)).max() < 1e-10


def test_detach_time_reference_values():
    sol = reduced_solution(30, 1.0)
    times = detach_times(sol, beta=1.0, gamma=2.0, delta=2.0)
    assert times.t_c_approx == pytest.approx(1.0)
    assert times.t_b_approx == pytest.approx(30.0)

    times = detach_times(reduced_solution(30, 1.0), beta=1.95, gamma=2.0, delta=2.0)
    assert times.t_c_approx == pytest.approx(1.95)
    assert times.t_b_approx == pytest.approx(1.5)
    assert times.t_b < times.t_c  # exact ordering agrees


def test_exact_times_satisfy_contact_equations():
    from densiflock.analytic import _int_v_b_minus_v_a, _int_v_b_minus_v_c

    sol = reduced_solution(30, 1.0)
    times = detach_times(sol, beta=1.95, gamma=2.0, delta=2.0)
    assert abs(0.05 + abs(_int_v_b_minus_v_c(sol, times.t_c)) - 2.0) < 1e-8
    assert abs(1.95 + abs(_int_v_b_minus_v_a(sol, times.t_b)) - 2.0) < 1e-8


@pytest.mark.parametrize("N", [30, 60, 120])
@pytest.mark.parametrize("v_c", [0.5, 1.0])
def test_exact_vs_approx_agreement(N, v_c):
    # The leading-order times assume the velocity gap has not yet relaxed,
    # i.e. separation well before the slow time N+1; within that regime the
    # exact roots stay within 15%.  (Slower intruders drift past the linear
    # estimate; see test_exact_times_lag_for_slow_intruders.)
    sol = reduced_solution(N, v_c)
    times = detach_times(sol, beta=1.9, gamma=2.0, delta=2.0)
    assert times.t_b_approx <= (N + 1) / 2
    assert times.t_c is not None and times.t_b is not None
    assert abs(times.t_c - times.t_c_approx) / times.t_c <= 0.15
    assert abs(times.t_b - times.t_b_approx) / times.t_b <= 0.15


def test_exact_times_lag_for_slow_intruders():
    # Separation times comparable to N+1 fall outside the linear regime: the
    # exact root is strictly later than the leading-order estimate.
    sol = reduced_solution(30, 0.25)
    times = detach_times(sol, beta=1.9, gamma=2.0, delta=2.0)
    assert times.t_b > times.t_b_approx


def test_separation_can_be_absent():
    # Tiny intruder velocity: displacement saturates below the gap, no roots.
    sol = reduced_solution(30, 0.01)
    times = detach_times(sol, beta=1.0, gamma=2.0, delta=2.0)
    assert times.t_c is None and times.t_b is None


def test_zero_velocity_gives_infinite_approximations():
    sol = reduced_solution(30, 0.0)
    times = detach_times(sol, beta=1.0, gamma=2.0, delta=2.0)
    assert math.isinf(times.t_c_approx) and math.isinf(times.t_b_approx)
    assert times.t_c is None and times.t_b is None


def test_constraint_validation():
    sol = reduced_solution(30, 1.0)
    with pytest.raises(ValueError):
        detach_times(sol, beta=2.5, gamma=3.0, delta=2.0)
    with pytest.raises(ValueError):
        reduced_solution(1, 1.0)
