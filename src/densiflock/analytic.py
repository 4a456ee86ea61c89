"""Closed-form solution of the reduced cluster-and-intruder system.

While the topology of the three-body setting (a resting N-cluster whose edge
member b also hears a free intruder c) is unchanged, the edge velocity
relative to the intruder V_b = v_b - v_c obeys

    V_b'' + (N + 1) V_b' + V_b = 0,   V_b(0) = -v_c,  V_b'(0) = v_c,

whose characteristic roots multiply to one.  This module evaluates the exact
solution, the relative displacements it implies, and the resulting contact
loss times, serving as an oracle for the integrator.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ReducedSolution:
    """Roots and coefficients of V_b(t) = A e^(r1 t) + B e^(r2 t)."""

    N: int
    v_c: float
    r1: float
    r2: float
    A: float
    B: float


def reduced_solution(N: int, v_c: float) -> ReducedSolution:
    """Solve the initial-value problem exactly.

    The large root is cancellation-free; the small root is recovered as its
    reciprocal (the root product is exactly one), which keeps both accurate
    for very large N.
    """
    if N < 2:
        raise ValueError("N must be >= 2")
    p = N + 1.0
    r1 = (-p - math.sqrt(p * p - 4.0)) / 2.0
    r2 = 1.0 / r1
    den = r2 - r1
    a = -v_c * (1.0 + r2) / den
    b = v_c * (1.0 + r1) / den
    return ReducedSolution(N, float(v_c), r1, r2, a, b)


def eval_v_b(sol: ReducedSolution, t):
    """Edge-member velocity v_b(t) = v_c + A e^(r1 t) + B e^(r2 t)."""
    t = np.asarray(t, dtype=float)
    out = sol.v_c + sol.A * np.exp(sol.r1 * t) + sol.B * np.exp(sol.r2 * t)
    return float(out) if out.ndim == 0 else out


def _int_v_b_minus_v_c(sol: ReducedSolution, t: float) -> float:
    """Integral of (v_b - v_c) from 0 to t, evaluated in closed form."""
    return sol.A * (math.exp(sol.r1 * t) - 1.0) / sol.r1 + sol.B * (
        math.exp(sol.r2 * t) - 1.0
    ) / sol.r2


def _int_v_b_minus_v_a(sol: ReducedSolution, t: float) -> float:
    """Integral of (v_b - v_a) from 0 to t, evaluated in closed form."""
    n = float(sol.N)
    tail = (1.0 - math.exp(-n * t)) / n
    return -(
        sol.A * ((math.exp(sol.r1 * t) - 1.0) / sol.r1 - tail) / (n + sol.r1)
        + sol.B * ((math.exp(sol.r2 * t) - 1.0) / sol.r2 - tail) / (n + sol.r2)
    )


def _contact_loss_time(offset: float, delta: float, integral, sol: ReducedSolution):
    """First t with offset + |integral(t)| = delta, or None when never reached.

    Callers pass offset < delta, so the budget is positive."""
    # Imported here: only this root search needs scipy.optimize, and loading
    # it with the package would slow every `import densiflock`.
    from scipy.optimize import bisect

    budget = delta - offset
    # The gap's limit: every exponential in the closed form vanishes at t = inf.
    if abs(integral(sol, math.inf)) <= budget:
        return None
    f = lambda t: abs(integral(sol, t)) - budget
    hi = 1.0
    while f(hi) < 0:
        hi *= 2.0
        if hi > 1e12:
            return None
    return float(bisect(f, 0.0, hi, xtol=1e-9))


@dataclass(frozen=True)
class DetachTimes:
    """Contact-loss times: leading-order estimates and exact root solutions."""

    t_c_approx: float
    t_b_approx: float
    t_c: float | None
    t_b: float | None


def detach_times(sol: ReducedSolution, beta: float, gamma: float, delta: float) -> DetachTimes:
    """When does the intruder leave the edge member's range, and the edge member the core's?

    The leading-order estimates are (delta - (gamma - beta)) / |v_c| and
    N (delta - beta) / |v_c|.  The exact values solve
    |gamma - beta| + |int (v_b - v_c)| = delta and
    |beta| + |int (v_b - v_a)| = delta with the closed-form integrals;
    None marks a separation that never happens.
    """
    if not (0 < beta < delta and gamma >= delta and gamma - beta < delta):
        raise ValueError("requires 0 < beta < delta <= gamma and gamma - beta < delta")
    speed = abs(sol.v_c)
    if speed == 0:
        return DetachTimes(math.inf, math.inf, None, None)
    t_c_approx = (delta - (gamma - beta)) / speed
    t_b_approx = sol.N * (delta - beta) / speed
    t_c = _contact_loss_time(abs(gamma - beta), delta, _int_v_b_minus_v_c, sol)
    t_b = _contact_loss_time(abs(beta), delta, _int_v_b_minus_v_a, sol)
    return DetachTimes(t_c_approx, t_b_approx, t_c, t_b)
