"""Experiments behind the acceptance checks and the verify battery: the
three-body oracle run, the lattice momentum and flocking-certificate runs,
and the checks that judge them against scaled tolerances.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analytic import eval_v_b, reduced_solution
from .domains import Domain
from .dynamics import EnsembleState, ModelParams
from .graph import fiedler_value, flocking_certificate, log_linear_fit
from .integrate import simulate
from .scenarios import ScenarioSpec, run_simulation

ORACLE_SPEC = dict(n=10, v_c=1.0, beta=7.5, gamma=8.75, delta=8.7)


def oracle_run(dt: float = 1e-3) -> tuple:
    """Three-body run to t = 10 whose topology stays fixed, plus its closed-form solution.

    Geometry is chosen so neither separation happens before t = 10; the edge
    member's simulated velocity can then be compared pointwise against the
    reduced solution.  Returns (record, solution, max_abs_error).
    """
    n = ORACLE_SPEC["n"]
    spec = ScenarioSpec(
        scenario="three_body",
        params=ModelParams(
            model="di", N=n + 1, m=3, delta=ORACLE_SPEC["delta"], kappa=1.0,
            m_policy="constant",
        ),
        domain=Domain.unbounded(),
        dt=dt,
        t_end=10.0,
        sample_every=100,
        seed=1,
        n_cluster=n,
        beta=ORACLE_SPEC["beta"],
        gamma=ORACLE_SPEC["gamma"],
        v_c=ORACLE_SPEC["v_c"],
    )
    record = run_simulation(spec)
    sol = reduced_solution(n, ORACLE_SPEC["v_c"])
    err = max(
        abs(float(s.state.velocities[n - 1, 0]) - eval_v_b(sol, s.t))
        for s in record.samples
    )
    return record, sol, float(err)


def lattice_state(spacing: float = 1.0) -> EnsembleState:
    """3x3 lattice with small seeded velocities, used by the lattice checks."""
    gx, gy = np.meshgrid(np.arange(3) * spacing, np.arange(3) * spacing)
    positions = np.column_stack([gx.ravel(), gy.ravel()])
    velocities = np.random.default_rng(3).uniform(-0.05, 0.05, size=positions.shape)
    return EnsembleState(0.0, positions, velocities)


def momentum_experiment() -> float:
    """Max momentum drift of a packed 3x3 lattice under flat normalization, t in [0, 50]."""
    state = lattice_state(spacing=0.8)
    params = ModelParams(model="di", N=9, m=3, delta=2.0, kappa=1.0, m_policy="flat")
    record = simulate(state, params, Domain.unbounded(), 0.01, 50.0, sample_every=10)
    mom = record.momentum_series()
    return float(np.abs(mom - mom[0]).max())


@dataclass
class CertificateOutcome:
    lambda2: float
    m_star: float
    threshold: float
    promised_rate: float
    fitted_rate: float
    r_squared: float
    packed_throughout: bool
    certificate_holds: bool


def certificate_experiment() -> CertificateOutcome:
    """Drive a 3x3 lattice above the flocking-certificate threshold to t = 100 and measure.

    Spacing equals r = delta/2; lambda2 comes from the lattice's influence
    graph; kappa is then set so M_* exceeds 2/(lambda2 (delta - r)) by a
    factor of 1.5.  The fitted decay rate of max_i |v_i - v_mean| over the
    first half of the decay is compared against M_* lambda2.
    """
    delta, m, r = 2.0, 3, 1.0
    state = lattice_state(spacing=r)
    n = state.n

    # Phi of the initial table at kappa = 1, from a zero-step run.
    unit = ModelParams(model="di", N=n, m=m, delta=delta, m_policy="flat")
    lam2 = fiedler_value(simulate(state, unit, Domain.unbounded(), 0.01, 0.0).samples[0].phi)
    threshold = 2.0 / (lam2 * (delta - r))
    kappa = 1.5 * n * threshold  # flat policy: M_* = kappa / n
    params = ModelParams(model="di", N=n, m=m, delta=delta, kappa=kappa, m_policy="flat")
    m_star = params.policy().m_star(n)
    cert = flocking_certificate(r, delta, m_star, lam2)

    record = simulate(state, params, Domain.unbounded(), 0.01, 100.0, sample_every=10)
    # The whole lattice is delta-densely packed iff the gate is on everywhere
    # (every open delta-ball on the delayed positions holds more than m) and
    # the gated digraph, then the full delta-graph, is one component.
    packed = all(s.n_clusters == 1 and (s.table.sizes() > 0).all() for s in record.samples)

    times = record.times()
    mean_v = record.samples[0].momentum / n
    gaps = np.array(
        [np.linalg.norm(s.state.velocities - mean_v, axis=1).max() for s in record.samples]
    )
    slope, r2 = _first_half_decay_fit(times, gaps)
    return CertificateOutcome(
        lambda2=lam2,
        m_star=m_star,
        threshold=threshold,
        promised_rate=m_star * lam2,
        fitted_rate=-slope,
        r_squared=r2,
        packed_throughout=packed,
        certificate_holds=cert.holds,
    )


def _first_half_decay_fit(times, values) -> tuple[float, float]:
    """Log-linear fit over the first half of the decay (down to 1e-12 of start)."""
    values = np.asarray(values, dtype=float)
    floor = values[0] * 1e-12
    below = np.flatnonzero(values <= floor)
    t_floor = times[below[0]] if len(below) else times[-1]
    window = (times <= t_floor / 2) & (values > 0)
    slope, _, r2 = log_linear_fit(times[window], values[window])
    return slope, r2


@dataclass
class CheckResult:
    name: str
    passed: bool
    measured: float
    threshold: float
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"[{status}] {self.name}: measured={self.measured:.6g} "
            f"threshold={self.threshold:.6g} {self.detail}".rstrip()
        )


def verify_suite(tol_scale: float = 1.0) -> list[CheckResult]:
    """Invariant battery mirroring the acceptance checks; tol_scale < 1 tightens."""
    checks: list[CheckResult] = []

    _, _, err = oracle_run()
    tol = 1e-6 * tol_scale
    checks.append(CheckResult("oracle-equivalence", err <= tol, err, tol))

    spec = ScenarioSpec(
        scenario="random_clusters",
        params=ModelParams(model="di", N=64, m=3, delta=2.0, kappa=1.0),
        domain=Domain.periodic(25.0),
        dt=0.01,
        t_end=30.0,
        sample_every=1,
        seed=7,
        margin=2.0,
    )
    v = run_simulation(spec).vmax_series()
    worst = float((v[1:] - v[:-1]).max())
    tol = 1e-8 * tol_scale * v[0]
    checks.append(CheckResult("vmax-monotone", worst <= tol, worst, tol))

    drift = momentum_experiment()
    tol = 1e-10 * tol_scale
    checks.append(CheckResult("momentum-conservation", drift <= tol, drift, tol))

    cert = certificate_experiment()
    # A rate requirement tightens by division: tol_scale -> 0 demands an
    # unattainable rate, mirroring the error tolerances going to zero.
    required = (
        0.8 * cert.promised_rate / tol_scale if tol_scale > 0 else float("inf")
    )
    ok = (
        cert.certificate_holds
        and cert.packed_throughout
        and cert.r_squared >= 0.95
        and cert.fitted_rate >= required
    )
    detail = (
        f"(promised={cert.promised_rate:.4g}, R2={cert.r_squared:.4f}, "
        f"packed={cert.packed_throughout})"
    )
    checks.append(
        CheckResult("flocking-certificate", ok, cert.fitted_rate, required, detail)
    )
    return checks
