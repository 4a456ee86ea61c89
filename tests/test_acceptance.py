"""Acceptance battery: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
"""
import time
from functools import partial

import numpy as np
import pytest

from densiflock import (
    Domain,
    ModelParams,
    ScenarioSpec,
    classify_chain,
    classify_three_body,
    predict_three_body,
    run_simulation,
)
from densiflock.cli import sweep_runs
from densiflock.experiments import (
    certificate_experiment,
    lattice_state,
    momentum_experiment,
    oracle_run,
)
from oracles import dense_distances, density_ratio, is_r_densely_packed

DOCUMENTED_SEED = 0  # fixed seed for the qualitative cluster-formation checks


def report(num, name, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    print(f"[{verdict}] criterion {num:02d} {name}: {detail}")
    assert ok, f"criterion {num:02d} {name}: {detail}"


def test_criterion_01_oracle_equivalence():
    t0 = time.perf_counter()
    _, _, err = oracle_run(dt=1e-3)
    elapsed = time.perf_counter() - t0
    _, _, err_half = oracle_run(dt=5e-4)
    ratio = err / err_half
    ok = err <= 1e-6 and ratio >= 12.0 and elapsed < 1.0
    report(
        1, "oracle equivalence", ok,
        f"max_err={err:.3e} (<=1e-6), halving ratio={ratio:.1f} (>=12), "
        f"runtime={elapsed:.2f}s (<1s)",
    )


def test_criterion_02_velocity_diameter_monotone():
    spec = ScenarioSpec(
        scenario="random_clusters",
        params=ModelParams(model="di", N=64, m=3, delta=2.0, kappa=1.0,
                           m_policy="per_neighbor"),
        domain=Domain(25.0),
        dt=0.01,
        t_end=150.0,
        sample_every=1,
        seed=DOCUMENTED_SEED,
        margin=2.0,
    )
    v = run_simulation(spec).vmax_series()
    worst_rise = float((v[1:] - v[:-1]).max())
    tol = 1e-8 * v[0]
    ok = worst_rise <= tol
    report(
        2, "velocity diameter monotone", ok,
        f"worst step rise={worst_rise:.3e} (tol {tol:.3e}) over {len(v) - 1} steps",
    )


def test_criterion_03_momentum_conservation():
    state = lattice_state(spacing=0.8)
    packed = is_r_densely_packed(state.positions, np.arange(9), r=2.0, m=3).is_packed
    drift = momentum_experiment()
    ok = packed and drift <= 1e-10
    report(
        3, "momentum conservation", ok,
        f"lattice packed={packed}, max drift={drift:.3e} (<=1e-10) over t in [0,50]",
    )


def test_criterion_04_flocking_certificate():
    cert = certificate_experiment()
    ok = (
        cert.certificate_holds
        and cert.packed_throughout
        and cert.r_squared >= 0.95
        and cert.fitted_rate >= 0.8 * cert.promised_rate
    )
    report(
        4, "flocking certificate", ok,
        f"m_star={cert.m_star:.3f} > threshold={cert.threshold:.3f}, "
        f"rate={cert.fitted_rate:.3f} >= 0.8*{cert.promised_rate:.3f}, "
        f"R2={cert.r_squared:.4f}, packed to t=100: {cert.packed_throughout}",
    )


def _three_body_spec(beta, v_c, dt, t_end):
    n = 30
    return ScenarioSpec(
        scenario="three_body",
        params=ModelParams(model="di", N=n + 1, m=3, delta=2.0, kappa=1.0,
                           m_policy="constant"),
        domain=Domain(),
        dt=dt,
        t_end=t_end,
        sample_every=5,
        seed=2,
        beta=beta,
        gamma=2.0,
        v_c=v_c,
    )


def test_criterion_05_regime_table():
    cases = [
        (1.0, 1.0, "stability", 30.0),
        (1.95, 1.0, "breaking", 30.0),
        (1.0, 0.03, "sticking", 93.0),
    ]
    details = []
    ok = True
    for beta, v_c, expected, t_end in cases:
        predicted = predict_three_body(beta, 2.0, 2.0, 30, v_c).regime
        classified = classify_three_body(
            run_simulation(_three_body_spec(beta, v_c, 0.01, t_end))
        ).regime
        halved = classify_three_body(
            run_simulation(_three_body_spec(beta, v_c, 0.005, t_end))
        ).regime
        agrees = predicted == classified == halved == expected
        ok = ok and agrees
        details.append(f"(beta={beta}, v_c={v_c}) -> {classified}")
    report(5, "regime table", ok, "; ".join(details))


THREE_BODY_BASE = """\
scenario = three_body
model = di
n = 30
delta = 2.0
m_policy = constant
gamma = 2.0
v_c = 1.0
beta = 1.0
dt = 0.01
t_end = 12.0
sample_every = 5
seed = 2
"""


def test_criterion_06_breaking_boundary():
    betas = [f"{b:.2f}" for b in np.arange(1.86, 1.995, 0.01)]
    rows = sweep_runs(THREE_BODY_BASE, {"beta": betas}, master_seed=3)
    boundary = None
    for prev, cur in zip(rows, rows[1:]):
        if prev.regime == "stability" and cur.regime == "breaking":
            boundary = float(cur.overrides["beta"])
    target = 30 * 2.0 / 31
    ok = boundary is not None and abs(boundary - target) <= 0.05
    report(
        6, "breaking boundary", ok,
        f"sweep boundary beta={boundary} vs N*delta/(N+1)={target:.4f}",
    )


def test_criterion_07_density_ratio():
    rho_a, rho_m = density_ratio(64, 3, 2.0, 25.0)
    ratio = rho_m / rho_a
    ok = abs(ratio - 2.33) <= 0.01
    report(7, "density ratio", ok, f"rho_m/rho_a={ratio:.4f} (2.33 +- 0.01)")


def _cluster_formation_spec(model):
    if model == "di":
        params = ModelParams(model="di", N=64, m=3, delta=2.0, kappa=1.0)
    else:
        params = ModelParams(model="cs", N=64, kappa=1.0)
    return ScenarioSpec(
        scenario="random_clusters",
        params=params,
        domain=Domain(25.0),
        dt=0.01,
        t_end=150.0,
        sample_every=50,
        seed=DOCUMENTED_SEED,
        margin=2.0,
    )


def test_criterion_08_cluster_formation():
    di_final = run_simulation(_cluster_formation_spec("di")).samples[-1]
    cs_final = run_simulation(_cluster_formation_spec("cs")).samples[-1]
    packed_ok = True
    big = 0
    for members in di_final.labels.clusters():
        if len(members) > 3:
            big += 1
            rep = is_r_densely_packed(
                di_final.delayed_positions, members, r=2.0, m=3,
                dist=partial(dense_distances, Domain(25.0)),
            )
            packed_ok = packed_ok and rep.is_packed
    ok = di_final.n_clusters >= 2 and cs_final.n_clusters == 1 and big >= 1 and packed_ok
    report(
        8, "cluster formation", ok,
        f"seed={DOCUMENTED_SEED}: di clusters={di_final.n_clusters} (>=2), "
        f"cs clusters={cs_final.n_clusters} (==1), "
        f"all {big} clusters of size>m packed={packed_ok}",
    )


GROUP_BASE = """\
scenario = group_vs_individual
model = di
delta = 2.0
dt = 0.01
t_end = 30.0
sample_every = 10
shape = a
spacing = 1.0
"""


def test_criterion_09_momentum_flip_calibration():
    # The conservative baseline first.
    drifts = []
    for shape in ("a", "b"):
        spec = ScenarioSpec(
            scenario="group_vs_individual",
            params=ModelParams(model="cs", N=29, kappa=1.0),
            domain=Domain(),
            dt=0.01,
            t_end=30.0,
            sample_every=10,
            shape=shape,
        )
        mom = run_simulation(spec).momentum_series()
        drifts.append(float(np.abs(mom - mom[0]).max()))
    cs_ok = max(drifts) <= 1e-10

    rows = sweep_runs(
        GROUP_BASE, {"shape": ["a", "b"], "spacing": ["0.8", "1.0"]}, master_seed=4
    )
    flips = {(r.overrides["shape"], r.overrides["spacing"]): r.regime for r in rows}
    a_flip = [k for k, v in flips.items() if k[0] == "a" and v == "flip"]
    b_hold = [k for k, v in flips.items() if k[0] == "b" and v == "no_flip"]
    ok = cs_ok and a_flip and b_hold
    report(
        9, "momentum flip calibration", ok,
        f"cs drift={max(drifts):.2e} (<=1e-10); flipping A shapes={a_flip}, "
        f"holding B shapes={b_hold}",
    )


def _chain_spec(delta):
    return ScenarioSpec(
        scenario="chain",
        params=ModelParams(model="di", N=22, m=3, delta=float(delta), kappa=1.0,
                           m_policy="constant"),
        domain=Domain(),
        dt=0.01,
        t_end=30.0,
        sample_every=10,
    )


def test_criterion_10_chain_regimes():
    narrow = classify_chain(run_simulation(_chain_spec(2)))
    wide = classify_chain(run_simulation(_chain_spec(4)))
    ok = (
        narrow.split
        and not wide.split
        and wide.single_vx_final < 0
        and wide.chain_vx_final < 0
    )
    report(
        10, "chain regimes", ok,
        f"delta=2: clusters {narrow.initial_clusters}->{narrow.final_clusters} "
        f"(split={narrow.split}); delta=4: split={wide.split}, "
        f"chain_vx={wide.chain_vx_final:+.3f}, single_vx={wide.single_vx_final:+.3f}",
    )
