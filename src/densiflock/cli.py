"""Command line front end: run, sweep, verify, and file output.

Exit codes: 0 success, 1 configuration error, 2 integration fault,
3 verification failure.
"""
from __future__ import annotations

import argparse
import itertools
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .analytic import eval_v_b, reduced_solution
from .config import RunConfig, parse_config
from .domains import Domain
from .dynamics import EnsembleState, ModelParams, MPolicy, neighbor_sets_di
from .errors import ConfigError, IntegrationFault
from .graph import (
    build_digraph,
    fiedler_value,
    flocking_certificate,
    is_r_densely_packed,
    log_linear_fit,
    m_star_analytic,
)
from .integrate import TrajectoryRecord, run_simulation, simulate
from .scenarios import (
    ScenarioSpec,
    classify_chain,
    classify_group,
    classify_three_body,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_FAULT = 2
EXIT_VERIFY = 3


def _fmt(value) -> str:
    """Shortest round-trip decimal for floats; plain str otherwise."""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if value is None:
        return ""
    return str(value)


def splitmix64(seed: int, index: int) -> int:
    """Order-independent sub-seed expansion of one 64-bit master seed."""
    mask = (1 << 64) - 1
    z = (seed + (index + 1) * 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return (z ^ (z >> 31)) & mask


def write_trajectory_csv(record: TrajectoryRecord, path: Path) -> None:
    with open(path, "w", newline="\n") as f:
        f.write("t,id,x0,x1,v0,v1,cluster\n")
        for sample in record.samples:
            x, v, labels = sample.state.positions, sample.state.velocities, sample.labels.labels
            t = _fmt(sample.t)
            for i in range(len(x)):
                f.write(
                    f"{t},{i},{_fmt(x[i, 0])},{_fmt(x[i, 1])},"
                    f"{_fmt(v[i, 0])},{_fmt(v[i, 1])},{labels[i]}\n"
                )


def write_diagnostics_csv(record: TrajectoryRecord, path: Path) -> None:
    with open(path, "w", newline="\n") as f:
        f.write("t,vmax,mom0,mom1,n_clusters\n")
        for s in record.samples:
            f.write(
                f"{_fmt(s.t)},{_fmt(s.vmax)},{_fmt(s.momentum[0])},"
                f"{_fmt(s.momentum[1])},{s.n_clusters}\n"
            )


def write_clusters_csv(record: TrajectoryRecord, path: Path) -> None:
    """Per-cluster rows; packedness only for the gated model, lambda2 only
    for symmetric cluster subgraphs of at least two nodes."""
    params = record.spec.params
    policy = params.policy()
    with open(path, "w", newline="\n") as f:
        f.write("t,cluster_id,size,is_delta_packed,lambda2\n")
        for sample in record.samples:
            digraph = build_digraph(sample.table, policy, params.N)
            for cid, members in enumerate(sample.labels.clusters()):
                packed = ""
                if params.model == "di":
                    report = is_r_densely_packed(
                        sample.delayed_positions,
                        members,
                        params.delta,
                        params.m,
                        dist=record.spec.domain.distances,
                    )
                    packed = "true" if report.is_packed else "false"
                lam = ""
                if len(members) >= 2:
                    try:
                        lam = _fmt(fiedler_value(digraph, members))
                    except ValueError:
                        lam = ""
                f.write(f"{_fmt(sample.t)},{cid},{len(members)},{packed},{lam}\n")


def write_plot_data(record: TrajectoryRecord, out_dir) -> list[Path]:
    """Tab-separated (time, V) and (time, momentum_x) columns for plotting."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    vmax_path = out_dir / "vmax.dat"
    mom_path = out_dir / "momentum_x.dat"
    with open(vmax_path, "w", newline="\n") as f:
        f.write("time\tV\n")
        for s in record.samples:
            f.write(f"{_fmt(s.t)}\t{_fmt(s.vmax)}\n")
    with open(mom_path, "w", newline="\n") as f:
        f.write("time\tmom0\n")
        for s in record.samples:
            f.write(f"{_fmt(s.t)}\t{_fmt(s.momentum[0])}\n")
    return [vmax_path, mom_path]


def cmd_run(config: RunConfig) -> list[Path]:
    """Run one scenario and write the enabled CSV outputs."""
    record = run_simulation(config.spec)
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    if config.record_trajectory:
        path = out / "trajectory.csv"
        write_trajectory_csv(record, path)
        written.append(path)
    if config.record_diagnostics:
        path = out / "diagnostics.csv"
        write_diagnostics_csv(record, path)
        written.append(path)
        written.extend(write_plot_data(record, out))
    if config.record_clusters:
        path = out / "clusters.csv"
        write_clusters_csv(record, path)
        written.append(path)
    return written


# ---------------------------------------------------------------------------
# Sweeps


def _regime_of(record: TrajectoryRecord) -> str:
    scenario = record.spec.scenario
    if scenario == "three_body":
        return classify_three_body(record).regime
    if scenario == "chain":
        return classify_chain(record).regime
    if scenario == "group_vs_individual":
        return "flip" if classify_group(record).momentum_flipped else "no_flip"
    return ""


@dataclass
class SweepRow:
    index: int
    overrides: dict
    seed: int
    regime: str = ""
    final_mom0: float | None = None
    final_mom1: float | None = None
    final_clusters: int | None = None
    error: str = ""


def _apply_overrides(base_text: str, overrides: dict) -> RunConfig:
    lines = [
        line
        for line in base_text.splitlines()
        if line.split("#", 1)[0].strip().partition("=")[0].strip() not in overrides
    ]
    for key, value in overrides.items():
        lines.append(f"{key} = {value}")
    return parse_config("\n".join(lines))


def _sweep_one(args) -> SweepRow:
    index, base_text, overrides, seed = args
    row = SweepRow(index=index, overrides=overrides, seed=seed)
    try:
        config = _apply_overrides(base_text, {**overrides, "seed": seed})
        record = run_simulation(config.spec)
        final = record.samples[-1]
        row.regime = _regime_of(record)
        row.final_mom0 = float(final.momentum[0])
        row.final_mom1 = float(final.momentum[1])
        row.final_clusters = final.n_clusters
    except (ConfigError, IntegrationFault, ValueError) as exc:
        row.error = f"{type(exc).__name__}: {exc}"
    return row


def sweep_runs(
    base_text: str,
    grid: dict[str, list],
    master_seed: int = 0,
    jobs: int = 1,
) -> list[SweepRow]:
    """Cartesian-product sweep; every run gets an order-independent sub-seed.

    Per-run failures land in the row's error column without aborting the rest.
    """
    if "seed" in grid:
        raise ConfigError("--set seed: run seeds derive from the master seed; use --seed")
    keys = list(grid)
    if not keys:
        return []
    combos = list(itertools.product(*(grid[k] for k in keys)))
    tasks = [
        (i, base_text, dict(zip(keys, combo)), splitmix64(master_seed, i))
        for i, combo in enumerate(combos)
    ]
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_sweep_one, tasks))
    else:
        rows = [_sweep_one(t) for t in tasks]
    rows.sort(key=lambda r: r.index)
    return rows


def write_sweep_csv(rows: list[SweepRow], keys: list[str], path: Path) -> None:
    with open(path, "w", newline="\n") as f:
        header = ["run"] + keys + ["seed", "regime", "final_mom0", "final_mom1",
                                   "final_clusters", "error"]
        f.write(",".join(header) + "\n")
        for row in rows:
            cells = [str(row.index)]
            cells += [_fmt(row.overrides.get(k)) for k in keys]
            cells += [
                str(row.seed),
                row.regime,
                _fmt(row.final_mom0),
                _fmt(row.final_mom1),
                _fmt(row.final_clusters),
                row.error.replace(",", ";"),
            ]
            f.write(",".join(cells) + "\n")


# ---------------------------------------------------------------------------
# Verify suite and the lattice experiments it shares with the test battery


ORACLE_SPEC = dict(n=10, v_c=1.0, beta=7.5, gamma=8.75, delta=8.7)


def oracle_run(dt: float = 1e-3, t_end: float = 10.0, sample_every: int = 100) -> tuple:
    """Three-body run whose topology stays fixed, plus its closed-form solution.

    Geometry is chosen so neither separation happens before t_end; the edge
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
        t_end=t_end,
        sample_every=sample_every,
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


def lattice_state(
    nx: int = 3, ny: int = 3, spacing: float = 1.0, vel_scale: float = 0.05, seed: int = 3
) -> EnsembleState:
    """Rectangular lattice with small seeded velocities, used by the lattice checks."""
    xs = np.arange(nx) * spacing
    ys = np.arange(ny) * spacing
    gx, gy = np.meshgrid(xs, ys)
    positions = np.column_stack([gx.ravel(), gy.ravel()])
    rng = np.random.default_rng(seed)
    velocities = rng.uniform(-vel_scale, vel_scale, size=positions.shape)
    return EnsembleState(0.0, positions, velocities)


def momentum_experiment(t_end: float = 50.0, dt: float = 0.01) -> float:
    """Max momentum drift of a packed 3x3 lattice under flat normalization."""
    state = lattice_state(spacing=0.8)
    params = ModelParams(model="di", N=9, m=3, delta=2.0, kappa=1.0, m_policy="flat")
    record = simulate(state, params, Domain.unbounded(), dt, t_end, sample_every=10)
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


def certificate_experiment(
    margin: float = 1.5, t_end: float = 100.0, dt: float = 0.01
) -> CertificateOutcome:
    """Drive a 3x3 lattice above the flocking-certificate threshold and measure.

    Spacing equals r = delta/2; lambda2 comes from the lattice's influence
    graph; kappa is then set so M_* exceeds 2/(lambda2 (delta - r)) by the
    given margin.  The fitted decay rate of max_i |v_i - v_mean| over the
    first half of the decay is compared against M_* lambda2.
    """
    delta, m, r = 2.0, 3, 1.0
    state = lattice_state(spacing=r)
    n = state.n

    table = neighbor_sets_di(state.positions, delta, m)
    lam2 = fiedler_value(build_digraph(table, MPolicy("flat", 1.0), n))
    threshold = 2.0 / (lam2 * (delta - r))
    kappa = margin * n * threshold  # flat policy: M_* = kappa / n
    params = ModelParams(model="di", N=n, m=m, delta=delta, kappa=kappa, m_policy="flat")
    m_star = m_star_analytic(params.policy(), n)
    cert = flocking_certificate(r, delta, m_star, lam2)

    record = simulate(state, params, Domain.unbounded(), dt, t_end, sample_every=10)
    packed = all(
        is_r_densely_packed(
            s.delayed_positions, np.arange(n), delta, m
        ).is_packed
        for s in record.samples
    )

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


def verify_suite(tol_scale: float = 1.0, quick: bool = True) -> list[CheckResult]:
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
        t_end=30.0 if quick else 150.0,
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


def cmd_verify(tol_scale: float = 1.0, stream=None) -> int:
    stream = stream or sys.stdout
    checks = verify_suite(tol_scale)
    for check in checks:
        print(check.line(), file=stream)
    failed = [c for c in checks if not c.passed]
    print(
        f"{len(checks) - len(failed)}/{len(checks)} checks passed", file=stream
    )
    return EXIT_OK if not failed else EXIT_VERIFY


# ---------------------------------------------------------------------------
# Entry point


def _parse_set_args(pairs: list[str]) -> dict[str, list[str]]:
    grid: dict[str, list[str]] = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"--set expects key=v1,v2,..., got {pair!r}")
        key, _, values = pair.partition("=")
        key = key.strip()
        grid[key] = [v.strip() for v in values.split(",") if v.strip()]
        if not grid[key]:
            raise ConfigError(f"--set {key}: no values given")
    return grid


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="densiflock",
        description="Simulate and analyze density-gated velocity-consensus models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one configuration and write CSV output")
    p_run.add_argument("config", help="path to a key=value configuration file")

    p_sweep = sub.add_parser("sweep", help="run a Cartesian grid of overrides")
    p_sweep.add_argument("config", help="base configuration file")
    p_sweep.add_argument(
        "--set", action="append", default=[], metavar="KEY=V1,V2,...",
        help="override grid; repeat for multiple keys",
    )
    p_sweep.add_argument("--seed", type=int, default=0, help="master seed")
    p_sweep.add_argument("--jobs", type=int, default=1, help="parallel workers")
    p_sweep.add_argument("--out", default="sweep.csv", help="summary CSV path")

    p_verify = sub.add_parser("verify", help="run the invariant suite")
    p_verify.add_argument(
        "--tol-scale", type=float, default=1.0,
        help="multiply every tolerance (use <1 to tighten)",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            config = parse_config(Path(args.config).read_text())
            written = cmd_run(config)
            for path in written:
                print(path)
            return EXIT_OK
        if args.command == "sweep":
            base_text = Path(args.config).read_text()
            grid = _parse_set_args(args.set)
            rows = sweep_runs(base_text, grid, master_seed=args.seed, jobs=args.jobs)
            write_sweep_csv(rows, list(grid), Path(args.out))
            print(args.out)
            return EXIT_OK
        if args.command == "verify":
            return cmd_verify(args.tol_scale)
        return EXIT_CONFIG
    except (ConfigError, FileNotFoundError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except IntegrationFault as exc:
        print(f"integration fault: {exc}", file=sys.stderr)
        return EXIT_FAULT


if __name__ == "__main__":
    raise SystemExit(main())
