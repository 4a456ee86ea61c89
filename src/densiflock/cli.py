"""Command line front end: run, sweep, verify, and file output.

Exit codes: 0 success, 1 configuration error, 2 integration fault,
3 verification failure.
"""
from __future__ import annotations

import argparse
import itertools
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import RunConfig, parse_config, parse_overrides
from .errors import ConfigError, IntegrationFault
from .experiments import verify_suite
from .graph import fiedler_value
from .integrate import TrajectoryRecord
from .scenarios import regime_of, run_simulation

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


def _write_rows(path: Path, header: list[str], rows, sep: str = ",") -> Path:
    """The one output format: a header line, then each row's cells through
    `_fmt`, joined by `sep`, every line ended by a bare newline."""
    with open(path, "w", newline="\n") as f:
        f.write(sep.join(header) + "\n")
        for row in rows:
            f.write(sep.join(map(_fmt, row)) + "\n")
    return path


def _columns(record: TrajectoryRecord, prefix: str) -> list[str]:
    """prefix0..prefix{d-1} for the d coordinates of the record's samples
    (planar when it has none)."""
    d = record.samples[0].state.positions.shape[1] if record.samples else 2
    return [f"{prefix}{k}" for k in range(d)]


def write_trajectory_csv(record: TrajectoryRecord, path: Path) -> Path:
    def rows():
        for s in record.samples:
            x, v = s.state.positions.tolist(), s.state.velocities.tolist()
            for i, label in enumerate(s.labels.labels.tolist()):
                yield s.t, i, *x[i], *v[i], label

    header = ["t", "id", *_columns(record, "x"), *_columns(record, "v"), "cluster"]
    return _write_rows(path, header, rows())


def write_diagnostics_csv(record: TrajectoryRecord, path: Path) -> Path:
    rows = ((s.t, s.vmax, *s.momentum, s.n_clusters) for s in record.samples)
    return _write_rows(path, ["t", "vmax", *_columns(record, "mom"), "n_clusters"], rows)


def write_clusters_csv(record: TrajectoryRecord, path: Path) -> Path:
    """Per-cluster rows; packedness only for the gated model, lambda2 only
    for symmetric cluster subgraphs of at least two nodes.

    A gated cluster is delta-densely packed iff all its members are gated on:
    an SCC is connected through edges that join delta-close delayed positions,
    and a ball holding more than m particles is what gates its center on."""
    if record.spec is None:
        raise ValueError("record has no scenario spec, so its model is unknown")
    gated = record.spec.params.model == "di"

    def rows():
        for s in record.samples:
            gated_on = s.table.sizes() > 0
            for cid, members in enumerate(s.labels.clusters()):
                packed = bool(gated_on[members].all()) if gated else None
                lam = None
                if len(members) >= 2:
                    try:
                        lam = fiedler_value(s.phi, members)
                    except ValueError:
                        pass
                yield s.t, cid, len(members), packed, lam

    return _write_rows(path, ["t", "cluster_id", "size", "is_delta_packed", "lambda2"], rows())


def write_plot_data(record: TrajectoryRecord, out_dir) -> list[Path]:
    """Tab-separated (time, V) and (time, momentum_x) columns for plotting."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    samples = record.samples
    return [
        _write_rows(out_dir / "vmax.dat", ["time", "V"],
                    ((s.t, s.vmax) for s in samples), sep="\t"),
        _write_rows(out_dir / "momentum_x.dat", ["time", "mom0"],
                    ((s.t, s.momentum[0]) for s in samples), sep="\t"),
    ]


def cmd_run(config: RunConfig) -> list[Path]:
    """Run one scenario and write the enabled CSV outputs."""
    out = Path(config.output_dir)
    # Before the run, so an unusable output_dir does not waste it.
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output_dir {str(out)!r} cannot be created: {exc}") from None
    record = run_simulation(config.spec)
    written: list[Path] = []
    if config.record_trajectory:
        written.append(write_trajectory_csv(record, out / "trajectory.csv"))
    if config.record_diagnostics:
        written.append(write_diagnostics_csv(record, out / "diagnostics.csv"))
        written.extend(write_plot_data(record, out))
    if config.record_clusters:
        written.append(write_clusters_csv(record, out / "clusters.csv"))
    return written


# ---------------------------------------------------------------------------
# Sweeps


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


def _sweep_one(args) -> SweepRow:
    index, base_text, overrides, seed = args
    row = SweepRow(index=index, overrides=overrides, seed=seed)
    try:
        config = parse_config(base_text, {**overrides, "seed": str(seed)})
        record = run_simulation(config.spec)
        final = record.samples[-1]
        row.regime = regime_of(record)
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
    if jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {jobs}")
    if "seed" in grid:
        raise ConfigError("--set seed: run seeds derive from the master seed; use --seed")
    for key, values in grid.items():
        for value in values:  # every value converts before any run starts
            parse_overrides({key: value})
    keys = list(grid)
    if not keys:
        return []
    combos = list(itertools.product(*(grid[k] for k in keys)))
    tasks = [
        (i, base_text, dict(zip(keys, combo)), splitmix64(master_seed, i))
        for i, combo in enumerate(combos)
    ]
    if jobs > 1 and len(tasks) > 1:
        # The pool starts all its workers at once, so never more than runs;
        # map returns the rows in task order.
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            return list(pool.map(_sweep_one, tasks))
    return [_sweep_one(t) for t in tasks]


def write_sweep_csv(rows: list[SweepRow], keys: list[str], path: Path) -> Path:
    header = ["run", *keys, "seed", "regime", "final_mom0", "final_mom1",
              "final_clusters", "error"]
    cells = (
        [r.index, *(r.overrides.get(k) for k in keys), r.seed, r.regime,
         r.final_mom0, r.final_mom1, r.final_clusters, r.error.replace(",", ";")]
        for r in rows
    )
    return _write_rows(path, header, cells)


# ---------------------------------------------------------------------------
# Verify


def cmd_verify(tol_scale: float = 1.0, stream=None) -> int:
    # inf would pass every check and nan fail every one without measuring.
    if not (math.isfinite(tol_scale) and tol_scale >= 0):
        raise ConfigError(f"--tol-scale must be finite and >= 0, got {tol_scale!r}")
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


def _read_config(path: str) -> str:
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file {path!r} cannot be read: {exc}") from None


def _parse_set_args(pairs: list[str]) -> dict[str, list[str]]:
    grid: dict[str, list[str]] = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"--set expects key=v1,v2,..., got {pair!r}")
        key, _, values = pair.partition("=")
        key = key.strip()
        if key in grid:
            raise ConfigError(f"--set {key}: key given more than once")
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
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a bad argument, which is the integration-fault code.
        return EXIT_OK if exc.code == 0 else EXIT_CONFIG
    try:
        if args.command == "run":
            config = parse_config(_read_config(args.config))
            written = cmd_run(config)
            for path in written:
                print(path)
            return EXIT_OK
        if args.command == "sweep":
            base_text = _read_config(args.config)
            grid = _parse_set_args(args.set)
            out = Path(args.out)
            # Before the runs, and without creating the file, so a rejected
            # argument leaves no CSV behind.
            if out.is_dir() or not out.parent.is_dir():
                raise ConfigError(f"--out {args.out!r} is not a file in an existing directory")
            rows = sweep_runs(base_text, grid, master_seed=args.seed, jobs=args.jobs)
            write_sweep_csv(rows, list(grid), out)
            print(args.out)
            return EXIT_OK
        return cmd_verify(args.tol_scale)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except IntegrationFault as exc:
        print(f"integration fault: {exc}", file=sys.stderr)
        return EXIT_FAULT


if __name__ == "__main__":
    raise SystemExit(main())
