"""Set-up, one timed repetition, and the output check of every workload.

Runs are built only from densiflock's top-level exports and
densiflock.cli.cmd_run, always looked up at call time so that the tracer's
wrappers are the ones called.
"""

import hashlib
from pathlib import Path

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

import densiflock
import densiflock.cli
import specs

ORACLE_TOL = 1e-6
MONOTONE_TOL = 1e-8


def setup(name: str, seed: int) -> list:
    """Parse every config of the workload and build its initial state."""
    configs = []
    for config in specs.WORKLOADS[name]:
        parsed = densiflock.parse_config(specs.config_text(config, seed))
        densiflock.initial_state(parsed.spec)
        configs.append(parsed)
    return configs


def run(name: str, seed: int, configs: list, out_dir: Path):
    """One repetition; returns what check() needs."""
    if name == "formation_run_n64":
        return _formation_run(seed, out_dir)
    return densiflock.run_simulation(configs[0].spec)


def _formation_run(seed: int, out_dir: Path) -> dict:
    """`densiflock run` for each config: text -> parse_config -> cmd_run."""
    written = {}
    for config in specs.WORKLOADS["formation_run_n64"]:
        target = out_dir / config["model"]
        parsed = densiflock.parse_config(specs.config_text(config, seed, str(target)))
        for path in densiflock.cli.cmd_run(parsed):
            written[f"{config['model']}/{Path(path).name}"] = Path(path).read_bytes()
    return written


def bytes_written(outcome) -> int:
    return sum(len(data) for data in outcome.values()) if isinstance(outcome, dict) else 0


def check(name: str, outcome, reference=None) -> tuple:
    """(problem or None, detail) for one repetition's outcome.

    reference is an earlier repetition's outcome for the same seed; the
    formation workload requires the files to be byte-identical to it.
    """
    if name == "oracle_n11":
        err = oracle_error(outcome)
        problem = None if err <= ORACLE_TOL else f"oracle_err {err:.3e} > {ORACLE_TOL}"
        return problem, {"oracle_err": err}
    if name == "observe_n64":
        v = outcome.vmax_series()
        rise = float(np.max(v[1:] - v[:-1]))
        tol = MONOTONE_TOL * v[0]
        problem = None if rise <= tol else f"velocity diameter rose by {rise:.3e} > {tol:.3e}"
        return problem, {"worst_vmax_rise": rise, "tol": tol}
    if name == "formation_run_n64":
        return _check_formation(outcome, reference)
    return _check_scale(outcome)


def oracle_error(record) -> float:
    """Largest |v_b(t) - closed form| over the samples of the three-body run."""
    config = specs.WORKLOADS["oracle_n11"][0]
    n = config["n"]
    sol = densiflock.reduced_solution(n, config["v_c"])
    return max(
        abs(float(s.state.velocities[n - 1, 0]) - float(densiflock.eval_v_b(sol, s.t)))
        for s in record.samples
    )


def _check_formation(files: dict, reference) -> tuple:
    problems = []
    for config in specs.WORKLOADS["formation_run_n64"]:
        model = config["model"]
        want = specs.particles(config) * specs.n_samples(config)
        rows = files[f"{model}/trajectory.csv"].count(b"\n") - 1
        if rows != want:
            problems.append(f"{model} trajectory has {rows} rows, expected {want}")
    final = files["cs/diagnostics.csv"].rstrip(b"\n").rsplit(b"\n", 1)[-1]
    cs_clusters = int(final.rsplit(b",", 1)[-1])
    if cs_clusters != 1:
        problems.append(f"cs ends with {cs_clusters} clusters, expected 1")
    if reference is not None and digest(files) != digest(reference):
        problems.append("a rerun of the same seed wrote different bytes")
    detail = {"cs_final_clusters": cs_clusters, "files": len(files)}
    return ("; ".join(problems) or None), detail


def digest(files: dict) -> dict:
    return {key: hashlib.sha256(data).hexdigest() for key, data in files.items()}


def _check_scale(record) -> tuple:
    config = specs.WORKLOADS["di_scale_n2048"][0]
    final = record.samples[-1]
    expected = brute_force_labels(
        final.delayed_positions, config["L"], config["delta"], config["m"]
    )
    got = np.asarray(final.labels.labels)
    problem = None if np.array_equal(got, expected) else "cluster labels differ from brute force"
    return problem, {"clusters_final": int(expected.max()) + 1}


def brute_force_labels(delayed, L: float, delta: float, m: int, chunk: int = 256) -> np.ndarray:
    """Gated SCC labels from scratch: min-image open balls of radius delta on the
    delayed positions, a particle listens to its ball only when the ball holds
    more than m particles (itself included); clusters are the strongly connected
    components, numbered by their smallest member."""
    x = np.asarray(delayed, dtype=float)
    n = len(x)
    rows, cols = [], []
    for start in range(0, n, chunk):
        diff = x[start:start + chunk, None, :] - x[None, :, :]
        diff -= L * np.round(diff / L)
        inside = np.sqrt((diff * diff).sum(axis=-1)) < delta
        gated = inside.sum(axis=1) > m
        i, k = np.nonzero(inside & gated[:, None])
        rows.append(i + start)
        cols.append(k)
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    adjacency = csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    _, raw = connected_components(adjacency, directed=True, connection="strong")
    _, first = np.unique(raw, return_index=True)
    rank = np.empty(len(first), dtype=int)
    rank[np.argsort(first)] = np.arange(len(first))
    return rank[raw]
