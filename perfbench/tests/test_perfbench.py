"""Self-test of the benchmark.

    python3 -m pytest perfbench/tests -q        (from the repository root)

Each workload runs end to end through perfbench/run.py with a short
measuring span: two traced runs of one seed must report identical per-layer
counts, and a seed never used while the benchmark was written must pass
every output check.  The checks themselves must reject wrong outputs.
"""

import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import densiflock  # noqa: E402
import specs  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]
COUNTS = [m["name"] for m in DECLARED["per_layer"] if m["unit"] in ("count", "B")]
FRESH_SEED = 7331  # not used while the benchmark was written


def bench(workload: str, seed: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload):
    runs = [bench(workload, 5, trace=1) for _ in range(2)]
    for result in runs:
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == {m["name"] for m in DECLARED["per_layer"]}
    first, second = ({name: r["metrics"][name]["value"] for name in COUNTS} for r in runs)
    assert first == second


@pytest.mark.parametrize("workload", WORKLOADS)
def test_fresh_seed_passes_every_check(workload):
    result = bench(workload, FRESH_SEED, trace=0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    assert set(result["metrics"]) == {m["name"] for m in DECLARED["end_to_end"]}
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_brute_force_labels_gate_and_wrap():
    # Particles 0-3 straddle the periodic edge within delta of each other, so
    # each ball holds 4 > m=3 particles; 4 and 5 are mutual neighbours whose
    # balls hold only 2, so neither listens and each is its own cluster.
    L, delta, m = 20.0, 2.0, 3
    x = np.array([[0.2, 5.0], [19.8, 5.0], [0.5, 5.5], [19.5, 4.5],
                  [10.0, 10.0], [10.5, 10.0]])
    labels = workloads.brute_force_labels(x, L, delta, m, chunk=4)
    assert labels.tolist() == [0, 0, 0, 0, 1, 2]


def test_checks_reject_wrong_outputs():
    files = {"di/trajectory.csv": b"h\n", "cs/trajectory.csv": b"h\n",
             "cs/diagnostics.csv": b"t,vmax,mom0,mom1,n_clusters\n1.0,0.1,0,0,2\n"}
    problem, _ = workloads.check("formation_run_n64", files, dict(files, extra=b"x"))
    assert "rows" in problem and "clusters" in problem and "different bytes" in problem

    x = np.array([[1.0, 1.0], [1.5, 1.0], [2.0, 1.0], [2.5, 1.0], [60.0, 60.0]])
    sample = SimpleNamespace(delayed_positions=x, labels=SimpleNamespace(labels=np.zeros(5, int)))
    problem, _ = workloads.check("di_scale_n2048", SimpleNamespace(samples=[sample]))
    assert problem == "cluster labels differ from brute force"


def test_tracer_records_missing_names_as_absent(monkeypatch):
    missing = [("densiflock.cli", "no_such_writer", "cli.no_such_writer", None),
               ("densiflock.no_such_module", "run", "none.run", None)]
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + missing)
    original = densiflock.parse_config
    with tracing.Tracer() as tracer:
        densiflock.parse_config(specs.config_text(specs.WORKLOADS["oracle_n11"][0], 0))
    assert tracer.absent == ["densiflock.cli:no_such_writer", "densiflock.no_such_module:run"]
    assert tracer.totals()["config.parse_config"][0] == 1
    assert densiflock.parse_config is original
