"""densiflock benchmark: one workload, timed for a fixed span, outputs checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; densiflock is imported from ./src.  With
--trace 0 the last stdout line reports the end-to-end metrics of
BENCHMARK.json; with --trace 1 it reports the per-layer metrics, taken from
traced repetitions that alternate with untraced ones.  Every repetition's
output is checked; a repetition that raises or fails its check counts in
"failed".  Earlier stdout lines hold a human-readable report: host,
workload parameters, every repetition's wall time and check details.
"""

import os

# BLAS held to one thread, before numpy is imported here or in any child.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"

sys.path.insert(0, str(SRC))
try:
    import densiflock
except ImportError as _exc:
    sys.exit(f"perfbench: cannot import densiflock from {SRC}: {_exc}")
if not Path(densiflock.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"perfbench: densiflock resolved outside {SRC}: {densiflock.__file__}")

import specs  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_REPS = 3  # untraced repetitions at least; a traced run alternates, so twice that
SETUP_PROBES = 5
# End-to-end times are reference seconds: measured seconds times
# REF_KERNEL_S / (reference_kernel() timed around the measurement).
# REF_KERNEL_S is the kernel's typical time on the 2-core x86_64 VM where the
# benchmark was written, so there a reference second is about a wall second.
REF_KERNEL_S = 0.055

# A per-layer metric named <span>.<field> with field calls, s (inclusive
# seconds) or self_s (seconds minus direct child spans) is read from the span
# totals; the counters below are kept by tracing.py's wrappers.
SPAN_FIELDS = {"calls": 0, "s": 1, "self_s": 2}
COUNTERS = (
    "integrate.steps", "integrate.samples",
    "domains.distances.pairs", "domains.distances.bytes",
)


def host_info() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env_set_to_1": list(THREAD_VARS),
    }


def setup_seconds(name: str, seed: int) -> tuple:
    """Cold set-up times, each in a fresh interpreter: (seconds, reference seconds)."""
    times, scaled = [], []
    kernel_before = reference_kernel()
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), name, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
        kernel_after = reference_kernel()
        scaled.append(times[-1] * 2 * REF_KERNEL_S / (kernel_before + kernel_after))
        kernel_before = kernel_after
    return times, scaled


def reference_kernel() -> float:
    """Seconds taken by a fixed job that does not touch densiflock.

    This host's speed drifts by tens of percent over minutes, so raw wall
    times of separate runs spread too widely to compare.  Each timed
    repetition or set-up is divided by this kernel, timed just before and
    after it.  The kernel mixes
    what the workloads spend time on: an interpreted loop, many small numpy
    operations and passes over a (512, 512, 2) array larger than L2.
    """
    start = time.perf_counter()
    acc = 0
    for i in range(100_000):
        acc += (i * 7) % 13
    x = np.arange(64.0)
    for _ in range(1000):
        (x[:, None] - x[None, :]).sum()
    z = np.arange(2 * 512 * 512, dtype=float).reshape(512, 512, 2)
    for _ in range(4):
        d = z - z[::-1]
        np.sqrt((d * d).sum(axis=-1)).max()
    return time.perf_counter() - start


def layer_metrics(tracer, outcome, names) -> dict:
    """Per-layer figures of one traced repetition (all but trace.overhead_s)."""
    totals = tracer.totals()
    steps = tracer.counts["integrate.steps"]
    out = {
        "integrate.self_us_per_step": totals["integrate.simulate"][2] / steps * 1e6 if steps else 0.0,
        "cli.bytes_written": workloads.bytes_written(outcome),
        **final_sample_counts(tracer),
    }
    for name in names:
        span, _, field = name.rpartition(".")
        if name in out or name == "trace.overhead_s":
            continue
        if name in COUNTERS:
            out[name] = tracer.counts[name]
        else:
            out[name] = totals[span][SPAN_FIELDS[field]]
    return out


def final_sample_counts(tracer) -> dict:
    """Topology and cluster counts of the last sample of the last simulated run."""
    record = tracer.last_record
    try:
        final = record.samples[-1]
        sizes = [int(s) for s in final.table.sizes()]
        clusters = int(final.n_clusters)
    except AttributeError:
        tracer.absent.append("final sample table/labels")
        sizes, clusters = [], 0
    return {
        "dynamics.gated_on_final": sum(1 for s in sizes if s > 0),
        "dynamics.neighbor_pairs_final": sum(sizes),
        "graph.clusters_final": clusters,
    }


def measure(name, seed, seconds, trace, layer_names):
    """Repeat the workload until `seconds` have passed; returns the raw figures."""
    configs = workloads.setup(name, seed)
    walls, scaled, traced_walls, layers, problems, details = [], [], [], [], [], []
    reference, spans, absent = None, [], []
    attempted = failed = 0
    min_reps = 2 * MIN_REPS if trace else MIN_REPS
    deadline = time.perf_counter() + seconds
    kernel_before = reference_kernel()
    while attempted < min_reps or time.perf_counter() < deadline:
        traced = trace and attempted % 2 == 1
        out_dir = Path(tempfile.mkdtemp(prefix="rep-", dir=SCRATCH))
        attempted += 1
        try:
            if traced:
                with tracing.Tracer() as tracer:
                    workloads.setup(name, seed)
                    start = time.perf_counter()
                    outcome = workloads.run(name, seed, configs, out_dir)
                    wall = time.perf_counter() - start
            else:
                start = time.perf_counter()
                outcome = workloads.run(name, seed, configs, out_dir)
                wall = time.perf_counter() - start
            problem, detail = workloads.check(name, outcome, reference)
        except Exception:  # a raising repetition is a failed operation; keep going
            problem, detail = traceback.format_exc(limit=4), {}
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        kernel_after = reference_kernel()
        kernel, kernel_before = (kernel_before + kernel_after) / 2, kernel_after
        details.append(detail)
        if problem is not None:
            failed += 1
            problems.append(problem)
            continue
        if reference is None and name == "formation_run_n64":
            reference = outcome
        if traced:
            traced_walls.append(wall)
            layers.append(layer_metrics(tracer, outcome, layer_names))
            spans, absent = tracer.spans, tracer.absent
        else:
            walls.append(wall)
            scaled.append(wall * REF_KERNEL_S / kernel)
    return {
        "walls": walls, "scaled": scaled, "traced_walls": traced_walls,
        "layers": layers, "problems": problems, "details": details,
        "attempted": attempted, "failed": failed, "spans": spans, "absent": absent,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in specs.WORKLOADS or args.workload not in {w["name"] for w in declared["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(specs.WORKLOADS)}")
    wanted = declared["per_layer" if args.trace else "end_to_end"]

    SCRATCH.mkdir(exist_ok=True)
    setups, setups_scaled = ([], []) if args.trace else setup_seconds(args.workload, args.seed)
    raw = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                  [m["name"] for m in declared["per_layer"]])

    values, counts_repeat = {}, True
    if not raw["walls"] or (args.trace and not raw["layers"]):  # nothing was measured
        values = {m["name"]: 0.0 for m in wanted}
    elif args.trace:
        for metric in wanted:
            name, unit = metric["name"], metric["unit"]
            if name == "trace.overhead_s":
                values[name] = (statistics.median(raw["traced_walls"])
                                - statistics.median(raw["walls"]))
            elif unit in ("count", "B"):  # counts repeat exactly; times vary
                seen = {layer[name] for layer in raw["layers"]}
                counts_repeat = counts_repeat and len(seen) <= 1
                values[name] = raw["layers"][0][name]
            else:
                values[name] = statistics.median(layer[name] for layer in raw["layers"])
        spans_path = SCRATCH / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps(raw["spans"]))
    else:
        configs = specs.WORKLOADS[args.workload]
        particle_steps = sum(specs.particles(c) * specs.n_steps(c) for c in configs)
        wall = statistics.median(raw["scaled"])
        values = {
            "wall_s": wall,
            "particle_steps_per_s": particle_steps / wall,
            "setup_s": statistics.median(setups_scaled),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "why": next(w["why"] for w in declared["workloads"] if w["name"] == args.workload),
        "configs": [specs.config_text(c, args.seed) for c in specs.WORKLOADS[args.workload]],
        "host": host_info(),
        "raw_wall_s_median": statistics.median(raw["walls"]) if raw["walls"] else None,
        "raw_wall_s_untraced": raw["walls"],
        "wall_s_untraced": raw["scaled"],
        "raw_wall_s_traced": raw["traced_walls"],
        "raw_setup_s_samples": setups,
        "setup_s_samples": setups_scaled,
        "checks": raw["details"],
        "problems": raw["problems"],
        "absent": raw["absent"],
        "counts_repeat": counts_repeat,
    }
    print(json.dumps({"report": report}))
    units = {m["name"]: m["unit"] for m in wanted}
    print(json.dumps({
        "correct": raw["failed"] == 0 and counts_repeat,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
