"""Workload parameters and the densiflock config texts they render to.

Pure Python on purpose: the set-up probe imports this module before it
starts its clock, so it must not pull in numpy or densiflock.
"""

import math

# The configs each workload runs per repetition; why each workload was chosen
# is recorded in BENCHMARK.json.  Keys are densiflock config keys; output_dir
# is filled in per repetition where files are written.
WORKLOADS = {
    "oracle_n11": [{
        "scenario": "three_body", "model": "di", "n": 10, "m": 3,
        "delta": 8.7, "kappa": 1.0, "m_policy": "constant",
        "beta": 7.5, "gamma": 8.75, "v_c": 1.0,
        "dt": 0.001, "t_end": 10.0, "sample_every": 100,
    }],
    "observe_n64": [{
        "scenario": "random_clusters", "model": "di", "n": 64, "m": 3,
        "delta": 2.0, "kappa": 1.0, "L": 25.0, "margin": 2.0,
        "dt": 0.01, "t_end": 5.0, "sample_every": 1,
    }],
    "formation_run_n64": [
        {
            "scenario": "random_clusters", "model": "di", "n": 64, "m": 3,
            "delta": 2.0, "kappa": 1.0, "L": 25.0, "margin": 2.0,
            "dt": 0.01, "t_end": 5.0, "sample_every": 50,
        },
        {
            "scenario": "random_clusters", "model": "cs", "n": 64,
            "kappa": 1.0, "L": 25.0, "margin": 2.0,
            "dt": 0.01, "t_end": 5.0, "sample_every": 50,
        },
    ],
    "di_scale_n2048": [{
        "scenario": "random_clusters", "model": "di", "n": 2048, "m": 3,
        "delta": 2.0, "kappa": 1.0, "L": 25.0 * math.sqrt(32.0),
        "margin": 2.0, "dt": 0.01, "t_end": 0.04, "sample_every": 4,
    }],
}


def n_steps(config: dict) -> int:
    return int(round(config["t_end"] / config["dt"]))


def n_samples(config: dict) -> int:
    """Samples a run records: every sample_every-th step plus the last."""
    steps, every = n_steps(config), config["sample_every"]
    return steps // every + 1 + (1 if steps % every else 0)


def particles(config: dict) -> int:
    return config["n"] + (0 if config["scenario"] == "random_clusters" else 1)


def config_text(config: dict, seed: int, output_dir: str | None = None) -> str:
    pairs = dict(config, seed=seed)
    if output_dir is not None:
        pairs["output_dir"] = output_dir
    return "".join(
        f"{key} = {value!r}\n" if isinstance(value, float) else f"{key} = {value}\n"
        for key, value in pairs.items()
    )
