"""Flat key-value run configuration: parsing and validation.

The format is one ``key = value`` per line, ``#`` comments, no sections.
Unknown keys, duplicate keys, type mismatches, and constraint violations are
rejected with the offending line or key named.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .domains import Domain
from .dynamics import MODELS, POLICY_KINDS, ModelParams
from .errors import ConfigError
from .scenarios import SCENARIOS, ScenarioSpec

# key -> (type tag, allowed values or None)
_KEY_TYPES = {
    "model": ("choice", MODELS),
    "n": ("int", None),
    "m": ("int", None),
    "delta": ("float", None),
    "q": ("int", None),
    "kappa": ("float", None),
    "alpha": ("float", None),
    "m_policy": ("choice", POLICY_KINDS),
    "h_steps": ("int", None),
    "dt": ("float", None),
    "t_end": ("float", None),
    "sample_every": ("int", None),
    "domain": ("choice", ("unbounded", "periodic")),
    "L": ("float", None),
    "seed": ("int", None),
    "scenario": ("choice", SCENARIOS),
    "beta": ("float", None),
    "gamma": ("float", None),
    "v_c": ("float", None),
    "shape": ("choice", ("a", "b")),
    "delta_variant": ("int", None),
    "spacing": ("float", None),
    "margin": ("float", None),
    "output_dir": ("str", None),
    "record_trajectory": ("bool", None),
    "record_diagnostics": ("bool", None),
    "record_clusters": ("bool", None),
}

# Scenario-specific keys rejected elsewhere.
_KEY_OWNERS = {
    "margin": ("random_clusters",),
    "shape": ("group_vs_individual",),
    "spacing": ("group_vs_individual", "chain"),
    "delta_variant": ("chain",),
    "beta": ("three_body",),
    "gamma": ("three_body",),
    "v_c": ("three_body",),
}

_DEFAULT_T_END = {
    "random_clusters": 150.0,
    "group_vs_individual": 30.0,
    "chain": 30.0,
}

_DEFAULT_N_CLUSTER = {"group_vs_individual": 28, "chain": 21}


@dataclass
class RunConfig:
    """A fully validated run: the scenario plus output destination and toggles."""

    spec: ScenarioSpec
    output_dir: str = "out"
    record_trajectory: bool = True
    record_diagnostics: bool = True
    record_clusters: bool = True


def _convert(key: str, raw: str, lineno: int):
    kind, allowed = _KEY_TYPES[key]
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            value = float(raw)
            if not math.isfinite(value):
                raise ValueError
            return value
        if kind == "bool":
            low = raw.lower()
            if low in ("true", "false"):
                return low == "true"
            raise ValueError
        if kind == "choice":
            if raw not in allowed:
                raise ValueError
            return raw
        return raw
    except ValueError:
        if kind == "choice":
            expected = "one of " + "|".join(allowed)
        else:
            expected = "finite float" if kind == "float" else kind
        raise ConfigError(
            f"line {lineno}: key '{key}' expects {expected}, got {raw!r}"
        ) from None


def _scan(text: str) -> dict:
    entries: dict[str, tuple] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, _, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in _KEY_TYPES:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in entries:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if not raw:
            raise ConfigError(f"line {lineno}: key {key!r} has no value")
        entries[key] = (_convert(key, raw, lineno), lineno)
    return entries


def parse_config(text: str) -> RunConfig:
    """Parse and validate a flat run configuration."""
    entries = _scan(text)
    values = {k: v for k, (v, _) in entries.items()}

    scenario = values.get("scenario")
    if scenario is None:
        raise ConfigError("missing required key 'scenario'")
    model = values.get("model")
    if model is None:
        raise ConfigError("missing required key 'model'")

    for key in values:
        owners = _KEY_OWNERS.get(key)
        if owners is not None and scenario not in owners:
            raise ConfigError(
                f"key '{key}' only applies to scenario " + "|".join(owners)
            )

    delta = values.get("delta")
    if "delta_variant" in values:
        variant = values["delta_variant"]
        if variant not in (2, 3, 4):
            raise ConfigError("key 'delta_variant': must be one of 2|3|4")
        if delta is not None and delta != float(variant):
            raise ConfigError("key 'delta_variant': conflicts with explicit delta")
        delta = float(variant)

    if scenario == "random_clusters":
        if "n" not in values:
            raise ConfigError("scenario random_clusters requires key 'n'")
        n_cluster = None
        n_particles = values["n"]
    else:
        n_cluster = values.get("n", _DEFAULT_N_CLUSTER.get(scenario))
        if n_cluster is None:
            raise ConfigError(f"scenario {scenario} requires key 'n'")
        n_particles = n_cluster + 1

    m = values.get("m")
    if model == "di" and m is None:
        m = 3  # conventional gate; override with key 'm'

    params = ModelParams(
        model=model,
        N=n_particles,
        kappa=values.get("kappa", 1.0),
        m=m,
        delta=delta,
        q=values.get("q"),
        alpha=values.get("alpha", 0.5),
        m_policy=values.get("m_policy"),
        h_steps=values.get("h_steps", 1),
    )

    domain_kind = values.get("domain")
    if domain_kind is None:
        domain_kind = "periodic" if scenario == "random_clusters" else "unbounded"
    if domain_kind == "periodic":
        domain = Domain.periodic(values.get("L", 25.0))
    else:
        if "L" in values:
            raise ConfigError("key 'L' only applies to periodic domains")
        domain = Domain.unbounded()

    t_end = values.get("t_end")
    if t_end is None:
        t_end = _DEFAULT_T_END.get(scenario)
        if t_end is None:  # three_body: horizon scales with the consensus rate
            t_end = 3.0 * (n_cluster + 1)

    spec = ScenarioSpec(
        scenario=scenario,
        params=params,
        domain=domain,
        dt=values.get("dt", 0.01),
        t_end=float(t_end),
        sample_every=values.get("sample_every", 10),
        seed=values.get("seed", 0),
        n_cluster=n_cluster,
        beta=values.get("beta"),
        gamma=values.get("gamma"),
        v_c=values.get("v_c"),
        shape=values.get("shape"),
        spacing=values.get("spacing"),
        margin=values.get("margin"),
    )
    return RunConfig(
        spec=spec,
        output_dir=values.get("output_dir", "out"),
        record_trajectory=values.get("record_trajectory", True),
        record_diagnostics=values.get("record_diagnostics", True),
        record_clusters=values.get("record_clusters", True),
    )

