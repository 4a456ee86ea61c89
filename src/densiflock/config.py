"""Flat key-value run configuration: parsing and validation.

The format is one ``key = value`` per line, ``#`` comments, no sections.
Unknown keys, duplicate keys, type mismatches, and constraint violations are
rejected with the offending line or key named.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .domains import Domain
from .dynamics import MODELS, POLICY_KINDS, ModelParams
from .errors import ConfigError
from .scenarios import GROUP_SHAPE_ROWS, LATTICES, SCENARIOS, ScenarioSpec

# key -> (type tag, allowed values or None)
_KEY_TYPES = {
    "model": ("choice", MODELS),
    "n": ("int", None),
    "m": ("int", None),
    "delta": ("float", None),
    "kappa": ("float", None),
    "alpha": ("float", None),
    "m_policy": ("choice", POLICY_KINDS),
    "h_steps": ("int", None),
    "dt": ("float", None),
    "t_end": ("float", None),
    "sample_every": ("int", None),
    "L": ("float", None),
    "seed": ("int", None),
    "scenario": ("choice", SCENARIOS),
    "beta": ("float", None),
    "gamma": ("float", None),
    "v_c": ("float", None),
    "shape": ("choice", tuple(GROUP_SHAPE_ROWS)),
    "spacing": ("float", None),
    "margin": ("float", None),
    "output_dir": ("str", None),
    "record_trajectory": ("bool", None),
    "record_diagnostics": ("bool", None),
    "record_clusters": ("bool", None),
}

@dataclass
class RunConfig:
    """A fully validated run: the scenario plus output destination and toggles."""

    spec: ScenarioSpec
    output_dir: str = "out"
    record_trajectory: bool = True
    record_diagnostics: bool = True
    record_clusters: bool = True


def _convert(key: str, raw: str, where: str):
    """raw as key's type; where (a line or a --set flag) prefixes the error."""
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
        raise ConfigError(f"{where}: key '{key}' expects {expected}, got {raw!r}") from None


def _scan(text: str) -> dict:
    entries: dict = {}
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
        entries[key] = _convert(key, raw, f"line {lineno}")
    return entries


def parse_overrides(overrides: dict[str, str]) -> dict:
    """Each override's raw value converted as its config line would be; an
    error names the key as the --set flag it came from."""
    values = {}
    for key, raw in overrides.items():
        if key not in _KEY_TYPES:
            raise ConfigError(f"--set {key}: unknown key {key!r}")
        values[key] = _convert(key, raw.strip(), f"--set {key}")
    return values


def parse_config(text: str, overrides: dict[str, str] | None = None) -> RunConfig:
    """Parse and validate a flat run configuration.

    Each override (key -> raw value) replaces the text's entry for its key,
    or adds one, as a value: it is never read as config text.
    """
    values = {**_scan(text), **parse_overrides(overrides or {})}

    scenario = values.get("scenario")
    if scenario is None:
        raise ConfigError("missing required key 'scenario'")
    model = values.get("model")
    if model is None:
        raise ConfigError("missing required key 'model'")

    if scenario == "random_clusters":
        if "n" not in values:
            raise ConfigError("scenario random_clusters requires key 'n'")
        n_particles = values["n"]
    else:
        n_cluster = values.get("n", LATTICES.get(scenario, {}).get("n"))
        if n_cluster is None:
            raise ConfigError(f"scenario {scenario} requires key 'n'")
        n_particles = n_cluster + 1

    if model == "di":
        values.setdefault("m", 3)  # conventional gate; override with key 'm'
    params = ModelParams(N=n_particles, **_fields(ModelParams, values))

    # A run is periodic exactly when it sets L; random_clusters always is.
    periodic = "L" in values or scenario == "random_clusters"
    domain = Domain(values.get("L", 25.0)) if periodic else Domain()

    spec = ScenarioSpec(params=params, domain=domain, **_fields(ScenarioSpec, values))
    return RunConfig(spec=spec, **_fields(RunConfig, values))


def _fields(cls, values: dict) -> dict:
    """The entries of values that name a field of dataclass cls."""
    names = {f.name for f in fields(cls)}
    return {key: value for key, value in values.items() if key in names}
