"""Deterministic generator of event-structured synthetic households.

Each appliance is a Markov state machine with geometric dwell times
cycling through its power levels; cross-appliance triggers model usage
chains (a washer finishing pulls the dryer on a few steps later).
Emitted values are state levels plus Gaussian noise and occasional
positive spikes, so the clean event structure sits under realistic
corruption. Ground-truth states come back alongside the series for
oracle-based testing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import json
import math
import numpy as np

from .data import SeriesFrame
from .errors import ConfigError, allocate, layered, reading
from .labeling import MAX_STATES, MIN_STATES, StateProfile

HOUSEHOLD_COLUMN = "household"
START_EPOCH = 1672531200  # 2023-01-01T00:00:00Z, hourly steps
PERIOD_SECONDS = 3600


@dataclass
class Trigger:
    """Source-event coupling: when `source` enters `source_state`, the
    owning appliance is pulled into its ON state `lag` steps later with
    the given probability."""

    source: str
    source_state: int
    lag: int
    probability: float


@dataclass
class ApplianceSpec:
    name: str
    state_levels: list[float]
    dwell_means: list[float]
    trigger: Trigger | None = None


@dataclass
class SynthConfig:
    appliances: list[ApplianceSpec]
    length: int = 2000
    noise_sigma: float = 0.05
    spike_rate: float = 0.0
    include_household_total: bool = True
    seed: int = 0


def validate_config(config: SynthConfig) -> None:
    if config.length < 1:
        raise ConfigError(f"length must be >= 1, got {config.length}")
    if not 0 <= config.noise_sigma < math.inf:
        raise ConfigError(f"noise_sigma must be finite and >= 0, got {config.noise_sigma}")
    if not 0.0 <= config.spike_rate <= 1.0:
        raise ConfigError(f"spike_rate must be in [0, 1], got {config.spike_rate}")
    if config.seed < 0:
        raise ConfigError(f"seed must be >= 0, got {config.seed}")
    if not config.appliances:
        raise ConfigError("at least one appliance is required")
    names = [a.name for a in config.appliances]
    if not all(isinstance(name, str) for name in names):
        raise ConfigError(f"appliance names must be strings, got {names}")
    for name in names:  # each name becomes a CSV header cell
        if not name or any(c in name for c in ',"\n\r'):
            raise ConfigError(f"appliance name {name!r} is empty or holds , \" or a line break")
    if len(set(names)) != len(names):
        raise ConfigError(f"duplicate appliance names in {names}")
    if config.include_household_total and HOUSEHOLD_COLUMN in names:
        raise ConfigError(f"appliance name {HOUSEHOLD_COLUMN!r} collides with the total column")
    for app in config.appliances:
        n = len(app.state_levels)
        if not MIN_STATES <= n <= MAX_STATES:
            raise ConfigError(f"{app.name}: need {MIN_STATES}-{MAX_STATES} state levels, got {n}")
        if not all(math.isfinite(v) for v in app.state_levels):
            raise ConfigError(f"{app.name}: state levels must be finite, got {app.state_levels}")
        if len(set(app.state_levels)) != n:
            raise ConfigError(f"{app.name}: state levels must be distinct")
        if len(app.dwell_means) != n:
            raise ConfigError(f"{app.name}: {len(app.dwell_means)} dwell means for {n} states")
        if not all(1.0 <= m < math.inf for m in app.dwell_means):
            raise ConfigError(f"{app.name}: dwell means must be finite and >= 1 step")
        if app.trigger is not None:
            tr = app.trigger
            if tr.source not in names:
                raise ConfigError(f"{app.name}: trigger source {tr.source!r} is not an appliance")
            if tr.source == app.name:
                raise ConfigError(f"{app.name}: appliance cannot trigger itself")
            if tr.lag < 1:
                raise ConfigError(f"{app.name}: trigger lag must be >= 1, got {tr.lag}")
            if not 0.0 <= tr.probability <= 1.0:
                raise ConfigError(
                    f"{app.name}: trigger probability must be in [0, 1], got {tr.probability}"
                )
            src_states = len(next(a.state_levels for a in config.appliances if a.name == tr.source))
            if not 0 <= tr.source_state < src_states:
                raise ConfigError(
                    f"{app.name}: trigger source state {tr.source_state} out of range "
                    f"[0, {src_states})"
                )
    _check_trigger_cycles(config.appliances)


def _check_trigger_cycles(appliances: list[ApplianceSpec]) -> None:
    edges = {a.name: a.trigger.source for a in appliances if a.trigger is not None}
    for start in edges:
        path = [start]
        node = edges[start]
        while node in edges:
            path.append(node)
            node = edges[node]
            if node == start:
                cycle = " -> ".join(path + [node])
                raise ConfigError(f"trigger cycle detected: {cycle}")
            if len(path) > len(appliances):
                break


def generate(config: SynthConfig) -> tuple[SeriesFrame, StateProfile]:
    """Simulate the household; returns the emitted series and the
    ground-truth appliance states.

    The frame holds one column per appliance (plus a trailing
    household-total column when configured, equal to the exact row sum
    of the appliance columns). The StateProfile covers the appliance
    columns only: a household total has no small true state set. A length
    whose state matrix cannot be allocated is a ConfigError, found up front.
    """
    validate_config(config)
    apps = config.appliances
    n_apps = len(apps)
    l = config.length
    rng_states = np.random.default_rng(np.random.SeedSequence(entropy=(config.seed, 0)))
    rng_noise = np.random.default_rng(np.random.SeedSequence(entropy=(config.seed, 1)))
    name_to_idx = {a.name: i for i, a in enumerate(apps)}
    listeners: dict[int, list[int]] = {i: [] for i in range(n_apps)}
    for j, app in enumerate(apps):
        if app.trigger is not None:
            listeners[name_to_idx[app.trigger.source]].append(j)

    def sample_dwell(app: ApplianceSpec, state: int) -> int:
        return int(rng_states.geometric(1.0 / app.dwell_means[state]))

    states = allocate(f"series of length {l}", np.zeros, (l, n_apps), np.int64)
    current = [0] * n_apps
    left = [sample_dwell(app, 0) for app in apps]
    forced: list[set[int]] = [set() for _ in range(n_apps)]
    for t in range(l):
        for i, app in enumerate(apps):
            entered: int | None = None
            if t > 0:
                if t in forced[i]:
                    if current[i] != 1:
                        current[i] = 1
                        entered = 1
                    left[i] = sample_dwell(app, 1)
                elif left[i] <= 0:
                    current[i] = (current[i] + 1) % len(app.state_levels)
                    entered = current[i]
                    left[i] = sample_dwell(app, current[i])
            if entered is not None:
                for j in listeners[i]:
                    tr = apps[j].trigger
                    assert tr is not None
                    if tr.source_state == entered and rng_states.random() < tr.probability:
                        when = t + tr.lag
                        if when < l:
                            forced[j].add(when)
            states[t, i] = current[i]
            left[i] -= 1

    levels = [np.asarray(app.state_levels, dtype=np.float64) for app in apps]
    base = np.column_stack([levels[i][states[:, i]] for i in range(n_apps)])
    noise = rng_noise.normal(0.0, config.noise_sigma, size=(l, n_apps))
    spike_mask = rng_noise.random((l, n_apps)) < config.spike_rate
    spike_mag = rng_noise.uniform(
        2.0 * config.noise_sigma, 6.0 * config.noise_sigma, size=(l, n_apps)
    )
    values = base + noise + spike_mask * spike_mag
    names = [a.name for a in apps]
    if config.include_household_total:
        values = np.column_stack([values, values.sum(axis=1)])
        names = names + [HOUSEHOLD_COLUMN]
    timestamps = START_EPOCH + PERIOD_SECONDS * np.arange(l, dtype=np.int64)
    frame = SeriesFrame(timestamps, values, names)
    truth = StateProfile(states, np.asarray([len(a.state_levels) for a in apps]))
    return frame, truth


def default_household(seed: int = 0, length: int = 2000) -> SynthConfig:
    """Small four-appliance household with one trigger chain."""
    return SynthConfig(
        appliances=[
            ApplianceSpec("fridge", [0.1, 0.7], [5.0, 3.0]),
            ApplianceSpec("washer", [0.0, 2.0], [120.0, 8.0]),
            ApplianceSpec(
                "dryer", [0.0, 2.5], [200.0, 10.0], trigger=Trigger("washer", 1, 2, 0.9)
            ),
            ApplianceSpec("oven", [0.0, 3.0, 1.2], [150.0, 4.0, 8.0]),
        ],
        length=length,
        noise_sigma=0.05,
        spike_rate=0.005,
        include_household_total=True,
        seed=seed,
    )


def benchmark_household(seed: int = 0, length: int = 20000) -> SynthConfig:
    """Eight-appliance event-structured benchmark household used by the
    directional-improvement acceptance run (sigma 0.15, spikes 1%)."""
    return SynthConfig(
        appliances=[
            ApplianceSpec("fridge", [0.1, 0.7], [5.0, 3.0]),
            ApplianceSpec("washer", [0.0, 2.0], [90.0, 8.0]),
            ApplianceSpec(
                "dryer", [0.0, 2.5], [220.0, 10.0], trigger=Trigger("washer", 1, 2, 0.9)
            ),
            ApplianceSpec("dishwasher", [0.0, 1.5], [70.0, 6.0]),
            ApplianceSpec("oven", [0.0, 3.0, 1.2], [110.0, 4.0, 8.0]),
            ApplianceSpec(
                "hood", [0.0, 0.9], [240.0, 6.0], trigger=Trigger("oven", 1, 1, 0.8)
            ),
            ApplianceSpec("hvac", [0.0, 1.0, 2.2], [18.0, 10.0, 6.0]),
            ApplianceSpec(
                "ev_charger", [0.0, 4.0], [160.0, 12.0], trigger=Trigger("dishwasher", 1, 3, 0.6)
            ),
        ],
        length=length,
        noise_sigma=0.15,
        spike_rate=0.01,
        include_household_total=True,
        seed=seed,
    )


# The JSON type of every value of an appliance file: a tuple of the types
# it may have (true is not an int here), [schema] for a list of such
# values, {key: schema} for an object that holds no other key.
_NUMBER = (int, float)
_SCALAR_TYPES = {"length": (int,), "noise_sigma": _NUMBER, "spike_rate": _NUMBER,
                 "include_household_total": (bool,), "seed": (int,)}
_TRIGGER = {"source": (str,), "source_state": (int,), "lag": (int,), "probability": _NUMBER}
_APPLIANCE = {"name": (str,), "state_levels": [_NUMBER], "dwell_means": [_NUMBER], "trigger": _TRIGGER}
_SCHEMA = {"appliances": [_APPLIANCE], **_SCALAR_TYPES}


def _check(value, schema, where: str = "") -> None:
    """Raise ConfigError naming the key path where unless value fits schema."""
    types = (type(schema),) if isinstance(schema, (dict, list)) else schema
    if type(value) not in types:
        names = " or ".join(t.__name__ for t in types)
        raise ConfigError(f"{where or 'the file'} must be of type {names}, got {value!r}")
    if type(value) is list:
        for i, item in enumerate(value):
            _check(item, schema[0], f"{where}[{i}]")
    elif type(value) is dict:
        for key, item in value.items():
            path = f"{where}.{key}" if where else key
            if key not in schema:
                raise ConfigError(f"unknown key {path}")
            _check(item, schema[key], path)


def config_from_json(path: str | Path, **overrides) -> SynthConfig:
    """Build a SynthConfig from a JSON appliance file.

    Schema: {"appliances": [{"name", "state_levels", "dwell_means",
    "trigger"?: {"source", "source_state", "lag", "probability"}}, ...],
    "length"?, "noise_sigma"?, "spike_rate"?,
    "include_household_total"?, "seed"?}. Keyword overrides win. A file
    that cannot be read, parsed or validated, or that leaves _SCHEMA,
    raises ConfigError naming it.
    """
    with reading(path, error=ConfigError):
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
        _check(raw, _SCHEMA)
        apps = [
            ApplianceSpec(
                name=a["name"],
                state_levels=[float(v) for v in a["state_levels"]],
                dwell_means=[float(v) for v in a["dwell_means"]],
                trigger=Trigger(**a["trigger"]) if "trigger" in a else None,
            )
            for a in raw["appliances"]
        ]
        kwargs = {key: raw[key] for key in _SCALAR_TYPES if key in raw}

    def build(**values) -> SynthConfig:
        config = SynthConfig(appliances=apps, **values)
        validate_config(config)
        return config

    return layered(build, kwargs, overrides, path)
