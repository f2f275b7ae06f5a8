"""Flat key = value run configuration.

One option per line, ``key = value``, with ``#`` comments and blank lines
ignored. Command-line flags override file values, which override the
defaults below. The same schema feeds every subcommand; keys a subcommand
does not use are simply ignored by it. Every value, from a file, a flag,
--set or the environment, is parsed by its key's parser and range-checked
once, in resolve_options or by the type it builds, before any input file
is read.
"""

from __future__ import annotations

import math
import os
from dataclasses import fields, replace

import numpy as np

from .errors import ConfigError
from .ev import EvParams
from .experiment import ScenarioConfig
from .files import open_text
from .network import ChargeNetwork

SEED_ENV_VAR = "CHARGESIM_SEED"


def _parse_float(s: str) -> float:
    v = float(s)
    if not math.isfinite(v):
        raise ValueError(f"not finite: {s.strip()!r}")
    return v


def _parse_floats(s: str) -> tuple[float, ...]:
    return tuple(_parse_float(x) for x in s.split(",") if x.strip())


def _parse_ints(s: str) -> tuple[int, ...]:
    return tuple(int(x) for x in s.split(",") if x.strip())


def parse_pf_grid(text: str) -> tuple[float, ...]:
    """One or more probabilities in [0, 1]: a comma list, or start:stop:n,
    start:stop:n:log or start:stop:log (n = 8)."""
    try:
        if ":" not in text:
            vals = _parse_floats(text)
        else:
            parts = [p.strip() for p in text.split(":")]
            log = parts[-1].lower() == "log"
            if log:
                parts.pop()
            if len(parts) not in (2, 3):
                raise ValueError("expected start:stop[:n][:log]")
            start, stop = _parse_float(parts[0]), _parse_float(parts[1])
            n = int(parts[2]) if len(parts) == 3 else 8
            if n < 2:
                raise ValueError("grid needs at least 2 points")
            if not 0.0 <= start < stop <= 1.0:
                raise ValueError("need 0 <= start < stop <= 1")
            if log and start <= 0.0:
                raise ValueError("log grid needs start > 0")
            vals = tuple(float(v) for v in (np.geomspace if log else np.linspace)(start, stop, n))
        if not vals or not all(0.0 <= p <= 1.0 for p in vals):
            raise ValueError(f"pf_grid needs one or more probabilities in [0, 1], got {vals}")
    except ValueError as exc:
        raise ConfigError(f"bad p_f grid {text!r}: {exc}") from exc
    return vals


ISOLATED = "isolated:"


def parse_redundancy(text: str) -> str:
    """isolated:RADIUS_KM, or a comma list of charge point ids; returned in
    one spelling, so a manifest records what the run used."""
    s = text.strip()
    if s.lower().startswith(ISOLATED):
        radius = _parse_float(s[len(ISOLATED):])
        if radius <= 0:
            raise ValueError(f"isolation radius must be positive, got {radius:g}")
        return f"{ISOLATED}{radius!r}"
    ids = [x.strip() for x in s.split(",") if x.strip()]
    if not ids:
        raise ValueError(f"no target ids in {text!r}")
    return ",".join(ids)


def redundancy_targets(spec: str, net: ChargeNetwork) -> list[str]:
    """The ids in net that parse_redundancy's spelling spec names."""
    if spec.startswith(ISOLATED):
        return [p.id for p in net.isolated_points(float(spec[len(ISOLATED):]))]
    return spec.split(",")


# key -> (parser, default, description); a default the scenario's dataclasses
# also hold is read from them (a dataclass field's default is a class attribute)
SCHEMA: dict[str, tuple] = {
    "population_csv": (str, None, "path to lat,lon,population cell grid"),
    "network_csv": (str, None, "path to id,lat,lon,kind,power_kw charge points"),
    "n_ev": (int, 1000, "fleet size (capacity search ceiling)"),
    "n_ev_grid": (_parse_ints, (), "fleet sizes for the simulate sweep; empty = just n_ev"),
    "seed": (int, None, f"root RNG seed; default ${SEED_ENV_VAR} or 0"),
    "replicates": (int, ScenarioConfig.replicates, "independent replicates per scenario"),
    "mode": (str, ScenarioConfig.mode, "reservation mode: aware | blind"),
    # 1 in ScenarioConfig: a run from the command line uses every core unless told
    "threads": (int, 0, "worker processes for replicates; 0 = all cores"),
    "battery_kwh": (_parse_float, EvParams.battery_kwh, "usable battery energy"),
    "speed_kph": (_parse_float, EvParams.speed_kph, "cruise speed"),
    "max_range_km": (_parse_float, EvParams.max_range_km, "rated range on a full battery"),
    "dc_charge_kw": (_parse_float, EvParams.dc_charge_kw, "vehicle-side DC charging limit"),
    "onboard_ac_limit_kw": (_parse_float, EvParams.onboard_ac_limit_kw, "onboard AC charger limit"),
    "reserve_soc": (_parse_float, EvParams.reserve_soc, "minimum state of charge en route"),
    "charge_target_soc": (_parse_float, EvParams.charge_target_soc, "charge-to level at each stop"),
    "route_scale": (_parse_float, EvParams.route_scale,
                    "straight-line range discount for road indirection"),
    "speed_thresholds_kph": (_parse_floats, ScenarioConfig.speed_thresholds_kph,
                             "below-speed fractions to report"),
    "pf_grid": (parse_pf_grid, (0.01, 0.02, 0.05, 0.1, 0.2),
                "fault probabilities for the sweep: comma list, or start:stop[:n][:log]"),
    "fault_masks": (int, 100, "fault masks per p_f"),
    "fault_seed": (int, 0, "seed for fault mask draws"),
    "add_redundancy": (parse_redundancy, None,
                       "co-located twins before the sweep: isolated:RADIUS_KM or id,id,..."),
    "capacity_threshold_kph": (_parse_float, 40.0, "speed threshold for capacity search"),
    "capacity_target_p": (_parse_float, 1e-4, "tolerated below-threshold probability"),
}


def parse_config_file(path: str) -> dict:
    """Read a flat config file, UTF-8 text, into typed values; unknown keys
    are errors."""
    out: dict = {}
    with open_text(path, "config", ConfigError) as fh:
        lines = list(fh)
    for lineno, line in enumerate(lines, start=1):
        s = line.split("#", 1)[0].strip()
        if not s:
            continue
        if "=" not in s:
            raise ConfigError(f"{path}: line {lineno}: expected key = value")
        key, _, raw = s.partition("=")
        key = key.strip()
        if key not in SCHEMA:
            raise ConfigError(f"{path}: line {lineno}: unknown key {key!r}")
        out[key] = parse_value(key, raw, f"{path}: line {lineno}: bad value for {key}")
    return out


def parse_value(key: str, raw: str, source: str):
    """raw text parsed by key's parser; source prefixes the error message."""
    try:
        return SCHEMA[key][0](raw.strip())
    except ValueError as exc:
        raise ConfigError(f"{source}: {exc}") from exc


# least value of each integer key that no library type checks
INT_FLOORS = {"seed": 0, "fault_seed": 0, "threads": 0, "fault_masks": 1}


def resolve_options(file_values: dict, overrides: dict) -> dict:
    """defaults <- file <- command line, with the seed env var filling the
    gap when nothing else sets a seed."""
    opts = {key: default for key, (_, default, _) in SCHEMA.items()}
    opts.update(file_values)
    opts.update({k: v for k, v in overrides.items() if v is not None})
    if opts["seed"] is None:
        env = os.environ.get(SEED_ENV_VAR)
        try:
            opts["seed"] = int(env) if env else 0
        except ValueError as exc:
            raise ConfigError(f"bad {SEED_ENV_VAR}: {env!r}") from exc
    # "reservation-aware" / "reservation-blind" are accepted long forms
    mode = str(opts["mode"]).strip().lower()
    if mode.startswith("reservation-"):
        mode = mode[len("reservation-"):]
    opts["mode"] = mode
    for key, low in INT_FLOORS.items():
        if opts[key] < low:
            raise ConfigError(f"{key} must be at least {low}, got {opts[key]}")
    target, threshold = opts["capacity_target_p"], opts["capacity_threshold_kph"]
    if not 0.0 < target <= 1.0:
        raise ConfigError(f"capacity target probability out of (0, 1]: {target}")
    if threshold <= 0.0:
        raise ConfigError(f"capacity threshold must be positive: {threshold}")
    return opts


def _build(cls, values: dict):
    return cls(**{f.name: values[f.name] for f in fields(cls)})


def scenario_from_options(opts: dict) -> ScenarioConfig:
    """The scenario, checked by its own types, with each n_ev_grid size."""
    try:
        cfg = _build(ScenarioConfig, dict(opts, ev=_build(EvParams, opts)))
        for n in opts["n_ev_grid"]:
            replace(cfg, n_ev=n)
        return cfg
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def describe_schema() -> str:
    lines = ["# chargesim configuration: key = value, one per line"]
    for key, (_, default, desc) in SCHEMA.items():
        shown = "" if default is None else default
        if isinstance(shown, tuple):
            shown = ",".join(f"{x:g}" if isinstance(x, float) else str(x) for x in shown)
        lines.append(f"# {key:24s} {desc} (default: {shown})")
    return "\n".join(lines)
