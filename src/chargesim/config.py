"""Flat key = value run configuration.

One option per line, ``key = value``, with ``#`` comments and blank lines
ignored. Command-line flags override file values, which override the
defaults below. The same schema feeds every subcommand; keys a subcommand
does not use are simply ignored by it.
"""

from __future__ import annotations

import math
import os
from dataclasses import fields

from .errors import ConfigError
from .ev import EvParams
from .experiment import ScenarioConfig
from .router import MODES

SEED_ENV_VAR = "CHARGESIM_SEED"


def _parse_bool(s: str) -> bool:
    v = s.strip().lower()
    if v in ("1", "true", "yes", "on"):
        return True
    if v in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _parse_float(s: str) -> float:
    v = float(s)
    if not math.isfinite(v):
        raise ValueError(f"not finite: {s.strip()!r}")
    return v


def _parse_floats(s: str) -> tuple[float, ...]:
    return tuple(_parse_float(x) for x in s.split(",") if x.strip())


def _parse_ints(s: str) -> tuple[int, ...]:
    return tuple(int(x) for x in s.split(",") if x.strip())


# key -> (parser, default, description)
SCHEMA: dict[str, tuple] = {
    "population_csv": (str, None, "path to lat,lon,population cell grid"),
    "network_csv": (str, None, "path to id,lat,lon,kind,power_kw charge points"),
    "n_ev": (int, 1000, "fleet size (capacity search ceiling)"),
    "n_ev_grid": (_parse_ints, (), "fleet sizes for the simulate sweep; empty = just n_ev"),
    "seed": (int, None, f"root RNG seed; default ${SEED_ENV_VAR} or 0"),
    "replicates": (int, 1, "independent replicates per scenario"),
    "mode": (str, "aware", "reservation mode: aware | blind"),
    "threads": (int, 0, "worker processes for replicates; 0 = all cores"),
    "max_stops": (int, 64, "stop budget per journey"),
    "battery_kwh": (_parse_float, 24.0, "usable battery energy"),
    "speed_kph": (_parse_float, 90.0, "cruise speed"),
    "max_range_km": (_parse_float, 110.0, "rated range on a full battery"),
    "dc_charge_kw": (_parse_float, 45.0, "vehicle-side DC charging limit"),
    "onboard_ac_limit_kw": (_parse_float, 22.0, "onboard AC charger limit"),
    "reserve_soc": (_parse_float, 0.20, "minimum state of charge en route"),
    "charge_target_soc": (_parse_float, 0.80, "charge-to level at each stop"),
    "route_scale": (_parse_float, 0.85, "straight-line range discount for road indirection"),
    "speed_thresholds_kph": (_parse_floats, (60.0, 40.0, 10.0), "below-speed fractions to report"),
    "pf_grid": (_parse_floats, (0.01, 0.02, 0.05, 0.1, 0.2), "fault probabilities for the sweep"),
    "fault_masks": (int, 100, "fault masks per p_f"),
    "fault_seed": (int, 0, "seed for fault mask draws"),
    "capacity_threshold_kph": (_parse_float, 40.0, "speed threshold for capacity search"),
    "capacity_target_p": (_parse_float, 1e-4, "tolerated below-threshold probability"),
}


def parse_config_file(path: str) -> dict:
    """Read a flat config file into typed values; unknown keys are errors."""
    out: dict = {}
    try:
        fh = open(path)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    with fh:
        for lineno, line in enumerate(fh, start=1):
            s = line.split("#", 1)[0].strip()
            if not s:
                continue
            if "=" not in s:
                raise ConfigError(f"{path}: line {lineno}: expected key = value")
            key, _, raw = s.partition("=")
            key = key.strip()
            raw = raw.strip()
            if key not in SCHEMA:
                raise ConfigError(f"{path}: line {lineno}: unknown key {key!r}")
            parser = SCHEMA[key][0]
            try:
                out[key] = parser(raw)
            except ValueError as exc:
                raise ConfigError(f"{path}: line {lineno}: bad value for {key}: {exc}") from exc
    return out


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
    if mode not in MODES:
        raise ConfigError(f"unknown mode {opts['mode']!r}; expected one of {MODES}")
    return opts


def scenario_from_options(opts: dict) -> ScenarioConfig:
    try:
        ev = EvParams(**{f.name: opts[f.name] for f in fields(EvParams)})
        return ScenarioConfig(
            n_ev=opts["n_ev"],
            seed=opts["seed"],
            replicates=opts["replicates"],
            mode=opts["mode"],
            ev=ev,
            population_csv=opts["population_csv"],
            network_csv=opts["network_csv"],
            speed_thresholds_kph=tuple(opts["speed_thresholds_kph"]),
            max_stops=opts["max_stops"],
            threads=opts["threads"],
        )
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
