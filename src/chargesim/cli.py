"""The chargesim command line.

Subcommands: simulate (fleet sweep -> metrics CSV + summary JSON), faults
(fault-injection sweep -> CSV), capacity (fleet-size search), validate
(arithmetic and distribution self-checks), gen-fixtures (synthetic inputs).

A command makes its run directory at its first output, so a failed command
leaves none. Every run directory gets a manifest.json recording the
resolved options, seed, tool version and exactly the files written,
written atomically after the outputs, so a run can be reproduced
bit-for-bit from its manifest.

Exit codes: 0 success, 2 bad configuration, 3 bad input data, 4 failed
self-check, 141 standard output closed early (a shell's status for SIGPIPE).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time
from functools import partial, reduce
from itertools import chain

import numpy as np

from . import __version__
from .config import (
    SCHEMA,
    describe_schema,
    parse_config_file,
    parse_value,
    redundancy_targets,
    resolve_options,
    scenario_from_options,
)
from .errors import ConfigError, DataError
from .ev import EvParams, charge_duration_h, effective_speed_kph, max_leg_km
from .experiment import (
    InfraCostModel,
    ScenarioConfig,
    ScenarioMetrics,
    capacity_search,
    cost_per_user_eur,
    load_scenario_inputs,
    run_replicates,
    run_scenario_grid,
)
from .faults import SweepRow, run_fault_sweep
from .files import write_csv, write_text_atomic
from .fixtures import (
    PopulationBlob,
    synthetic_network,
    synthetic_population_grid,
    write_network_csv,
    write_population_csv,
)
from .geo import GeoPoint
from .network import add_colocated_redundancy
# unused here; perfbench's tracer wraps ledgers through cli.ReservationLedger
from .reservations import ReservationLedger  # noqa: F401
from .router import RoutePlan, Unroutable, average_trip_speed
from .triplength import default_trip_distribution


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def _options_record(opts: dict) -> dict:
    """The options a run used, as JSON; unset keys are left out, so a config
    file written from the record reruns the same command."""
    return {k: list(v) if isinstance(v, tuple) else v
            for k, v in sorted(opts.items()) if v is not None}


class _Run:
    """One command's run directory, made at its first output, so that a
    failed command leaves none. path(), csv() and json() name each output
    and record it; finish() then writes manifest.json, listing them."""

    def __init__(self, ns, opts: dict) -> None:
        self.ns, self.opts = ns, opts
        self.dir = ns.out or "chargesim-out"
        self.outputs: list[str] = []
        self.t0 = time.monotonic()

    def path(self, name: str) -> str:
        os.makedirs(self.dir, exist_ok=True)
        self.outputs.append(name)
        return os.path.join(self.dir, name)

    def csv(self, name: str, header, rows) -> None:
        write_csv(self.path(name), header, rows, line_end="\n")

    def json(self, name: str, obj) -> None:
        write_text_atomic(self.path(name), json.dumps(obj, indent=2, sort_keys=True) + "\n")

    def finish(self) -> None:
        manifest = {
            "tool": "chargesim",
            "version": __version__,
            "subcommand": self.ns.subcommand,
            "config_file": (os.path.abspath(self.ns.config)
                            if getattr(self.ns, "config", None) else None),
            "options": _options_record(self.opts),
            "seed": self.opts.get("seed"),
            "outputs": sorted(self.outputs),
            "wall_clock_s": round(time.monotonic() - self.t0, 3),
        }
        write_text_atomic(self.path("manifest.json"), json.dumps(manifest, indent=2) + "\n")


def _collect_overrides(ns) -> dict:
    """Flag values routed into the config schema; --set covers every key."""
    overrides = {
        key: parse_value(key, getattr(ns, key), f"bad value for --{flag}")
        for flag, key in SCENARIO_FLAGS[ns.subcommand].items()
        if getattr(ns, key) is not None
    }
    for item in ns.set or []:
        key, sep, raw = item.partition("=")
        key = key.strip()
        if not sep:
            raise ConfigError(f"--set needs KEY=VALUE, got {item!r}")
        if key not in SCHEMA:
            raise ConfigError(f"--set: unknown key {key!r}")
        overrides[key] = parse_value(key, raw, f"--set {key}")
    return overrides


def _scenario(ns) -> tuple[_Run, ScenarioConfig]:
    """A scenario command's run and config, checked before any input is read."""
    file_values = parse_config_file(ns.config) if ns.config else {}
    opts = resolve_options(file_values, _collect_overrides(ns))
    return _Run(ns, opts), scenario_from_options(opts)


# ---------------------------------------------------------------------------
# simulate


def _write_metrics_csv(run: _Run, metrics: list[ScenarioMetrics], thresholds: tuple[float, ...]) -> None:
    header = ["n_ev", "trips", "frac_charge"]
    header += [f"frac_below_{t:g}" for t in thresholds]
    header += ["frac_unroutable", "mean_speed"]
    rows = []
    for m in metrics:
        cells = [str(m.n_ev), str(m.trips), _fmt(m.frac_needing_charge)]
        cells += [_fmt(m.frac_below(t)) for t in thresholds]
        cells += [_fmt(m.frac_unroutable), _fmt(m.mean_speed_kph)]
        rows.append(cells)
    run.csv("metrics.csv", header, rows)


def _metrics_summary(m: ScenarioMetrics) -> dict:
    below = {}
    for t in m.thresholds:
        lo, hi = m.ci_below(t)
        below[f"{t:g}"] = {
            "count": m.below[t],
            "frac": m.frac_below(t),
            "ci_low": lo,
            "ci_high": hi,
        }
    return {
        "n_ev": m.n_ev,
        "trips": m.trips,
        "needed_charge": m.needed_charge,
        "frac_needing_charge": m.frac_needing_charge,
        "unroutable": m.unroutable,
        "frac_unroutable": m.frac_unroutable,
        "mean_speed_kph": m.mean_speed_kph,
        "below_kph": below,
    }


def _route_record(replicate: int, res: RoutePlan | Unroutable) -> dict:
    if isinstance(res, Unroutable):
        return {
            "replicate": replicate,
            "ev_id": res.ev_id,
            "status": "unroutable",
            "direct_km": res.direct_km,
            "needed_charge": res.needed_charge,
            "reason": res.reason,
        }
    return {
        "replicate": replicate,
        "ev_id": res.ev_id,
        "status": "ok",
        "depart_h": res.depart_h,
        "arrival_h": res.arrival_h,
        "direct_km": res.direct_km,
        "route_km": res.route_km,
        "needed_charge": res.needed_charge,
        "mean_speed_kph": average_trip_speed(res),
        "stops": [dataclasses.asdict(s) for s in res.stops],
    }


def _dump_replicate(routes: bool, ledger: bool, reps, cfg: ScenarioConfig,
                    r: int) -> tuple[ScenarioMetrics, list[str], list[tuple]]:
    """A run_replicates task: replicate r's metrics, and its route lines and
    ledger rows, each only if asked for."""
    m, results, led = reps.run(cfg, r)
    lines = [json.dumps(_route_record(r, res), sort_keys=True) for res in results] if routes else []
    rows = [(r, cp, ev, _fmt(s), _fmt(e)) for cp, ev, s, e in led.to_rows()] if ledger else []
    return m, lines, rows


def cmd_simulate(ns) -> int:
    run, cfg = _scenario(ns)
    sizes = list(run.opts["n_ev_grid"]) or [cfg.n_ev]
    dump = ns.dump_routes or ns.dump_ledger
    if dump and len(sizes) != 1:
        raise ConfigError("route/ledger dumps need a single fleet size, not a grid")
    grid, net, dist = load_scenario_inputs(cfg)

    if dump:
        cfg = dataclasses.replace(cfg, n_ev=sizes[0])
        task = partial(_dump_replicate, ns.dump_routes, ns.dump_ledger)
        ms, route_lines, ledger_rows = zip(*run_replicates(cfg, grid, net, dist, task))
        metrics = [reduce(ScenarioMetrics.merge, ms)]
        if ns.dump_routes:
            write_text_atomic(run.path("routes.jsonl"), "\n".join(chain(*route_lines)) + "\n")
        if ns.dump_ledger:
            run.csv("ledger.csv", ("replicate", "cp_id", "ev_id", "start_h", "end_h"),
                    chain(*ledger_rows))
    else:
        metrics = run_scenario_grid(cfg, sizes, grid=grid, net=net, dist=dist)

    _write_metrics_csv(run, metrics, tuple(cfg.speed_thresholds_kph))
    run.json("summary.json", {
        "seed": run.opts["seed"],
        "mode": run.opts["mode"],
        "options": _options_record(run.opts),
        "results": [_metrics_summary(m) for m in metrics],
    })
    run.finish()
    for m in metrics:
        print(
            f"n_ev {m.n_ev}: {m.trips} trips, "
            f"{m.frac_needing_charge:.4f} needed charge, "
            f"mean speed {m.mean_speed_kph:.1f} kph"
        )
    print(f"wrote {run.dir}/metrics.csv")
    return 0


# ---------------------------------------------------------------------------
# faults


def _sweep_replicate(pf_grid: list[float], masks: int, fault_seed: int, reps,
                     cfg: ScenarioConfig, r: int) -> list[SweepRow]:
    """A run_replicates task: plan replicate r, then sweep its plans on the
    runner's network, which holds any redundant twins."""
    m, results, ledger = reps.run(cfg, r)
    plans = [p for p in results if isinstance(p, RoutePlan)]
    return run_fault_sweep(plans, m.unroutable, reps.net, ledger, cfg.router, pf_grid, masks,
                           seed=fault_seed + r)


def cmd_faults(ns) -> int:
    run, cfg = _scenario(ns)
    grid, net, dist = load_scenario_inputs(cfg)
    if run.opts["add_redundancy"]:
        targets = redundancy_targets(run.opts["add_redundancy"], net)
        net = add_colocated_redundancy(net, targets)
        print(f"added {len(targets)} redundant points; network now {len(net)} points")

    sweep = partial(_sweep_replicate, list(run.opts["pf_grid"]), run.opts["fault_masks"],
                    run.opts["fault_seed"])
    swept = run_replicates(cfg, grid, net, dist, sweep)
    rows = [reduce(SweepRow.merge, at_p_f) for at_p_f in zip(*swept)]

    run.csv(
        "faults.csv",
        ("p_f", "trips", "needed_charge", "stranded", "unroutable", "p_s", "ci_low", "ci_high"),
        [(_fmt(row.p_f), row.trips, row.needed_charge, row.stranded, row.unroutable,
          _fmt(row.p_s), _fmt(row.ci_low), _fmt(row.ci_high)) for row in rows],
    )
    run.finish()
    for row in rows:
        print(
            f"p_f {row.p_f:.4g}: p_s {row.p_s:.3e} "
            f"[{row.ci_low:.2e}, {row.ci_high:.2e}], "
            f"unroutable {row.unroutable}/{row.trips}"
        )
    print(f"wrote {run.dir}/faults.csv")
    return 0


# ---------------------------------------------------------------------------
# capacity


def cmd_capacity(ns) -> int:
    run, cfg = _scenario(ns)
    threshold, target = run.opts["capacity_threshold_kph"], run.opts["capacity_target_p"]
    grid, net, dist = load_scenario_inputs(cfg)
    result = capacity_search(cfg, threshold, target, grid=grid, net=net, dist=dist)

    run.csv(
        "capacity.csv",
        ("n_ev", "failures", "trials", "upper_ci"),
        [(p.n_ev, p.failures, p.trials, _fmt(p.upper_ci)) for p in result.probes],
    )
    run.json("capacity.json", {
        "found": result.found,
        "capacity_n_ev": result.n_ev,
        "threshold_kph": result.threshold_kph,
        "target_p": result.target_p,
        "ceiling_n_ev": cfg.n_ev,
        "probes": [dataclasses.asdict(p) for p in result.probes],
    })
    run.finish()
    if result.found:
        print(
            f"capacity {result.n_ev} vehicles "
            f"(below {threshold:g} kph with P <= {target:g}, ceiling {cfg.n_ev})"
        )
    elif result.probes:
        print(f"target {target:g} unreachable even at {result.probes[0].n_ev} vehicles")
    else:
        print(
            f"target {target:g} unreachable: {cfg.n_ev} vehicles times "
            f"{cfg.replicates} replicates are too few trials even with no failure"
        )
    print(f"wrote {run.dir}/capacity.csv")
    return 0


# ---------------------------------------------------------------------------
# validate


class _Report:
    """Collects computed-vs-nominal lines; any out-of-tolerance check fails
    the run. Informational lines record known mismatches without failing."""

    def __init__(self) -> None:
        self.failures = 0

    def check(self, label: str, computed: float, nominal: float, tol: float) -> None:
        ok = abs(computed - nominal) <= tol
        if not ok:
            self.failures += 1
        print(
            f"  {label:<42s} computed {computed:<12.6g} "
            f"nominal {nominal:<8g} tol {tol:<8g} {'PASS' if ok else 'FAIL'}"
        )

    def info(self, label: str, computed: float, note: str) -> None:
        print(f"  {label:<42s} computed {computed:<12.6g} {note}")


def cmd_validate(ns) -> int:
    sections = [s for s in ("ev_math", "cost", "dist") if getattr(ns, s)]
    if not sections:
        sections = ["ev_math", "cost", "dist"]
    rep = _Report()
    ev = EvParams()

    if "ev_math" in sections:
        print("vehicle arithmetic:")
        rep.check(
            "charge 0.2->0.8 at 45 kW (min)",
            60.0 * charge_duration_h(ev, 0.2, 0.8, 45.0),
            19.2,
            1e-9,
        )
        rep.check("effective speed at 45 kW (kph)", effective_speed_kph(ev, 45.0), 62.7, 0.05)
        rep.check("effective speed at 22 kW (kph)", effective_speed_kph(ev, 22.0), 47.6, 0.05)
        rep.check("max leg 1.0->0.2 (km)", max_leg_km(ev, 1.0, 0.2), 74.8, 0.01)
        rep.check("max leg 0.8->0.2 (km)", max_leg_km(ev, 0.8, 0.2), 56.1, 0.01)

    if "cost" in sections:
        print("infrastructure cost (EUR per user per year):")
        model = InfraCostModel()
        # only the point counts enter the cost model
        anchor = GeoPoint(47.0, 8.0)
        mixed = synthetic_network(anchor, 300.0, 300.0, 72, 636, seed=1)
        dc_only = synthetic_network(anchor, 300.0, 300.0, 708, 0, seed=2)
        rep.check("72 DC + 636 AC, 36000 users", cost_per_user_eur(model, mixed, 36000), 34.0, 0.1)
        rep.check("708 DC, 36000 users", cost_per_user_eur(model, dc_only, 36000), 165.2, 0.1)
        rep.check("72 DC + 636 AC, 3600 users", cost_per_user_eur(model, mixed, 3600), 340.3, 0.5)

    if "dist" in sections:
        print("trip length distribution:")
        dist = default_trip_distribution()
        rep.check("total probability", dist.tail_probability(0.0), 1.0, 1e-6)
        rep.check("mean trip (km)", dist.mean_km(), 16.7, 0.1)
        rep.info(
            "P(trip > 74.8 km)",
            dist.tail_probability(74.8),
            "nominal ~0.026 from a shape-1/3 closed form; informational",
        )
        rep.info(
            "P(trip > 161 km)",
            dist.tail_probability(161.0),
            "nominal 0.01 is a known overstatement; informational",
        )
        rep.info("median trip (km)", dist.quantile(0.5), "")

    if rep.failures:
        print(f"{rep.failures} check(s) failed")
        return 4
    print("all checks passed")
    return 0


# ---------------------------------------------------------------------------
# gen-fixtures


def cmd_gen_fixtures(ns) -> int:
    # the manifest's options: every flag but --out
    run = _Run(ns, {key: getattr(ns, key) for key in (
        "seed", "width_km", "height_km", "population", "n_dc", "n_ac", "blobs", "n_ev")})
    w, h = ns.width_km, ns.height_km
    if not all(math.isfinite(x) for x in (w, h, ns.population)):
        raise ConfigError("fixture width, height and population must be finite")
    if w < 4 or h < 4:
        raise ConfigError("fixture region must be at least 4 km on each side")
    if ns.population <= 0:
        raise ConfigError("fixture population must be positive")
    if min(ns.n_dc, ns.n_ac, ns.blobs) < 0:
        raise ConfigError("--n-dc, --n-ac and --blobs must not be negative")
    if ns.n_ev < 1:
        raise ConfigError("--n-ev must be at least 1")
    if ns.seed < 0:
        raise ConfigError("--seed must not be negative")

    anchor = GeoPoint(53.0, -8.0)
    blobs = None
    if ns.blobs > 0:
        rng = np.random.default_rng(np.random.SeedSequence(ns.seed, spawn_key=(1,)))
        sigma = min(w, h) / 10.0
        blobs = [
            PopulationBlob(
                center_east_km=float(rng.uniform(0.2 * w, 0.8 * w)),
                center_north_km=float(rng.uniform(0.2 * h, 0.8 * h)),
                sigma_km=sigma,
            )
            for _ in range(ns.blobs)
        ]
    grid = synthetic_population_grid(anchor, int(w), int(h), ns.population, blobs)
    net = synthetic_network(anchor, w, h, ns.n_dc, ns.n_ac, ns.seed)

    pop_path, net_path = run.path("population.csv"), run.path("network.csv")
    write_population_csv(grid, pop_path)
    write_network_csv(net, net_path)
    cfg_path = run.path("scenario.cfg")
    cfg_text = "\n".join(
        [
            describe_schema(),
            "",
            f"population_csv = {os.path.abspath(pop_path)}",
            f"network_csv = {os.path.abspath(net_path)}",
            f"n_ev = {ns.n_ev}",
            f"seed = {ns.seed}",
            "mode = aware",
            "replicates = 1",
            "",
        ]
    )
    write_text_atomic(cfg_path, cfg_text)
    run.finish()
    print(f"wrote {pop_path} ({len(grid)} cells), {net_path} ({len(net)} points)")
    print(f"wrote {cfg_path}")
    return 0


# ---------------------------------------------------------------------------
# parser


# flag spelling -> config key, per scenario subcommand; a flag's help is
# its key's schema description
SHARED_FLAGS = {"n-ev": "n_ev", "seed": "seed", "mode": "mode",
                "replicates": "replicates", "threads": "threads"}
SCENARIO_FLAGS = {
    "simulate": {**SHARED_FLAGS, "n-ev-grid": "n_ev_grid", "onboard-ac": "onboard_ac_limit_kw"},
    "faults": {**SHARED_FLAGS, "pf-grid": "pf_grid", "masks": "fault_masks",
               "fault-seed": "fault_seed", "reserve": "reserve_soc",
               "add-redundancy": "add_redundancy"},
    "capacity": {**SHARED_FLAGS, "threshold": "capacity_threshold_kph",
                 "target": "capacity_target_p"},
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chargesim",
        description="Monte Carlo simulation of a public EV charging network",
        epilog="run `chargesim gen-fixtures --out demo` for a ready-made scenario",
    )
    parser.add_argument("--version", action="version", version=f"chargesim {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    for name, summary, func in [
        ("simulate", "fleet sweep: metrics CSV + summary JSON", cmd_simulate),
        ("faults", "fault-injection sweep over p_f", cmd_faults),
        ("capacity", "largest fleet meeting a failure target", cmd_capacity),
    ]:
        p = sub.add_parser(name, help=summary)
        p.add_argument("-c", "--config", help="flat key = value config file")
        p.add_argument("--out", help="output directory (default chargesim-out)")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override any config key; repeatable")
        for flag, key in SCENARIO_FLAGS[name].items():
            p.add_argument(f"--{flag}", dest=key, help=SCHEMA[key][2])
        if name == "simulate":
            p.add_argument("--dump-routes", action="store_true", help="write per-trip routes.jsonl")
            p.add_argument("--dump-ledger", action="store_true", help="write realized bookings CSV")
        p.set_defaults(func=func)

    p = sub.add_parser("validate", help="arithmetic and distribution self-checks")
    p.add_argument("--ev-math", dest="ev_math", action="store_true", help="vehicle arithmetic")
    p.add_argument("--cost", dest="cost", action="store_true", help="cost model")
    p.add_argument("--dist", dest="dist", action="store_true", help="trip length distribution")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("gen-fixtures", help="write a synthetic scenario to a directory")
    p.add_argument("--out", help="output directory (default chargesim-out)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--width-km", type=float, dest="width_km", default=160.0)
    p.add_argument("--height-km", type=float, dest="height_km", default=120.0)
    p.add_argument("--population", type=float, default=2e5)
    p.add_argument("--n-dc", type=int, dest="n_dc", default=25)
    p.add_argument("--n-ac", type=int, dest="n_ac", default=25)
    p.add_argument("--blobs", type=int, default=2, help="population clusters; 0 = uniform")
    p.add_argument("--n-ev", type=int, dest="n_ev", default=500, help="n_ev in scenario.cfg")
    p.set_defaults(func=cmd_gen_fixtures)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        rc = ns.func(ns)
        sys.stdout.flush()
        return rc
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # stdout was closed early, as by `| head`: what is still buffered
        # goes to devnull, so that the interpreter's flush at exit is quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
