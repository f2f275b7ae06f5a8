"""Workload definitions: fixture geometry, scenario options and input variants.

A workload is a fixed synthetic fixture (population grid plus charge
network, built by ``chargesim gen-fixtures`` from a constant fixture seed)
and one CLI command with pinned options. Variant v of a workload runs the
command with scenario seed v and fault seed v; every variant has exact
reference outputs in ``references.json``, so every run is checked. The
benchmark seed s gives the input sequence s, s+1, s+2, ... (mod VARIANTS),
one variant per timed command.

A workload that is not ``seeded`` always runs variant 0, whatever the
benchmark seed. faults-sparse is one: its sweep time is set by a few dozen
re-plans out of ten thousand that each take up to seconds, so a different
mask stream per run would measure mainly which stream was drawn.

Workloads whose cost follows the number of trips that need a charge hold
that number fixed: the fleet size of each variant is the smallest one whose
trips include exactly ``charging_trips`` trips longer than a full charge
reaches. Seeds then differ in which trips need routing, not in how many.
The per-variant fleet sizes are recorded with the references.
"""

from __future__ import annotations

import contextlib
import io
import os
from dataclasses import dataclass, field

VARIANTS = 8

# every fixture is generated from this gen-fixtures seed, with this many
# population blobs and people
FIXTURE_SEED = 1
FIXTURE_BLOBS = 2
FIXTURE_POPULATION = 2e5


@dataclass(frozen=True)
class Fixture:
    width_km: int
    height_km: int
    n_dc: int
    n_ac: int


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # simulate | faults | capacity
    fixture: Fixture
    threads: int
    options: dict = field(default_factory=dict)
    # fixed fleet size, or None when the fleet is sized per variant
    n_ev: int | None = None
    # trips needing a charge per input when the fleet is sized per variant
    charging_trips: int | None = None
    seeded: bool = True

    @property
    def throughput_name(self) -> str:
        return "replays_per_s" if self.command == "faults" else "trips_per_s"


DENSE = Fixture(160, 120, n_dc=18, n_ac=163)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sim-aware-dense",
            "simulate",
            DENSE,
            threads=1,
            options={"mode": "aware", "replicates": 1},
            charging_trips=24,
        ),
        Workload(
            "sim-blind-widegrid",
            "simulate",
            Fixture(300, 250, n_dc=10, n_ac=40),
            threads=1,
            options={"mode": "blind", "replicates": 1},
            n_ev=1200,
        ),
        Workload(
            "faults-sparse",
            "faults",
            Fixture(200, 160, n_dc=6, n_ac=24),
            threads=1,
            options={
                "mode": "aware",
                "replicates": 1,
                "fault_masks": 800,
                "pf_grid": "0.01,0.02,0.05,0.1,0.2",
            },
            n_ev=1000,
            seeded=False,
        ),
        Workload(
            "capacity-pooled",
            "capacity",
            DENSE,
            threads=2,
            options={
                "mode": "aware",
                "replicates": 12,
                "capacity_threshold_kph": 60.0,
                "capacity_target_p": 0.25,
            },
            n_ev=32,
        ),
    )
}


def variant_of(w: Workload, seed: int, j: int = 0) -> int:
    """The variant of the j-th command run for a benchmark seed."""
    return (seed + j) % VARIANTS if w.seeded else 0


def variants(w: Workload) -> range:
    return range(VARIANTS if w.seeded else 1)


def fleet_size(w: Workload, variant: int, refs: dict) -> int:
    if w.n_ev is not None:
        return w.n_ev
    try:
        return int(refs["workloads"][w.name][str(variant)]["n_ev"])
    except KeyError:
        raise SystemExit(f"no recorded fleet size for {w.name} variant {variant}") from None


def write_fixture(cli, fixture: Fixture, out_dir: str) -> tuple[str, str]:
    """Generate the fixture with the CLI's own gen-fixtures; returns the
    population and network CSV paths."""
    argv = [
        "gen-fixtures", "--out", out_dir, "--seed", str(FIXTURE_SEED),
        "--width-km", str(fixture.width_km), "--height-km", str(fixture.height_km),
        "--n-dc", str(fixture.n_dc), "--n-ac", str(fixture.n_ac),
        "--blobs", str(FIXTURE_BLOBS), "--population", repr(FIXTURE_POPULATION),
    ]
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"gen-fixtures exited with {rc}")
    return os.path.join(out_dir, "population.csv"), os.path.join(out_dir, "network.csv")


def write_config(path: str, w: Workload, variant: int, n_ev: int, pop_csv: str, net_csv: str) -> None:
    lines = [
        f"population_csv = {pop_csv}",
        f"network_csv = {net_csv}",
        f"n_ev = {n_ev}",
        f"seed = {variant}",
        f"fault_seed = {variant}",
    ]
    lines += [f"{k} = {v}" for k, v in w.options.items()]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def command_argv(w: Workload, cfg_path: str, out_dir: str, threads: int | None = None) -> list[str]:
    argv = [w.command, "-c", cfg_path, "--out", out_dir, "--threads", str(threads or w.threads)]
    if w.command == "simulate":
        argv += ["--dump-routes", "--dump-ledger"]
    return argv
