"""The module attributes the benchmark in perfbench/ patches.

perfbench times and traces commands by replacing these names on the
modules, so renaming one, or calling around it, silently breaks a traced
run. faults-sparse divides its replays by the time spent inside
cli.run_fault_sweep, which cmd_faults must therefore call once per
replicate, and the tracer wraps every ledger through the
ReservationLedger names. Its setup time loads a workload's inputs with
experiment.load_scenario_inputs(cfg) alone, and it sizes pooled tasks from
the grid, net and dist keywords of each run_scenario call. Its ring-scan
count patches distances_from on the loaded grid instance, which every
destination draw must therefore call through the instance.
"""

import json

import pytest

from chargesim import cli, config, experiment, faults

HOOKS = [
    (cli, "load_scenario_inputs"),
    (cli, "run_fault_sweep"),
    (cli, "ReservationLedger"),
    (experiment, "run_scenario"),
    (experiment, "run_replicate"),
    (experiment, "sample_trip_batch"),
    (experiment, "plan_route"),
    (experiment, "commit_route"),
    (experiment, "ReservationLedger"),
    (faults, "plan_route"),
]


@pytest.mark.parametrize("module, name", HOOKS, ids=[f"{m.__name__}.{n}" for m, n in HOOKS])
def test_hook_exists(module, name):
    assert callable(getattr(module, name))


@pytest.fixture(scope="module")
def fx(tmp_path_factory):
    d = tmp_path_factory.mktemp("fx")
    assert cli.main(
        ["gen-fixtures", "--out", str(d), "--seed", "2", "--width-km", "30",
         "--height-km", "20", "--population", "5000", "--n-dc", "3", "--n-ac", "3",
         "--blobs", "1"]
    ) == 0
    return d


def test_faults_calls_patched_sweep_and_ledger_per_replicate(fx, tmp_path, monkeypatch):
    calls = {"sweep": 0, "ledger": 0}
    real_sweep, real_ledger = cli.run_fault_sweep, experiment.ReservationLedger

    def sweep(*args, **kwargs):
        calls["sweep"] += 1
        return real_sweep(*args, **kwargs)

    def ledger():
        calls["ledger"] += 1
        return real_ledger()

    monkeypatch.setattr(cli, "run_fault_sweep", sweep)
    monkeypatch.setattr(experiment, "ReservationLedger", ledger)
    assert cli.main(
        ["faults", "-c", str(fx / "scenario.cfg"), "--out", str(tmp_path / "out"),
         "--n-ev", "10", "--replicates", "2", "--threads", "1", "--masks", "2",
         "--pf-grid", "0.5"]
    ) == 0
    assert calls == {"sweep": 2, "ledger": 2}


def test_scenario_inputs_load_from_the_config_alone(fx):
    opts = config.resolve_options(config.parse_config_file(str(fx / "scenario.cfg")), {})
    grid, net, dist = experiment.load_scenario_inputs(config.scenario_from_options(opts))
    assert len(grid) > 0 and len(net) == 6 and dist.mean_km() > 0


def test_capacity_passes_inputs_to_run_scenario_once_per_probe(fx, tmp_path, monkeypatch):
    calls = []
    real = experiment.run_scenario

    def run_scenario(cfg, **kwargs):
        calls.append((cfg.n_ev, sorted(kwargs)))
        return real(cfg, **kwargs)

    monkeypatch.setattr(experiment, "run_scenario", run_scenario)
    out = tmp_path / "out"
    assert cli.main(
        ["capacity", "-c", str(fx / "scenario.cfg"), "--out", str(out), "--n-ev", "6",
         "--threads", "1", "--target", "1.0"]
    ) == 0
    probes = json.loads((out / "capacity.json").read_text())["probes"]
    assert len(probes) == 4  # a target of 1.0 passes 1, 2 and 4, then the ceiling
    assert sorted(calls) == [(p["n_ev"], ["dist", "grid", "net"]) for p in probes]


def test_destination_sampling_calls_the_grid_instances_distances_from(fx):
    opts = config.resolve_options(config.parse_config_file(str(fx / "scenario.cfg")), {})
    grid, _, dist = experiment.load_scenario_inputs(config.scenario_from_options(opts))
    calls = []
    real = grid.distances_from

    def distances_from(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    grid.distances_from = distances_from
    trips = experiment.sample_trip_batch(grid, dist, 3, 0, 40)
    assert len(trips) == 40 and len(calls) >= len(trips)


def test_fault_replans_are_the_strandings(fx, tmp_path, monkeypatch):
    # a traced faults run counts its strandings as the faults.plan_route
    # calls that return Unroutable, and checks them against faults.csv
    results = []
    real = faults.plan_route

    def plan_route(*args, **kwargs):
        results.append(real(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(faults, "plan_route", plan_route)
    out = tmp_path / "out"
    assert cli.main(
        ["faults", "-c", str(fx / "scenario.cfg"), "--out", str(out), "--n-ev", "40",
         "--threads", "1", "--masks", "10", "--pf-grid", "0.5,0.9",
         "--set", "max_range_km=16"]
    ) == 0
    rows = (out / "faults.csv").read_text().splitlines()
    header = rows[0].split(",")
    stranded = sum(int(r.split(",")[header.index("stranded")]) for r in rows[1:])
    unroutable = sum(1 for r in results if isinstance(r, faults.Unroutable))
    assert stranded > 0
    assert unroutable == stranded
    # the router is consulted only for a trip that cannot finish
    assert len(results) == unroutable
