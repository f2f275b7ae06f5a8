"""The module attributes the benchmark in perfbench/ patches.

perfbench times and traces commands by replacing these names on the
modules, so renaming one, or calling around it, silently breaks a traced
run. faults-sparse divides its replays by the time spent inside
cli.run_fault_sweep, which cmd_faults must therefore call once per
replicate, and the tracer wraps every ledger through the
ReservationLedger names.
"""

import pytest

from chargesim import cli, experiment, faults

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


def test_faults_calls_patched_sweep_and_ledger_per_replicate(tmp_path, monkeypatch):
    fx = tmp_path / "fx"
    assert cli.main(
        ["gen-fixtures", "--out", str(fx), "--seed", "2", "--width-km", "30",
         "--height-km", "20", "--population", "5000", "--n-dc", "3", "--n-ac", "3",
         "--blobs", "1"]
    ) == 0
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
