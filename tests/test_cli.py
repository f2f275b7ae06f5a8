import csv
import json
import multiprocessing
import os
import types
from collections import Counter

import pytest

from chargesim import cli, experiment, triplength
from chargesim.cli import SCENARIO_FLAGS, _collect_overrides, build_parser, main
from chargesim.config import SEED_ENV_VAR, parse_pf_grid, parse_value
from chargesim.errors import ConfigError
from helpers import run_chargesim, run_python

EXPECTED_METRICS_HEADER = (
    "n_ev,trips,frac_charge,frac_below_60,frac_below_40,frac_below_10,"
    "frac_unroutable,mean_speed"
)


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fixtures")
    rc = main(
        [
            "gen-fixtures",
            "--out", str(d),
            "--seed", "3",
            "--width-km", "40",
            "--height-km", "30",
            "--population", "20000",
            "--n-dc", "8",
            "--n-ac", "8",
            "--blobs", "1",
            "--n-ev", "50",
        ]
    )
    assert rc == 0
    return d


def test_gen_fixtures_outputs(fixture_dir):
    assert (fixture_dir / "population.csv").exists()
    assert (fixture_dir / "network.csv").exists()
    cfg_text = (fixture_dir / "scenario.cfg").read_text()
    assert "population_csv = " in cfg_text
    assert "n_ev = 50" in cfg_text
    manifest = json.loads((fixture_dir / "manifest.json").read_text())
    assert manifest["subcommand"] == "gen-fixtures"
    assert manifest["tool"] == "chargesim"


def test_gen_fixtures_validation(tmp_path):
    for flag, value in [
        ("--width-km", "2"),
        ("--population", "0"),
        ("--width-km", "nan"),
        ("--height-km", "inf"),
        ("--population", "inf"),
        ("--population", "nan"),
        ("--n-dc", "-3"),
        ("--n-ac", "-1"),
        ("--blobs", "-1"),
        ("--n-ev", "0"),
        ("--seed", "-1"),
    ]:
        out = tmp_path / "out"
        assert main(["gen-fixtures", "--out", str(out), flag, value]) == 2, (flag, value)
        assert not out.exists(), (flag, value)  # rejected before anything is written


def test_simulate_round_trip(fixture_dir, tmp_path):
    out = tmp_path / "run"
    rc = main(
        [
            "simulate",
            "-c", str(fixture_dir / "scenario.cfg"),
            "--out", str(out),
            "--n-ev", "30",
        ]
    )
    assert rc == 0
    lines = (out / "metrics.csv").read_text().splitlines()
    assert lines[0] == EXPECTED_METRICS_HEADER
    assert len(lines) == 2
    row = lines[1].split(",")
    assert row[0] == "30" and row[1] == "30"

    summary = json.loads((out / "summary.json").read_text())
    assert summary["seed"] == 3
    assert summary["mode"] == "aware"
    assert len(summary["results"]) == 1
    r = summary["results"][0]
    assert r["n_ev"] == 30 and r["trips"] == 30
    assert set(r["below_kph"]) == {"60", "40", "10"}

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["subcommand"] == "simulate"
    assert manifest["seed"] == 3
    assert sorted(manifest["outputs"]) == ["metrics.csv", "summary.json"]
    assert manifest["options"]["n_ev"] == 30



def test_metrics_csv_without_thresholds_has_one_cell_per_column(fixture_dir, tmp_path):
    out = tmp_path / "run"
    rc = main(
        [
            "simulate",
            "-c", str(fixture_dir / "scenario.cfg"),
            "--out", str(out),
            "--set", "speed_thresholds_kph=",
            "--n-ev", "20",
        ]
    )
    assert rc == 0
    lines = (out / "metrics.csv").read_text().splitlines()
    assert lines[0] == "n_ev,trips,frac_charge,frac_unroutable,mean_speed"
    assert len(lines) == 2
    assert all(len(line.split(",")) == 5 for line in lines)


def test_simulate_fleet_grid(fixture_dir, tmp_path):
    out = tmp_path / "grid"
    rc = main(
        [
            "simulate",
            "-c", str(fixture_dir / "scenario.cfg"),
            "--out", str(out),
            "--n-ev-grid", "10,20",
        ]
    )
    assert rc == 0
    lines = (out / "metrics.csv").read_text().splitlines()
    assert len(lines) == 3
    assert [row.split(",")[0] for row in lines[1:]] == ["10", "20"]


def test_simulate_dumps(fixture_dir, tmp_path):
    out = tmp_path / "dump"
    rc = main(
        [
            "simulate",
            "-c", str(fixture_dir / "scenario.cfg"),
            "--out", str(out),
            "--n-ev", "15",
            "--replicates", "2",
            "--dump-routes",
            "--dump-ledger",
            # a short range makes trips in the 40x30 km box charge, so both
            # replicates book slots
            "--set", "max_range_km=20",
        ]
    )
    assert rc == 0
    route_lines = (out / "routes.jsonl").read_text().splitlines()
    assert len(route_lines) == 30  # n_ev * replicates
    rec = json.loads(route_lines[0])
    assert rec["status"] in ("ok", "unroutable")
    assert "ev_id" in rec and "replicate" in rec
    ledger_lines = (out / "ledger.csv").read_text().splitlines()
    assert ledger_lines[0] == "replicate,cp_id,ev_id,start_h,end_h"
    rows = [line.split(",") for line in ledger_lines[1:]]
    assert all(len(row) == 5 for row in rows)
    assert {row[0] for row in rows} == {"0", "1"}

    # a one-size grid sets the dumped fleet, as it sets the fleet without dumps
    one_size = ["simulate", "-c", str(fixture_dir / "scenario.cfg"), "--n-ev", "20",
                "--n-ev-grid", "7"]
    assert main([*one_size, "--out", str(tmp_path / "one"), "--dump-routes"]) == 0
    assert main([*one_size, "--out", str(tmp_path / "one-plain")]) == 0
    assert len((tmp_path / "one" / "routes.jsonl").read_text().splitlines()) == 7
    metrics = [(tmp_path / d / "metrics.csv").read_bytes() for d in ("one", "one-plain")]
    assert metrics[0] == metrics[1]

    # dumps are per-trip artifacts, so a fleet grid cannot produce them
    rc = main(
        [
            "simulate",
            "-c", str(fixture_dir / "scenario.cfg"),
            "--out", str(tmp_path / "dump2"),
            "--n-ev-grid", "5,10",
            "--dump-routes",
        ]
    )
    assert rc == 2


def test_simulate_config_errors(fixture_dir, tmp_path):
    # no input sources at all
    assert main(["simulate", "--out", str(tmp_path / "a"), "--n-ev", "5"]) == 2
    # unknown --set key
    rc = main(
        [
            "simulate",
            "-c", str(fixture_dir / "scenario.cfg"),
            "--out", str(tmp_path / "b"),
            "--set", "warp_drive=1",
        ]
    )
    assert rc == 2
    # malformed --set
    rc = main(
        [
            "simulate",
            "-c", str(fixture_dir / "scenario.cfg"),
            "--out", str(tmp_path / "c"),
            "--set", "n_ev",
        ]
    )
    assert rc == 2


def test_simulate_missing_data_file(tmp_path):
    rc = main(
        [
            "simulate",
            "--out", str(tmp_path / "x"),
            "--set", f"population_csv={tmp_path / 'ghost.csv'}",
            "--set", f"network_csv={tmp_path / 'ghost2.csv'}",
            "--n-ev", "5",
        ]
    )
    assert rc == 3


def test_non_finite_inputs_exit_codes(fixture_dir, tmp_path):
    # a non-finite config value is a config error
    rc = main(
        [
            "simulate",
            "-c", str(fixture_dir / "scenario.cfg"),
            "--out", str(tmp_path / "cfg"),
            "--set", "speed_kph=nan",
        ]
    )
    assert rc == 2
    # a non-finite value in an input file is a data error
    net_csv = tmp_path / "net.csv"
    net_csv.write_text("id,lat,lon,kind,power_kw\ncp1,53.1,-7.9,DC,inf\n")
    rc = main(
        [
            "simulate",
            "-c", str(fixture_dir / "scenario.cfg"),
            "--out", str(tmp_path / "data"),
            "--set", f"network_csv={net_csv}",
        ]
    )
    assert rc == 3


@pytest.mark.parametrize(
    "key, text",
    [
        ("population_csv", b"lat,lon,population\n0,12,\xff\xfe1\n"),
        ("network_csv", b"id,lat,lon,kind,power_kw\ncp1,0,12,DC,\xff\xfe50\n"),
    ],
)
def test_undecodable_input_csv_exits_3(fixture_dir, tmp_path, key, text, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(text)
    rc = main(
        [
            "simulate",
            "-c", str(fixture_dir / "scenario.cfg"),
            "--out", str(tmp_path / "out"),
            "--set", f"{key}={bad}",
        ]
    )
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {bad}: not UTF-8 text") and err.count("\n") == 1


def test_a_populated_cell_at_a_pole_exits_3(fixture_dir, tmp_path, capsys):
    # the loader takes latitude 90, but no point can be jittered in that
    # cell: the run stops with a data error naming the cell
    pop = tmp_path / "pole.csv"
    pop.write_text("lat,lon,population\n90,0,1\n")
    net = tmp_path / "net.csv"
    net.write_text("id,lat,lon,kind,power_kw\ncp1,89.9,0,DC,50\n")
    rc = main(
        [
            "simulate",
            "-c", str(fixture_dir / "scenario.cfg"),
            "--out", str(tmp_path / "out"),
            "--set", f"population_csv={pop}",
            "--set", f"network_csv={net}",
        ]
    )
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: cannot place a point in population cell 0 at")
    assert err.count("\n") == 1
    # the run directory is made at the first output, which never comes
    assert not (tmp_path / "out").exists()


# the C locale with Python's UTF-8 mode off: an open() that names no
# encoding writes ASCII there
ASCII_LOCALE = {"LC_ALL": "C", "PYTHONUTF8": "0"}


def test_outputs_are_utf8_under_an_ascii_locale(fixture_dir, tmp_path):
    net = tmp_path / "network.csv"
    net.write_bytes((fixture_dir / "network.csv").read_bytes().replace(b"cp", "pé".encode()))
    out = tmp_path / "out"
    r = run_chargesim(
        ["simulate", "-c", str(fixture_dir / "scenario.cfg"), "--out", str(out),
         "--n-ev", "15", "--set", "max_range_km=20", "--set", f"network_csv={net}",
         "--dump-ledger"],
        tmp_path, ASCII_LOCALE,
    )
    assert r.returncode == 0, r.stderr
    assert sorted(p.name for p in out.iterdir()) == [
        "ledger.csv", "manifest.json", "metrics.csv", "summary.json"
    ]
    ids = {line.split(",")[1] for line in (out / "ledger.csv").read_text("utf-8").splitlines()[1:]}
    assert ids and all(i.startswith("pé") for i in ids)

    copy = tmp_path / "copy.csv"
    r = run_python(
        ["-c", "import sys; from chargesim import load_network_csv; "
               "from chargesim.fixtures import write_network_csv; "
               "write_network_csv(load_network_csv(sys.argv[1]), sys.argv[2])",
         str(net), str(copy)],
        tmp_path, ASCII_LOCALE,
    )
    assert r.returncode == 0, r.stderr
    assert copy.read_bytes() == net.read_bytes()


@pytest.mark.parametrize("args", [
    ["gen-fixtures", "--width-km", "20", "--height-km", "20", "--population", "1000"],
    ["simulate", "--n-ev", "10", "--dump-routes", "--dump-ledger"],
    ["faults", "--n-ev", "10", "--masks", "1", "--pf-grid", "0.5"],
    ["capacity", "--n-ev", "12", "--target", "0.9"],
], ids=["gen-fixtures", "simulate-dumps", "faults", "capacity"])
def test_the_manifest_lists_exactly_the_files_written(fixture_dir, tmp_path, args):
    out = tmp_path / "out"
    if args[0] != "gen-fixtures":
        args = [*args, "-c", str(fixture_dir / "scenario.cfg")]
    assert main([*args, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    files = sorted(p.name for p in out.iterdir())
    assert manifest["outputs"] == [f for f in files if f != "manifest.json"]
    assert not list(out.glob("*.tmp"))


def test_ledger_quotes_point_ids_that_hold_commas(fixture_dir, tmp_path):
    # a quoted id may hold a comma in network.csv; ledger.csv must quote it
    # back, or its rows gain a field under the five-field header
    with open(fixture_dir / "network.csv", newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    net = tmp_path / "network.csv"
    with open(net, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([header] + [["c," + row[0], *row[1:]] for row in rows])
    args = ["simulate", "-c", str(fixture_dir / "scenario.cfg"), "--n-ev", "15",
            "--set", "max_range_km=20", "--dump-ledger"]
    assert main([*args, "--out", str(tmp_path / "plain")]) == 0
    assert main([*args, "--out", str(tmp_path / "comma"), "--set", f"network_csv={net}"]) == 0
    ledgers = {}
    for d in ("plain", "comma"):
        with open(tmp_path / d / "ledger.csv", newline="", encoding="utf-8") as fh:
            ledgers[d] = list(csv.reader(fh))
    assert len(ledgers["comma"]) > 1
    assert all(len(row) == 5 for row in ledgers["comma"])
    assert ledgers["comma"] == [ledgers["plain"][0]] + [
        [r, "c," + cp_id, *rest] for r, cp_id, *rest in ledgers["plain"][1:]
    ]
    assert b'"c,cp' in (tmp_path / "comma" / "ledger.csv").read_bytes()


def test_undecodable_config_exits_2(fixture_dir, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes((fixture_dir / "scenario.cfg").read_bytes() + b"# \xff\xfe\n")
    rc = main(["simulate", "-c", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {cfg}: not UTF-8 text") and err.count("\n") == 1


@pytest.mark.parametrize("content", [None, b"not a table"], ids=["missing", "corrupt"])
def test_unreadable_trip_table_exits_3(fixture_dir, tmp_path, monkeypatch, capsys, content):
    table = tmp_path / "table.npy"
    if content is not None:
        table.write_bytes(content)
    triplength.default_trip_distribution.cache_clear()
    monkeypatch.setattr(triplength, "TABLE_FILE", table)
    try:
        rc = main(
            ["simulate", "-c", str(fixture_dir / "scenario.cfg"), "--out", str(tmp_path / "out")]
        )
    finally:
        triplength.default_trip_distribution.cache_clear()
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: cannot read the trip-length table") and err.count("\n") == 1
    assert str(table) in err and "freeze_default_table" in err


@pytest.mark.parametrize(
    "args, message",
    [
        (["faults", "--set", "pf_grid=0.1,nan"], "not finite"),
        (["simulate", "--set", "speed_thresholds_kph=60,inf"], "not finite"),
        (["capacity", "--set", "capacity_threshold_kph=nan"], "not finite"),
        (["capacity", "--threshold", "inf"], "not finite"),
        # a repeated threshold would count each slow trip twice
        (["simulate", "--set", "speed_thresholds_kph=100,100"], "repeated speed threshold"),
    ],
    ids=[f"args{i}" for i in range(5)],
)
def test_non_finite_sweep_and_threshold_keys_exit_2(fixture_dir, tmp_path, args, message, capsys):
    # keys read outside EvParams reject non-finite values too
    rc = main(args + ["-c", str(fixture_dir / "scenario.cfg"), "--out", str(tmp_path)])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "metrics.csv").exists()


@pytest.mark.parametrize(
    "setting, message",
    [
        ("fault_masks=0", "fault_masks must be at least 1"),
        ("fault_masks=-3", "fault_masks must be at least 1"),
        ("pf_grid=1.5,-0.2", "pf_grid needs one or more probabilities in [0, 1]"),
        ("pf_grid=", "pf_grid needs one or more probabilities in [0, 1]"),
    ],
    ids=["masks-zero", "masks-negative", "pf-out-of-range", "pf-empty"],
)
def test_faults_rejects_bad_sweep_options(fixture_dir, tmp_path, setting, message, capsys):
    # the sweep's mask count and probabilities are checked once, on the
    # config path, for the file and --set alike
    rc = main(
        ["faults", "-c", str(fixture_dir / "scenario.cfg"), "--out", str(tmp_path),
         "--n-ev", "20", "--set", setting]
    )
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "faults.csv").exists()


@pytest.mark.parametrize("command", ["simulate", "faults", "capacity"])
def test_unknown_mode_is_a_config_error(fixture_dir, tmp_path, command, capsys):
    # the router checks the mode when the scenario is built, before any
    # output is written
    out = tmp_path / "out"
    rc = main(
        [command, "-c", str(fixture_dir / "scenario.cfg"), "--out", str(out),
         "--n-ev", "5", "--mode", "psychic"]
    )
    assert rc == 2
    assert "unknown mode" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "args, env, message",
    [
        (["simulate", "--seed", "-1"], None, "seed must be at least 0"),
        (["faults", "--fault-seed", "-1"], None, "fault_seed must be at least 0"),
        (["simulate"], "-1", "seed must be at least 0"),
        (["simulate", "--set", "n_ev_grid=0,5"], None, "n_ev must be at least 1"),
        (["simulate", "--threads", "-3"], None, "threads must be at least 0"),
        # the input named here is missing: a data error would exit 3
        (["simulate", "--n-ev-grid", "5,10", "--dump-routes",
          "--set", "population_csv=no-such-dir/population.csv"],
         None, "route/ledger dumps need a single fleet size"),
    ],
    ids=["seed", "fault-seed", "seed-env", "n-ev-grid", "threads", "dump-with-grid"],
)
def test_rejects_bad_values_before_reading_inputs(
    fixture_dir, tmp_path, monkeypatch, capsys, args, env, message
):
    # every value is range-checked once on the config path, whatever set
    # it; the config names only the inputs, so the seed may come from the
    # environment
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    if env is not None:
        monkeypatch.setenv(SEED_ENV_VAR, env)
    cfg = tmp_path / "inputs.cfg"
    cfg.write_text(
        f"population_csv = {fixture_dir / 'population.csv'}\n"
        f"network_csv = {fixture_dir / 'network.csv'}\n"
    )
    rc = main(args + ["-c", str(cfg), "--out", str(tmp_path / "out"), "--n-ev", "5"])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--target", "0", "capacity target probability out of (0, 1]"),
        ("--target", "-0.5", "capacity target probability out of (0, 1]"),
        ("--target", "1.5", "capacity target probability out of (0, 1]"),
        ("--threshold", "0", "capacity threshold must be positive"),
    ],
    ids=["target-zero", "target-negative", "target-above-one", "threshold-zero"],
)
def test_capacity_rejects_bad_target_and_threshold(
    fixture_dir, tmp_path, capsys, flag, value, message
):
    rc = main(
        ["capacity", "-c", str(fixture_dir / "scenario.cfg"), "--out", str(tmp_path),
         "--n-ev", "2", flag, value]
    )
    assert rc == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_faults_manifest_reruns_byte_identical(fixture_dir, tmp_path):
    # the manifest records the swept grid and the redundancy target, so a
    # config file written from its options reruns the same sweep
    first = tmp_path / "first"
    assert main(
        ["faults", "-c", str(fixture_dir / "scenario.cfg"), "--out", str(first),
         "--n-ev", "15", "--masks", "3", "--set", "max_range_km=20",
         "--pf-grid", "0.5,0.9", "--add-redundancy", "isolated:6"]
    ) == 0
    options = json.loads((first / "manifest.json").read_text())["options"]
    assert options["pf_grid"] == [0.5, 0.9]
    assert options["add_redundancy"] == "isolated:6.0"
    cfg = tmp_path / "rerun.cfg"
    cfg.write_text("".join(
        f"{k} = {','.join(map(str, v)) if isinstance(v, list) else v}\n"
        for k, v in options.items()
    ))
    second = tmp_path / "second"
    assert main(["faults", "-c", str(cfg), "--out", str(second)]) == 0
    assert (second / "faults.csv").read_bytes() == (first / "faults.csv").read_bytes()
    assert json.loads((second / "manifest.json").read_text())["options"] == options


def test_faults_subcommand(fixture_dir, tmp_path):
    out = tmp_path / "faults"
    rc = main(
        [
            "faults",
            "-c", str(fixture_dir / "scenario.cfg"),
            "--out", str(out),
            "--n-ev", "20",
            "--pf-grid", "0.0,0.5",
            "--masks", "2",
        ]
    )
    assert rc == 0
    lines = (out / "faults.csv").read_text().splitlines()
    assert lines[0] == "p_f,trips,needed_charge,stranded,unroutable,p_s,ci_low,ci_high"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert int(first[3]) == 0  # nothing strands when nothing fails


def test_pooled_replicates_match_serial(fixture_dir, tmp_path, capsys):
    # a short range makes trips charge, so routes, bookings and strandings
    # all depend on the replicate each worker ran; the workers sweep on the
    # network with the redundant twins added
    common = ["-c", str(fixture_dir / "scenario.cfg"), "--replicates", "3",
              "--set", "max_range_km=20"]
    outs = {}
    for threads in ("1", "2"):
        d = tmp_path / f"threads{threads}"
        assert main(
            ["simulate", *common, "--out", str(d / "sim"), "--n-ev", "15",
             "--threads", threads, "--dump-routes", "--dump-ledger"]
        ) == 0
        assert main(
            ["faults", *common, "--out", str(d / "faults"), "--n-ev", "15",
             "--threads", threads, "--pf-grid", "0.2,0.6", "--masks", "3",
             "--add-redundancy", "isolated:5"]
        ) == 0
        assert "added 10 redundant points; network now 26 points" in capsys.readouterr().out
        assert main(
            ["capacity", *common, "--out", str(d / "capacity"), "--n-ev", "12",
             "--threads", threads, "--threshold", "60", "--target", "0.7"]
        ) == 0
        assert main(
            ["simulate", *common, "--out", str(d / "grid"), "--n-ev-grid", "5,10",
             "--threads", threads]
        ) == 0
        outs[threads] = {
            name: (d / sub / name).read_bytes()
            for sub, name in (("sim", "routes.jsonl"), ("sim", "ledger.csv"),
                              ("faults", "faults.csv"), ("capacity", "capacity.csv"),
                              ("capacity", "capacity.json"), ("grid", "metrics.csv"))
        }
    assert outs["1"] == outs["2"]
    probes = json.loads(outs["1"]["capacity.json"])["probes"]
    assert [p["n_ev"] for p in probes] == [1, 2, 4, 8, 12]  # every probe shares one stream
    ledger_rows = outs["1"]["ledger.csv"].decode().splitlines()[1:]
    assert {row.split(",")[0] for row in ledger_rows} == {"0", "1", "2"}
    sweep = [row.split(",") for row in outs["1"]["faults.csv"].decode().splitlines()[1:]]
    assert [int(row[1]) for row in sweep] == [15 * 3 * 3] * 2  # n_ev * masks * replicates
    assert int(sweep[-1][3]) > 0


def counting_workers(monkeypatch, method=None):
    """Patch the multiprocessing context experiment's runner gets with one
    of the given start method that counts, per runner, the worker processes
    it starts."""
    built = []
    real = multiprocessing.get_context(method)

    class Counting:
        def __init__(self):
            built.append(0)

        def __getattr__(self, name):
            return getattr(real, name)

        def Process(self, *args, **kwargs):
            built[-1] += 1
            return real.Process(*args, **kwargs)

    monkeypatch.setattr(experiment, "multiprocessing", types.SimpleNamespace(get_context=Counting))
    return built


@pytest.mark.parametrize("args", [
    ["capacity", "--n-ev", "12", "--target", "0.9"],
    ["simulate", "--n-ev-grid", "5,10"],
    # no search or grid: run_replicates opens the command's one runner
    ["simulate", "--n-ev", "10", "--dump-routes"],
    ["faults", "--n-ev", "10", "--masks", "1"],
], ids=["capacity", "simulate-grid", "simulate-dump", "faults"])
def test_one_pool_per_command(fixture_dir, tmp_path, monkeypatch, args):
    # two processes, this one and one worker, serve every probe or size
    built = counting_workers(monkeypatch)
    assert main(
        [*args, "-c", str(fixture_dir / "scenario.cfg"), "--out", str(tmp_path / "out"),
         "--replicates", "2", "--threads", "2"]
    ) == 0
    assert built == [1]
    assert multiprocessing.active_children() == []


def test_pool_workers_need_only_their_initializer(fixture_dir, tmp_path, monkeypatch):
    # spawned workers inherit no module state, so the same outputs show that
    # each worker gets its inputs from its process arguments alone, and
    # unpickles the faults command's sweep task by reference
    common = ["-c", str(fixture_dir / "scenario.cfg"), "--replicates", "3",
              "--set", "max_range_km=20"]
    commands = {
        "capacity": ["capacity", *common, "--n-ev", "12", "--threshold", "60", "--target", "0.7"],
        "faults": ["faults", *common, "--n-ev", "15", "--pf-grid", "0.2,0.6", "--masks", "3",
                   "--add-redundancy", "isolated:5"],
    }
    for name, argv in commands.items():
        assert main([*argv, "--out", str(tmp_path / "serial" / name), "--threads", "1"]) == 0
    built = counting_workers(monkeypatch, "spawn")
    for name, argv in commands.items():
        assert main([*argv, "--out", str(tmp_path / "spawned" / name), "--threads", "2"]) == 0
    assert built == [1, 1]
    for name in ("capacity/capacity.csv", "capacity/capacity.json", "faults/faults.csv"):
        spawned, serial = (tmp_path / d / name for d in ("spawned", "serial"))
        assert spawned.read_bytes() == serial.read_bytes()


def test_faults_sweeps_each_replicate_before_planning_the_next(fixture_dir, tmp_path,
                                                               monkeypatch):
    # one replicate's plans and ledger are held at a time
    calls = []
    real_run, real_sweep = experiment._Replicates.run, cli.run_fault_sweep

    def run(self, cfg, replicate):
        calls.append("run")
        return real_run(self, cfg, replicate)

    def sweep(*args, **kwargs):
        calls.append("sweep")
        return real_sweep(*args, **kwargs)

    monkeypatch.setattr(experiment._Replicates, "run", run)
    monkeypatch.setattr(cli, "run_fault_sweep", sweep)
    assert main(
        ["faults", "-c", str(fixture_dir / "scenario.cfg"), "--out", str(tmp_path / "out"),
         "--n-ev", "10", "--replicates", "3", "--threads", "1", "--masks", "2",
         "--pf-grid", "0.5"]
    ) == 0
    assert calls == ["run", "sweep"] * 3


@pytest.mark.parametrize("threads", ["2", "3"])
def test_a_pooled_search_samples_each_trip_once(fixture_dir, tmp_path, monkeypatch, threads):
    # each process appends the (replicate, ev_id) pairs it samples to its
    # own file, which forked workers inherit through the patched sampler
    real = experiment.sample_trip_batch

    def recording(grid, dist, seed, replicate, n, **kwargs):
        trips = real(grid, dist, seed, replicate, n, **kwargs)
        with open(tmp_path / f"sampled-{os.getpid()}.txt", "a") as fh:
            fh.writelines(f"{replicate} {t.ev_id}\n" for t in trips)
        return trips

    monkeypatch.setattr(experiment, "sample_trip_batch", recording)
    out = tmp_path / "out"
    assert main(
        ["capacity", "-c", str(fixture_dir / "scenario.cfg"), "--out", str(out),
         "--n-ev", "12", "--replicates", "4", "--threads", threads,
         "--set", "max_range_km=20", "--threshold", "60", "--target", "0.7"]
    ) == 0
    probes = json.loads((out / "capacity.json").read_text())["probes"]
    largest = max(p["n_ev"] for p in probes)
    sampled = Counter(
        line for f in tmp_path.glob("sampled-*.txt") for line in f.read_text().splitlines()
    )
    assert len(list(tmp_path.glob("sampled-*.txt"))) == int(threads)
    assert sampled == Counter(f"{r} {i}" for r in range(4) for i in range(largest))


def test_a_populated_cell_at_a_pole_exits_3_with_workers(fixture_dir, tmp_path, capsys):
    # both processes sample the pole cell; every worker is stopped and
    # joined, and the run ends as the serial one does
    pop = tmp_path / "pole.csv"
    pop.write_text("lat,lon,population\n90,0,1\n")
    net = tmp_path / "net.csv"
    net.write_text("id,lat,lon,kind,power_kw\ncp1,89.9,0,DC,50\n")
    errs = []
    for threads in ("1", "2"):
        assert main(
            ["simulate", "-c", str(fixture_dir / "scenario.cfg"),
             "--out", str(tmp_path / f"out{threads}"), "--set", f"population_csv={pop}",
             "--set", f"network_csv={net}", "--threads", threads, "--replicates", "2"]
        ) == 3
        errs.append(capsys.readouterr().err)
        assert multiprocessing.active_children() == []
        assert not (tmp_path / f"out{threads}").exists()
    assert errs[0] == errs[1]
    assert errs[0].startswith("data error: cannot place a point in population cell 0 at")


@pytest.mark.parametrize("command", [
    ["simulate", "--n-ev", "10"],
    ["capacity", "--n-ev", "12", "--target", "0.9", "--replicates", "2", "--threads", "2"],
], ids=["simulate", "capacity"])
def test_a_closed_stdout_exits_141_without_a_traceback(fixture_dir, tmp_path, command):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        r = run_chargesim(
            [*command, "-c", str(fixture_dir / "scenario.cfg"), "--out", str(tmp_path / "out")],
            tmp_path, stdout=write_end,
        )
    finally:
        os.close(write_end)
    assert (r.returncode, r.stderr) == (141, "")
    assert (tmp_path / "out" / "manifest.json").exists()


def test_faults_redundancy_flag(fixture_dir, tmp_path, capsys):
    rc = main(
        [
            "faults",
            "-c", str(fixture_dir / "scenario.cfg"),
            "--out", str(tmp_path / "r"),
            "--n-ev", "10",
            "--pf-grid", "0.5",
            "--masks", "1",
            "--add-redundancy", "isolated:1.0",
        ]
    )
    assert rc == 0
    assert "added" in capsys.readouterr().out

    rc = main(
        [
            "faults",
            "-c", str(fixture_dir / "scenario.cfg"),
            "--out", str(tmp_path / "r2"),
            "--pf-grid", "0.5",
            "--add-redundancy", "isolated:nope",
        ]
    )
    assert rc == 2
    rc = main(
        [
            "faults",
            "-c", str(fixture_dir / "scenario.cfg"),
            "--out", str(tmp_path / "r3"),
            "--pf-grid", "0.5",
            "--add-redundancy", ",",
        ]
    )
    assert rc == 2
    rc = main(
        [
            "faults",
            "-c", str(fixture_dir / "scenario.cfg"),
            "--out", str(tmp_path / "r4"),
            "--n-ev", "5",
            "--pf-grid", "0.5",
            "--masks", "1",
            "--add-redundancy", "no-such-point",
        ]
    )
    assert rc == 3


def test_capacity_subcommand(fixture_dir, tmp_path):
    out = tmp_path / "cap"
    rc = main(
        [
            "capacity",
            "-c", str(fixture_dir / "scenario.cfg"),
            "--out", str(out),
            "--n-ev", "8",
            "--threshold", "40",
            "--target", "1.0",
        ]
    )
    assert rc == 0
    lines = (out / "capacity.csv").read_text().splitlines()
    assert lines[0] == "n_ev,failures,trials,upper_ci"
    report = json.loads((out / "capacity.json").read_text())
    assert report["found"] is True
    assert report["capacity_n_ev"] == 8  # everything passes a target of 1.0
    assert report["ceiling_n_ev"] == 8

    rc = main(
        [
            "capacity",
            "-c", str(fixture_dir / "scenario.cfg"),
            "--out", str(tmp_path / "cap2"),
            "--target", "0",
        ]
    )
    assert rc == 2


def test_module_entry_point_passes_exit_codes(tmp_path):
    r = run_chargesim(["validate"], tmp_path)
    assert r.returncode == 0, r.stderr
    assert "PASS" in r.stdout and "FAIL" not in r.stdout
    r = run_chargesim(
        ["simulate", "-c", str(tmp_path / "ghost.cfg"), "--out", str(tmp_path / "x")],
        tmp_path,
    )
    assert r.returncode == 2
    assert "config error" in r.stderr


# runs each command in one fresh process and prints, per command, its exit
# code and whether scipy was imported by then
_SCIPY_PROBE = """
import json, sys
from chargesim.cli import main

cfg = "fx/scenario.cfg"
commands = [
    ["gen-fixtures", "--out", "fx", "--seed", "3", "--width-km", "30", "--height-km", "20",
     "--population", "5000", "--n-dc", "4", "--n-ac", "4", "--blobs", "1", "--n-ev", "10"],
    ["simulate", "-c", cfg, "--out", "sim"],
    ["faults", "-c", cfg, "--out", "faults", "--masks", "3"],
    ["capacity", "-c", cfg, "--out", "cap", "--threshold", "40", "--target", "1.0",
     "--threads", "1"],
    ["validate"],
]
seen = []
for argv in commands:
    rc = main(argv)
    seen.append([argv[0], rc, any(m.split(".")[0] == "scipy" for m in sys.modules)])
print(json.dumps(seen))
"""


def test_run_commands_never_import_scipy(tmp_path):
    # the trip-length table ships as package data, so only validate's
    # quadrature loads scipy
    r = run_python(["-c", _SCIPY_PROBE], tmp_path)
    assert r.returncode == 0, r.stderr
    seen = json.loads(r.stdout.splitlines()[-1])
    assert seen == [
        ["gen-fixtures", 0, False],
        ["simulate", 0, False],
        ["faults", 0, False],
        ["capacity", 0, False],
        ["validate", 0, True],
    ]


def test_validate_subcommand(capsys):
    assert main(["validate"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
    assert "informational" in out
    assert main(["validate", "--ev-math"]) == 0
    out = capsys.readouterr().out
    assert "vehicle arithmetic" in out and "cost" not in out


def test_parse_pf_grid_forms():
    assert parse_pf_grid("0.01, 0.05") == (0.01, 0.05)
    lin = parse_pf_grid("0.1:0.5:5")
    assert len(lin) == 5
    assert lin[0] == pytest.approx(0.1) and lin[-1] == pytest.approx(0.5)
    log = parse_pf_grid("0.01:0.16:5:log")
    assert len(log) == 5
    ratios = [b / a for a, b in zip(log, log[1:])]
    assert all(r == pytest.approx(2.0, rel=1e-9) for r in ratios)
    assert len(parse_pf_grid("0.1:0.5:log")) == 8

    for bad in ("", "0.5:0.1:5", "abc", "2", "-0.1,0.5", "0:0.5:3:log", "0.1:0.5:1", "0.1:0.5:2:3:4"):
        with pytest.raises(ConfigError):
            parse_pf_grid(bad)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "chargesim" in capsys.readouterr().out


# a valid value, not the default, for each key a scenario flag sets
FLAG_VALUES = {
    "n_ev": "7", "seed": "5", "mode": "blind", "replicates": "3", "threads": "2",
    "n_ev_grid": "10,20", "onboard_ac_limit_kw": "7.4", "pf_grid": "0.1:0.5:3",
    "fault_masks": "9", "fault_seed": "4", "reserve_soc": "0.3",
    "add_redundancy": "isolated:18.7", "capacity_threshold_kph": "50",
    "capacity_target_p": "1e-3",
}


@pytest.mark.parametrize(
    "command, flag, key",
    [(command, flag, key) for command, flags in SCENARIO_FLAGS.items()
     for flag, key in flags.items()],
)
def test_every_scenario_flag_sets_its_key(command, flag, key):
    raw = FLAG_VALUES[key]
    ns = build_parser().parse_args([command, f"--{flag}", raw])
    assert _collect_overrides(ns) == {key: parse_value(key, raw, key)}
