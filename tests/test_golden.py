"""Golden checksums of the CLI outputs on a paper-density fixture.

The fixture is the 160x120 km, 18 DC + 163 AC network at the paper's
DC:AC mix. The hashes were recorded with the label-setting router that
carried a visited set per label, so any later change to the search, the
radius queries or the ledger that alters a single byte of a route, a
booking or a stranding count fails here. The faults run uses a short range
and fault rates up to 0.95, so its replays include searches that prove a
vehicle stranded.
"""

import hashlib

import pytest

from chargesim.cli import main

GOLDEN = {
    "routes.jsonl": "b303e71baef172c8e3daefee6ca1b23df8f50de6b12cbfece7ea2d208f0056a9",
    "ledger.csv": "c8c30ee791cdd4aade1280843559ede48bd6e69c4465822a046b5613d13ff908",
    "faults.csv": "b46e78d670f34ccf14a5bd3decc52e02e4c3c8634d47bd5b1695e46357f91b4b",
    "population.csv": "632688eca43ccbf34bc0b26085b2498cc7ab6ccfe6fcc0e8688f7b001cb229f4",
    "network.csv": "76ea7cd319fe0438c074890713f85bc4c740d1e0d45a305c93710b36555bfc31",
}


@pytest.fixture(scope="module")
def golden_outputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("golden")
    fx = d / "fx"
    assert main(
        [
            "gen-fixtures", "--out", str(fx), "--seed", "1",
            "--width-km", "160", "--height-km", "120",
            "--n-dc", "18", "--n-ac", "163", "--blobs", "2", "--population", "2e5",
        ]
    ) == 0
    cfg = str(fx / "scenario.cfg")
    assert main(
        [
            "simulate", "-c", cfg, "--out", str(d / "sim"), "--seed", "1",
            "--n-ev", "1500", "--replicates", "2", "--threads", "1",
            "--dump-routes", "--dump-ledger",
        ]
    ) == 0
    assert main(
        [
            "faults", "-c", cfg, "--out", str(d / "faults"), "--seed", "1",
            "--n-ev", "400", "--masks", "6", "--pf-grid", "0.5,0.8,0.95",
            "--fault-seed", "0", "--set", "max_range_km=70", "--threads", "1",
        ]
    ) == 0
    return {
        "routes.jsonl": d / "sim" / "routes.jsonl",
        "ledger.csv": d / "sim" / "ledger.csv",
        "faults.csv": d / "faults" / "faults.csv",
        "population.csv": fx / "population.csv",
        "network.csv": fx / "network.csv",
    }


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_checksum(golden_outputs, name):
    digest = hashlib.sha256(golden_outputs[name].read_bytes()).hexdigest()
    assert digest == GOLDEN[name]
