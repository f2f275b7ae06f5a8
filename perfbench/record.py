"""Record the reference outputs that every benchmark run is checked against.

    python3 perfbench/record.py [--workload NAME ...]

Run from the root of a checkout whose outputs are known to be right. For
each workload and input variant it fixes the fleet size (for workloads
sized by charging trips) and stores the digest of one run of the command
in perfbench/references.json, merging with what is already there.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile

import run
from workloads import WORKLOADS, variants


def charging_fleet_size(prog, w, variant: int, pop_csv: str) -> int:
    """Smallest fleet whose trips hold exactly w.charging_trips trips longer
    than a full charge reaches. Trip i is the same for every fleet size, so
    the answer is one past the ev_id of the last such trip."""
    from chargesim.ev import EvParams
    from chargesim.geo import distance_km
    from chargesim.population import load_population_csv

    ev = EvParams()
    reach_km = (1.0 - ev.reserve_soc) * ev.max_range_km * ev.route_scale
    grid = load_population_csv(pop_csv)
    dist = prog.triplength.default_trip_distribution()
    n = 80 * w.charging_trips
    while True:
        trips = prog.experiment.sample_trip_batch(grid, dist, variant, 0, n)
        long_ids = sorted(t.ev_id for t in trips if distance_km(t.origin, t.destination) > reach_km)
        if len(long_ids) >= w.charging_trips:
            return long_ids[w.charging_trips - 1] + 1
        n *= 2


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = ap.parse_args()
    prog = run.import_program()
    refs = run.load_references()
    for name in args.workload or sorted(WORKLOADS):
        w = WORKLOADS[name]
        table = refs["workloads"].setdefault(name, {})
        for v in variants(w):
            work = tempfile.mkdtemp(prefix=".perfbench-work-", dir=run.ROOT)
            try:
                b = run.Bench(prog, w, v, work, refs)
                entry: dict = {}
                if w.charging_trips is not None:
                    entry["n_ev"] = charging_fleet_size(prog, w, v, b.pop_csv)
                table[str(v)] = entry
                inp = b.input()
                inp.ref = None
                rep = b.run(inp)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            errors = [e for e in rep["errors"] if not e.startswith("no reference")]
            if errors:
                print(f"{name} variant {v}: {errors}", file=sys.stderr)
                return 1
            entry["digest"] = rep["digest"]
            print(f"{name} variant {v}: n_ev {inp.n_ev}, run_s {rep['run_s']:.2f}", flush=True)
            with open(run.REFERENCES, "w") as fh:
                json.dump(refs, fh, indent=1, sort_keys=True)
                fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
