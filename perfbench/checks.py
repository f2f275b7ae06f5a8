"""Output checks: a digest of each command's outputs, its invariants, and
its agreement with the recorded reference.

A digest holds exact counts and floats read back from the files the CLI
wrote. Counts must match the reference exactly and floats within
FLOAT_REL_TOL relative. Any miss makes the command a failed operation.
"""

from __future__ import annotations

import csv
import json
import math
import os

FLOAT_REL_TOL = 1e-9

# two-sided 95% normal quantile, for recomputing Wilson bounds independently
_Z = 1.959963984540054


def _wilson_upper(k: int, n: int) -> float:
    if n == 0:
        return 1.0
    if k == n:
        return 1.0
    p = k / n
    z2 = _Z * _Z
    denom = 1.0 + z2 / n
    center = (p + z2 / (2 * n)) / denom
    half = _Z * math.sqrt(p * (1.0 - p) / n + z2 / (4 * n * n)) / denom
    return min(1.0, center + half)


def _close(a: float, b: float, rel: float = FLOAT_REL_TOL) -> bool:
    return a == b or abs(a - b) <= rel * max(abs(a), abs(b))


# routes by the number of charging stops, plus trips with no route
CLASSES = ("stops0", "stops1", "stops2plus", "unroutable")


def stop_class(n_stops: int) -> str:
    return "stops0" if n_stops == 0 else "stops1" if n_stops == 1 else "stops2plus"


def _digest_simulate(out: str) -> dict:
    with open(os.path.join(out, "summary.json")) as fh:
        res = json.load(fh)["results"]
    if len(res) != 1:
        raise ValueError(f"expected one result row, got {len(res)}")
    r = res[0]
    counts = {
        "trips": r["trips"],
        "needed_charge": r["needed_charge"],
        "unroutable": r["unroutable"],
    }
    for t, b in r["below_kph"].items():
        counts[f"below_{t}"] = b["count"]
    floats = {"mean_speed_kph": r["mean_speed_kph"]}

    classes = dict.fromkeys(CLASSES, 0)
    charge_intervals = 0
    arrival_sum = wait_sum = 0.0
    with open(os.path.join(out, "routes.jsonl")) as fh:
        for line in fh:
            rec = json.loads(line)
            if rec["status"] != "ok":
                classes["unroutable"] += 1
                continue
            stops = rec["stops"]
            classes[stop_class(len(stops))] += 1
            arrival_sum += rec["arrival_h"]
            for s in stops:
                wait_sum += s["wait_h"]
                if s["charge_end_h"] > s["charge_start_h"]:
                    charge_intervals += 1
    counts.update({f"routes.{k}": v for k, v in classes.items()})
    counts["routes.charge_intervals"] = charge_intervals
    floats["routes.arrival_h_sum"] = arrival_sum
    floats["routes.wait_h_sum"] = wait_sum

    booked_h = 0.0
    bookings = 0
    with open(os.path.join(out, "ledger.csv"), newline="") as fh:
        rows = csv.reader(fh)
        next(rows)
        for row in rows:
            # rows end with start_h,end_h; they omit the replicate column
            # that the header names
            bookings += 1
            booked_h += float(row[-1]) - float(row[-2])
    counts["ledger.bookings"] = bookings
    floats["ledger.booked_h"] = booked_h
    return {"counts": counts, "floats": floats}


def _digest_faults(out: str) -> dict:
    counts, floats = {}, {}
    with open(os.path.join(out, "faults.csv"), newline="") as fh:
        for row in csv.DictReader(fh):
            p = row["p_f"]
            for k in ("trips", "needed_charge", "stranded", "unroutable"):
                counts[f"{k}@{p}"] = int(row[k])
            for k in ("p_s", "ci_low", "ci_high"):
                floats[f"{k}@{p}"] = float(row[k])
    return {"counts": counts, "floats": floats}


def _digest_capacity(out: str) -> dict:
    with open(os.path.join(out, "capacity.json")) as fh:
        rep = json.load(fh)
    counts = {
        "found": int(rep["found"]),
        "capacity_n_ev": rep["capacity_n_ev"],
        "probes": len(rep["probes"]),
    }
    floats = {}
    for p in rep["probes"]:
        counts[f"failures@{p['n_ev']}"] = p["failures"]
        counts[f"trials@{p['n_ev']}"] = p["trials"]
        floats[f"upper_ci@{p['n_ev']}"] = p["upper_ci"]
    return {"counts": counts, "floats": floats}


DIGESTS = {"simulate": _digest_simulate, "faults": _digest_faults, "capacity": _digest_capacity}


def digest(command: str, out: str) -> dict:
    return DIGESTS[command](out)


def invariant_errors(command: str, d: dict, n_ev: int, options: dict) -> list[str]:
    """Properties every correct output has, whatever the reference says."""
    c, f = d["counts"], d["floats"]
    errs = []
    replicates = options["replicates"]
    if command == "simulate":
        trips = c["trips"]
        if trips != n_ev * replicates:
            errs.append(f"trips {trips} != n_ev {n_ev} x replicates {replicates}")
        completed = c["routes.stops0"] + c["routes.stops1"] + c["routes.stops2plus"]
        if completed + c["unroutable"] != trips:
            errs.append(f"completed {completed} + unroutable {c['unroutable']} != trips {trips}")
        if c["routes.unroutable"] != c["unroutable"]:
            errs.append("routes.jsonl and summary.json disagree on unroutable trips")
        if c["routes.stops1"] + c["routes.stops2plus"] + c["unroutable"] != c["needed_charge"]:
            errs.append("trips with stops plus unroutable trips != trips needing a charge")
        if c["ledger.bookings"] != c["routes.charge_intervals"]:
            errs.append("ledger bookings != charging intervals in routes.jsonl")
        below = [c[k] for k in sorted((k for k in c if k.startswith("below_")),
                                      key=lambda k: float(k[6:]), reverse=True)]
        if any(a < b for a, b in zip(below, below[1:])):
            errs.append(f"below-threshold counts not monotone in the threshold: {below}")
    elif command == "faults":
        # p_f keys as the CSV wrote them, in increasing p_f order
        pfs = sorted((k.partition("@")[2] for k in c if k.startswith("stranded@")), key=float)
        stranded = [c[f"stranded@{p}"] for p in pfs]
        if any(a > b for a, b in zip(stranded, stranded[1:])):
            errs.append(f"stranded not non-decreasing in p_f: {stranded}")
        for p in pfs:
            trips, k = c[f"trips@{p}"], c[f"stranded@{p}"]
            if not _close(f[f"p_s@{p}"], k / trips if trips else 0.0):
                errs.append(f"p_s at p_f {p} != stranded / trips")
            if trips != n_ev * replicates * options["fault_masks"]:
                errs.append(f"trips at p_f {p} != n_ev x replicates x masks")
    elif command == "capacity":
        target = options["capacity_target_p"]
        probes = {int(k.split("@")[1]): (c[k], c[f"trials@{k.split('@')[1]}"])
                  for k in c if k.startswith("failures@")}
        for n, (k, trials) in probes.items():
            if trials != n * replicates:
                errs.append(f"probe {n}: trials {trials} != n x replicates")
            if not _close(f[f"upper_ci@{n}"], _wilson_upper(k, trials)):
                errs.append(f"probe {n}: upper_ci is not the Wilson upper bound")

        def passes(n: int) -> bool:
            return f[f"upper_ci@{n}"] <= target

        ans = c["capacity_n_ev"]
        if c["found"]:
            if ans not in probes or not passes(ans):
                errs.append(f"capacity {ans} has no passing probe")
            elif ans != n_ev and (ans + 1 not in probes or passes(ans + 1)):
                errs.append(f"capacity {ans} is below the ceiling but {ans + 1} was not shown to fail")
        elif ans != 0 or 1 not in probes or passes(1):
            errs.append("capacity not found, but the 1-vehicle probe does not fail")
    return errs


def reference_errors(d: dict, ref: dict | None) -> list[str]:
    if ref is None:
        return ["no reference recorded for this input"]
    errs = []
    if d["counts"] != ref["counts"]:
        keys = sorted(set(d["counts"]) | set(ref["counts"]))
        diff = [k for k in keys if d["counts"].get(k) != ref["counts"].get(k)]
        errs.append(f"counts differ from the reference at {diff[:6]}")
    if set(d["floats"]) != set(ref["floats"]):
        errs.append("float keys differ from the reference")
    else:
        bad = [k for k, v in d["floats"].items() if not _close(v, ref["floats"][k])]
        if bad:
            errs.append(f"floats differ from the reference at {bad[:6]}")
    return errs
