"""chargesim benchmark: one workload, end to end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The program is imported from ./src
(the equivalent of PYTHONPATH=src) and driven in-process through
``chargesim.cli.main(argv)``. Inputs are built under a temporary directory
in the checkout, which is removed at exit.

--trace 0 times the workload's command repeatedly for about --seconds and
reports end-to-end metrics as medians over those runs. --trace 1 runs the
command once untraced and once traced, reports per-layer metrics and the
tracing overhead, and writes the spans to .perfbench/. Every command's
outputs are checked (see checks.py); a command that raises or fails a check
counts as failed. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import pickle
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
import types
from collections import Counter

import numpy as np

import checks
import tracing
from workloads import WORKLOADS, fleet_size, variant_of, write_config, write_fixture, command_argv

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCES = os.path.join(HERE, "references.json")

SETUP_PER_RUN = 3
MIN_REPS = 3
# no command is started past this point, so a run ends well within 180 s
LAST_START_S = 120.0
BUILD_REPS = 3

TIME_UNITS = ("s", "ms", "us")


def import_program() -> types.SimpleNamespace:
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "chargesim", "__init__.py")):
        raise SystemExit(f"error: no chargesim sources under {src}")
    sys.path.insert(0, src)
    import chargesim
    from chargesim import cli, config, experiment, faults, network, router, triplength

    if os.path.dirname(os.path.dirname(os.path.abspath(chargesim.__file__))) != src:
        raise SystemExit(f"error: chargesim imported from {chargesim.__file__}, not {src}")
    return types.SimpleNamespace(
        cli=cli, config=config, experiment=experiment, faults=faults,
        network=network, router=router, triplength=triplength,
    )


def load_references() -> dict:
    try:
        with open(REFERENCES) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {"workloads": {}}


def cpu_s() -> float:
    """CPU time of this process plus its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> tuple[float, float]:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return own / 1024.0, kids / 1024.0  # ru_maxrss is in KiB on Linux


def loadavg_1min() -> float | None:
    try:
        with open("/proc/loadavg") as fh:
            return float(fh.read().split()[0])
    except (OSError, ValueError, IndexError):
        return None


def median(xs):
    return statistics.median(xs) if xs else float("nan")


class Input:
    """One input variant: its config file, fleet size and reference."""

    def __init__(self, b: "Bench", variant: int) -> None:
        w = b.w
        self.variant = variant
        self.n_ev = fleet_size(w, variant, b.refs)
        self.ref = b.refs["workloads"].get(w.name, {}).get(str(variant), {}).get("digest")
        self.cfg_path = os.path.join(b.work, f"scenario-{variant}.cfg")
        write_config(self.cfg_path, w, variant, self.n_ev, b.pop_csv, b.net_csv)
        self.nonempty_masks = nonempty_masks(w, variant, b.n_points) if w.command == "faults" else 0


def nonempty_masks(w, fault_seed: int, n_points: int) -> int:
    """(mask, p_f) pairs with at least one faulted point.

    Masks are drawn as faults.run_fault_sweep draws them: mask m holds one
    uniform per point from SeedSequence(fault_seed, (m,)), and a point is
    down at p_f when its uniform is below p_f."""
    pfs = sorted({float(x) for x in str(w.options["pf_grid"]).split(",")})
    count = 0
    for m in range(w.options["fault_masks"]):
        rng = np.random.default_rng(np.random.SeedSequence(fault_seed, spawn_key=(m,)))
        u_min = rng.random(n_points).min()
        count += sum(1 for p in pfs if u_min < p)
    return count


def _rows(path: str) -> int:
    with open(path) as fh:
        return sum(1 for line in fh if line.strip()) - 1


class Bench:
    """One workload's fixture and input variants, under a work directory."""

    def __init__(self, prog, workload, seed: int, work: str, refs: dict) -> None:
        self.prog = prog
        self.w = workload
        self.seed = seed
        self.work = work
        self.refs = refs
        self.pop_csv, self.net_csv = write_fixture(prog.cli, workload.fixture, os.path.join(work, "fixture"))
        self.cells = _rows(self.pop_csv)
        self.n_points = _rows(self.net_csv)
        self.inputs: dict[int, Input] = {}
        self.runs = 0

    def input(self, j: int = 0) -> Input:
        """The j-th input of this seed's sequence."""
        v = variant_of(self.w, self.seed, j)
        if v not in self.inputs:
            self.inputs[v] = Input(self, v)
        return self.inputs[v]

    # -- set-up -------------------------------------------------------------

    def setup_once(self) -> float:
        """Parse the config, load both CSVs and build the trip-length table,
        as the start of every command does."""
        p = self.prog
        p.triplength.default_trip_distribution.cache_clear()
        gc.collect()
        t0 = time.perf_counter()
        opts = p.config.resolve_options(p.config.parse_config_file(self.input().cfg_path), {})
        p.experiment.load_scenario_inputs(p.config.scenario_from_options(opts))
        return time.perf_counter() - t0

    def build_table_once(self) -> float:
        p = self.prog
        p.triplength.default_trip_distribution.cache_clear()
        t0 = time.perf_counter()
        p.triplength.default_trip_distribution()
        return time.perf_counter() - t0

    # -- one command ----------------------------------------------------------

    def run(self, inp: Input, threads: int | None = None, trace_targets=None) -> dict:
        """Run the workload's command once and check its outputs.

        run_s runs from the return of the CLI's load_scenario_inputs to the
        return of cli.main, so it covers planning and writing outputs but
        not loading. sweep_s covers run_fault_sweep. Both marks wrap one
        call each per command and are present in untraced runs too."""
        cli = self.prog.cli
        out = os.path.join(self.work, f"out-{self.runs}")
        self.runs += 1
        argv = command_argv(self.w, inp.cfg_path, out, threads)
        marks: dict = {"sweep_s": 0.0}
        real_load, real_sweep = cli.load_scenario_inputs, cli.run_fault_sweep

        def load(*args, **kwargs):
            res = real_load(*args, **kwargs)
            marks["t"], marks["cpu"] = time.perf_counter(), cpu_s()
            return res

        def sweep(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return real_sweep(*args, **kwargs)
            finally:
                marks["sweep_s"] += time.perf_counter() - t0

        rep = {"errors": [], "variant": inp.variant}
        gc.collect()
        t_start, cpu_start = time.perf_counter(), cpu_s()
        try:
            with tracing.patched((cli, "load_scenario_inputs", load), (cli, "run_fault_sweep", sweep)):
                with tracing.patched(*(trace_targets() if trace_targets else ())):
                    with contextlib.redirect_stdout(io.StringIO()):
                        rc = cli.main(argv)
            t_end, cpu_end = time.perf_counter(), cpu_s()
            if rc != 0:
                rep["errors"].append(f"chargesim exited with {rc}")
        except Exception:
            t_end, cpu_end = time.perf_counter(), cpu_s()
            rep["errors"].append("chargesim raised:\n" + traceback.format_exc())
        t0, c0 = marks.get("t", t_start), marks.get("cpu", cpu_start)
        rep.update(run_s=t_end - t0, cpu_s=cpu_end - c0, sweep_s=marks["sweep_s"])
        if not rep["errors"]:
            self._check(rep, out, inp)
        shutil.rmtree(out, ignore_errors=True)
        return rep

    def _check(self, rep: dict, out: str, inp: Input) -> None:
        w = self.w
        try:
            d = checks.digest(w.command, out)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            rep["errors"].append(f"unreadable outputs: {exc!r}")
            return
        rep["digest"] = d
        rep["errors"] += checks.invariant_errors(w.command, d, inp.n_ev, w.options)
        rep["errors"] += checks.reference_errors(d, inp.ref)
        c = d["counts"]
        if w.command == "faults":
            key = next(k for k in c if k.startswith("needed_charge@"))
            charging = c[key] // w.options["fault_masks"]
            rep["work"] = charging * inp.nonempty_masks
            rep["busy_s"] = rep["sweep_s"]
        else:
            rep["work"] = (
                c["trips"] if w.command == "simulate"
                else sum(v for k, v in c.items() if k.startswith("trials@"))
            )
            rep["busy_s"] = rep["run_s"]


# ---------------------------------------------------------------------------
# end-to-end runs


def end_to_end(b: Bench, seconds: float) -> tuple[list[dict], list[float]]:
    """Timed commands, each after SETUP_PER_RUN timed set-ups, for about
    `seconds`. Spreading the set-ups over the run lets their median see the
    same machine as the commands do; one block of them did not."""
    setups: list[float] = []
    reps: list[dict] = []
    t0 = time.perf_counter()
    while True:
        setups += [b.setup_once() for _ in range(SETUP_PER_RUN)]
        reps.append(b.run(b.input(len(reps))))
        elapsed = time.perf_counter() - t0
        per_run = elapsed / len(reps)
        if len(reps) >= MIN_REPS and elapsed + per_run > seconds:
            break
        if elapsed + per_run > LAST_START_S:
            break
    return reps, setups


def throughput(reps: list[dict]) -> float:
    """Work done over the time it took, summed over every checked run."""
    ok = [r for r in reps if "work" in r]
    busy = sum(r["busy_s"] for r in ok)
    return sum(r["work"] for r in ok) / busy if busy > 0 else float("nan")


def e2e_metrics(reps: list[dict], setups: list[float]) -> dict:
    """The end-to-end metrics BENCHMARK.json bounds. run_s and cpu_s are only
    printed: they track throughput_per_s, and as medians over a few runs they
    spread more than it does when the machine's speed drifts."""
    own, _ = peak_rss_mb()
    return {
        "setup_s": (median(setups), "s"),
        "throughput_per_s": (throughput(reps), "1/s"),
        "peak_rss_mb": (own, "MB"),
    }


def print_e2e(b: Bench, reps, setups) -> None:
    w = b.w
    runs = [r["run_s"] for r in reps]
    cpus = [r["cpu_s"] for r in reps]
    work = sum(r.get("work", 0) for r in reps)
    own, kids = peak_rss_mb()
    failed = sum(1 for r in reps if r["errors"])
    lines = [
        f"  setup_s        {median(setups):10.4f} s     median of {len(setups)}",
        f"  run_s          {median(runs):10.4f} s     median of {len(runs)}, range {min(runs):.3f}..{max(runs):.3f}",
        f"  cpu_s          {median(cpus):10.4f} s     median of {len(cpus)}, self + children",
    ]
    if w.command == "faults":
        sweeps = [r["sweep_s"] for r in reps]
        lines.append(f"  sweep_s        {median(sweeps):10.4f} s     median of {len(sweeps)}")
    lines.append(
        f"  {w.throughput_name:<14} {throughput(reps):10.2f} 1/s   {work} over all runs;"
        " reported as throughput_per_s"
    )
    lines += [
        f"  peak_rss_mb    {own:10.1f} MB    self; children {kids:.1f} MB",
        f"  fail_frac      {failed / len(reps):10.4f}       {failed} of {len(reps)} runs failed",
    ]
    print("\n".join(lines))


# ---------------------------------------------------------------------------
# traced run


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(values)
    k = max(0, min(len(s) - 1, -(-len(s) * p // 100) - 1))
    return s[int(k)]


def tail(values: list[float]) -> tuple[float, float] | None:
    """Highest of p50..p99.99 with at least 10 samples beyond it."""
    for p in (99.99, 99.9, 99.0, 90.0, 50.0):
        if len(values) * (1.0 - p / 100.0) >= 10:
            return p, percentile(values, p)
    return None


def traced(b: Bench) -> tuple[list[dict], dict]:
    """The checked runs made, and the per-layer metrics."""
    prog, w = b.prog, b.w
    inp = b.input()
    build_s = median([b.build_table_once() for _ in range(BUILD_REPS)])
    reps = []
    extra: dict = {"experiment.task_bytes": 0, "experiment.pool_overhead_s": None}

    if w.command == "capacity":
        # parent side of the pooled run: one span per probe, task bytes
        pooled = tracing.Tracer()
        shipped = []
        reps.append(b.run(inp, trace_targets=lambda: tracing.install(
            pooled, prog, instances=False, on_probe=lambda cfg, kw: shipped.append((cfg, kw)))))
        extra["experiment.task_bytes"] = task_bytes(prog, shipped)
        # the same probes with threads=1: serial replicate time, untraced layers
        serial = tracing.Tracer()
        reps.append(b.run(inp, threads=1, trace_targets=lambda: tracing.install(serial, prog, instances=False)))
        serial_s = serial.total_s("experiment.probe")
        extra["experiment.pool_overhead_s"] = reps[0]["run_s"] - serial_s / w.threads
        untraced = reps[1]
        probe_tracer = pooled
        tr = tracing.Tracer()
        reps.append(b.run(inp, threads=1, trace_targets=lambda: tracing.install(tr, prog)))
    else:
        reps.append(b.run(inp))
        untraced = reps[0]
        tr = tracing.Tracer()
        reps.append(b.run(inp, trace_targets=lambda: tracing.install(tr, prog)))
        probe_tracer = tr
    traced_rep = reps[-1]

    m = layer_metrics(b, tr, probe_tracer, extra, build_s)
    m["trace.untraced_run_s"] = (untraced["run_s"], "s")
    m["trace.traced_run_s"] = (traced_rep["run_s"], "s")
    m["trace.overhead_s"] = (traced_rep["run_s"] - untraced["run_s"], "s")
    traced_rep["errors"] += count_errors(b, tr, probe_tracer, reps)
    write_spans(b, tr, probe_tracer)
    return reps, m


def task_bytes(prog, shipped) -> int:
    """Bytes pickled per submit() of each pooled probe, computed by pickling
    the same arguments run_scenario passes to pool.submit."""
    total = 0
    for cfg, kw in shipped:
        if cfg.threads > 1 and cfg.replicates > 1:
            for r in range(cfg.replicates):
                args = (prog.experiment.run_replicate, cfg, r, kw["grid"], kw["net"], kw["dist"])
                total += len(pickle.dumps(args))
    return total


def layer_metrics(b: Bench, tr: tracing.Tracer, probes: tracing.Tracer, extra: dict, build_s: float) -> dict:
    """Per-layer metrics as name -> (value, unit)."""
    plans = tr.records.get("router.plan", [])
    by_class: dict[str, list[float]] = {c: [] for c in checks.CLASSES}
    for d, c in plans:
        by_class[c].append(d)
    charging = len(plans) - len(by_class["stops0"])
    sampled = sum(n for _, n in tr.records.get("population.sample", []))
    replans = tr.records.get("faults.replan", [])
    replan_s = [d for d, _ in replans]
    probe_recs = probes.records.get("experiment.probe", [])
    routed = sum(n["n_ev"] * n["replicates"] for _, n in probe_recs)
    radius = tr.calls("network.radius")
    m = {
        "population.sample_s": (tr.total_s("population.sample"), "s"),
        "population.sample_us_per_trip": (1e6 * tr.total_s("population.sample") / max(1, sampled), "us"),
        "population.ring_scans_per_trip": (tr.calls("population.ring_scan") / max(1, sampled), "count"),
        "population.cells": (b.cells, "count"),
        "triplength.build_s": (build_s, "s"),
        "network.radius_queries": (radius, "count"),
        "network.radius_s": (tr.total_s("network.radius"), "s"),
        "network.hits_per_query": (tr.radius_hits / max(1, radius), "count"),
        "geo.distance_calls": (tr.calls("geo.distance"), "count"),
        "geo.distance_s": (tr.total_s("geo.distance"), "s"),
        "reservations.slot_queries": (tr.calls("reservations.slot"), "count"),
        "reservations.slot_s": (tr.total_s("reservations.slot"), "s"),
        "reservations.commits": (tr.calls("reservations.commit"), "count"),
        "reservations.commit_s": (tr.total_s("reservations.commit"), "s"),
        "reservations.bookings": (sum(len(led) for led in tr.ledgers), "count"),
    }
    for c in checks.CLASSES:
        m[f"router.plans.{c}"] = (len(by_class[c]), "count")
    m.update({
        "router.plan_s": (tr.total_s("router.plan"), "s"),
        "router.commit_s": (tr.total_s("router.commit"), "s"),
        "router.self_s": (tr.self_s("router.plan"), "s"),
        "router.expansions_per_charging_trip": (
            tr.calls("network.radius", "router.plan") / max(1, charging), "count"),
    })
    for c in checks.CLASSES:
        if by_class[c]:
            m[f"router.plan_ms_p50.{c}"] = (1e3 * median(by_class[c]), "ms")
        t = tail(by_class[c])
        if t:
            m[f"router.plan_ms_tail.{c}"] = (1e3 * t[1], "ms", f"p{t[0]:g} of {len(by_class[c])}")
    m.update({
        "faults.sweep_s": (tr.total_s("faults.sweep"), "s"),
        "faults.replans": (len(replans), "count"),
        "faults.replan_s": (sum(replan_s), "s"),
        "faults.self_s": (tr.self_s("faults.sweep"), "s"),
        "faults.masks_nonempty": (b.input().nonempty_masks, "count"),
        "faults.stranded": (sum(1 for _, c in replans if c == "unroutable"), "count"),
    })
    if replan_s:
        m["faults.replan_ms_p50"] = (1e3 * median(replan_s), "ms")
        t = tail(replan_s)
        if t:
            m["faults.replan_ms_tail"] = (1e3 * t[1], "ms", f"p{t[0]:g} of {len(replan_s)}")
    m.update({
        "experiment.probes": (len(probe_recs), "count"),
        "experiment.trips_routed": (routed, "count"),
        "experiment.useful_trip_ratio": (
            probe_recs[-1][1]["n_ev"] * probe_recs[-1][1]["replicates"] / routed if routed else 0.0,
            "ratio"),
        "experiment.task_bytes": (extra["experiment.task_bytes"], "B", "computed"),
    })
    if probe_recs:
        m["experiment.probe_s_p50"] = (median([d for d, _ in probe_recs]), "s")
    if extra["experiment.pool_overhead_s"] is not None:
        m["experiment.pool_overhead_s"] = (extra["experiment.pool_overhead_s"], "s")
    return m


def count_errors(b: Bench, tr: tracing.Tracer, probes: tracing.Tracer, reps: list[dict]) -> list[str]:
    """The traced run must reproduce the untraced run's counts, and the
    tracer's own counts must agree with the outputs."""
    digests = [r.get("digest") for r in reps]
    if any(d is None for d in digests):
        return []  # already failed on its own
    errs = []
    if any(d["counts"] != digests[0]["counts"] for d in digests[1:]):
        errs.append("traced and untraced runs wrote different counts")
    c = digests[-1]["counts"]
    plans = Counter(n for _, n in tr.records.get("router.plan", []))
    if b.w.command == "simulate":
        for cls in checks.CLASSES:
            if plans[cls] != c[f"routes.{cls}"]:
                errs.append(f"traced {cls} plans {plans[cls]} != routes.jsonl {c[f'routes.{cls}']}")
        booked = sum(len(led) for led in tr.ledgers)
        if booked != c["ledger.bookings"]:
            errs.append(f"traced ledgers hold {booked} bookings, ledger.csv {c['ledger.bookings']}")
    elif b.w.command == "faults":
        stranded = sum(1 for _, n in tr.records.get("faults.replan", []) if n == "unroutable")
        written = sum(v for k, v in c.items() if k.startswith("stranded@"))
        if stranded != written:
            errs.append(f"traced strandings {stranded} != faults.csv {written}")
        masks = b.w.options["fault_masks"]
        unroutable = next(v for k, v in c.items() if k.startswith("unroutable@")) // masks
        if plans["unroutable"] != unroutable:
            errs.append(f"traced unroutable plans {plans['unroutable']} != faults.csv {unroutable}")
    else:
        for t in (tr, probes):
            n = len(t.records.get("experiment.probe", []))
            if n != c["probes"]:
                errs.append(f"traced probes {n} != capacity.json {c['probes']}")
    trips = sum(plans.values())
    expected = (sum(v for k, v in c.items() if k.startswith("trials@"))
                if b.w.command == "capacity" else b.input().n_ev * b.w.options["replicates"])
    if trips != expected:
        errs.append(f"traced plans {trips} != trips {expected}")
    return errs


def write_spans(b: Bench, tr: tracing.Tracer, probes: tracing.Tracer) -> str:
    out_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"spans-{b.w.name}-seed{b.seed}.json")
    doc = {"workload": b.w.name, "seed": b.seed, "traced": tr.dump()}
    if probes is not tr:
        doc["pooled"] = probes.dump()
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


def print_layers(m: dict) -> None:
    """Every per-layer metric; counts (and ratios of counts) depend only on
    the input and repeat exactly, timings do not."""
    for name, v in m.items():
        value, unit = v[0], v[1]
        kind = "time" if unit in TIME_UNITS else "count, repeats exactly"
        note = f"; {v[2]}" if len(v) > 2 else ""
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:<40} {shown:>14} {unit:<5} [{kind}{note}]")


def print_split(m: dict) -> None:
    """Where the traced run's time went, as shares of its run_s."""
    run_s = m["trace.traced_run_s"][0]
    parts = {
        "sampling": m["population.sample_s"][0],
        "routing": m["router.plan_s"][0],
        "commit": m["router.commit_s"][0],
        "fault sweep": m["faults.sweep_s"][0],
    }
    shares = ", ".join(f"{k} {100 * v / run_s:.1f}%" for k, v in parts.items())
    print(f"  split of traced run_s {run_s:.3f} s: {shares}")


# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    prog = import_program()
    refs = load_references()
    w = WORKLOADS[args.workload]
    load1 = loadavg_1min()
    work = tempfile.mkdtemp(prefix=".perfbench-work-", dir=ROOT)
    try:
        b = Bench(prog, w, args.seed, work, refs)
        print(
            f"workload {w.name}  seed {args.seed}  first input variant {b.input().variant}"
            f"  n_ev {b.input().n_ev}"
            f"  nproc {os.cpu_count()}  loadavg_1m {load1}"
        )
        if args.trace:
            reps, m = traced(b)
            print_layers(m)
            print_split(m)
            metrics = {name: v[:2] for name, v in m.items() if name in PER_LAYER}
            missing = sorted(set(PER_LAYER) - set(metrics))
            if missing:
                reps[-1]["errors"].append(f"per-layer metrics not measured: {missing}")
        else:
            reps, setups = end_to_end(b, args.seconds)
            print_e2e(b, reps, setups)
            metrics = e2e_metrics(reps, setups)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(1 for r in reps if r["errors"])
    for r in reps:
        for e in r["errors"]:
            print(f"check failed: {e}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(reps),
        "failed": failed,
        # a metric no run could measure (every run failed) is written as 0
        "metrics": {k: {"value": v if np.isfinite(v) else 0.0, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


def _per_layer_names() -> list[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return [m["name"] for m in json.load(fh)["per_layer"]]


PER_LAYER = _per_layer_names() if os.path.isfile(os.path.join(ROOT, "BENCHMARK.json")) else []


if __name__ == "__main__":
    sys.exit(main())
