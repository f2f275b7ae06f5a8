"""Outside-in tracing: wrappers around calls into each chargesim module.

Tracing touches no file of the program. It wraps, for the length of one
command and restored afterwards:

* the names ``distance_km`` and ``plan_route`` (and ``commit_route``,
  ``sample_trip_batch``, ``run_scenario``) as imported into ``router``,
  ``network``, ``faults`` and ``experiment``, and ``run_fault_sweep`` as
  imported into ``cli``;
* methods of the objects the CLI loads or creates: ``grid.distances_from``
  and ``net.within_radius`` on the inputs returned by
  ``load_scenario_inputs``, and ``earliest_slot`` and ``commit`` on every
  ``ReservationLedger`` built by ``cli`` or ``experiment``.

Spans stay in memory. Fine-grained ones (hundreds of thousands of distance
and slot calls) are aggregated per (layer, parent layer) into calls, total
time and self time, where self time is the span minus the time of the
spans nested in it. Coarse ones (one per planned trip, replan or probe)
are also kept individually so percentiles can be taken.
"""

from __future__ import annotations

import contextlib
import time

from checks import stop_class


class Tracer:
    def __init__(self) -> None:
        self._stack: list[list] = []  # [layer, time covered by child spans]
        # (layer, parent layer) -> [calls, total_s, self_s]
        self.agg: dict[tuple[str, str | None], list] = {}
        # layer -> [(duration_s, note), ...] for layers kept per call
        self.records: dict[str, list] = {}
        self.radius_hits = 0
        self.ledgers: list = []

    def wrap(self, layer: str, fn, note=None):
        """fn wrapped in a span named layer. note(args, kwargs, result), if
        given, is stored with the span's duration."""
        stack, agg = self._stack, self.agg
        records = self.records.setdefault(layer, []) if note else None
        perf = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                a = agg.get((layer, parent))
                if a is None:
                    a = agg[(layer, parent)] = [0, 0.0, 0.0]
                a[0] += 1
                a[1] += dur
                a[2] += dur - frame[1]
            if records is not None:
                records.append((dur, note(args, kwargs, result)))
            return result

        return traced

    def calls(self, layer: str, parent: str | None = "*") -> int:
        return sum(v[0] for (l, p), v in self.agg.items() if l == layer and parent in ("*", p))

    def total_s(self, layer: str) -> float:
        return sum(v[1] for (l, _), v in self.agg.items() if l == layer)

    def self_s(self, layer: str) -> float:
        return sum(v[2] for (l, _), v in self.agg.items() if l == layer)

    def dump(self) -> dict:
        return {
            "spans": [
                {"layer": l, "parent": p, "calls": v[0], "total_s": v[1], "self_s": v[2]}
                for (l, p), v in sorted(self.agg.items(), key=lambda kv: (kv[0][0], kv[0][1] or ""))
            ],
            "records": {k: [[d, n] for d, n in v] for k, v in self.records.items()},
        }


@contextlib.contextmanager
def patched(*targets):
    """Set (obj, attr, value) triples for the block, then restore them."""
    saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in targets]
    try:
        for obj, attr, value in targets:
            setattr(obj, attr, value)
        yield
    finally:
        for obj, attr, value in reversed(saved):
            setattr(obj, attr, value)


def install(tracer: Tracer, modules, *, instances: bool = True, on_probe=None):
    """Patches that trace one command, for use with patched().

    instances=False leaves the loaded grid, network and ledgers alone; a
    pooled run needs that, because instance wrappers cannot be pickled to
    the workers. on_probe(cfg, kwargs) sees the inputs of each run_scenario call.
    """
    cli, experiment, faults, network, router = (
        modules.cli, modules.experiment, modules.faults, modules.network, modules.router
    )

    def plan_class(args, kwargs, result):
        return "unroutable" if isinstance(result, router.Unroutable) else stop_class(len(result.stops))

    def probe_note(args, kwargs, result):
        cfg = args[0]
        if on_probe is not None:
            on_probe(cfg, kwargs)
        return {"n_ev": cfg.n_ev, "replicates": cfg.replicates, "threads": cfg.threads}

    targets = [
        (experiment, "run_scenario",
         tracer.wrap("experiment.probe", experiment.run_scenario, probe_note)),
    ]
    if not instances:
        return targets

    real_load = cli.load_scenario_inputs
    real_ledger = cli.ReservationLedger

    def load(*args, **kwargs):
        grid, net, dist = real_load(*args, **kwargs)
        grid.distances_from = tracer.wrap("population.ring_scan", grid.distances_from)
        within = tracer.wrap("network.radius", net.within_radius)

        def within_radius(center, radius_km):
            res = within(center, radius_km)
            tracer.radius_hits += len(res)
            return res

        net.within_radius = within_radius
        return grid, net, dist

    def ledger():
        led = real_ledger()
        led.earliest_slot = tracer.wrap("reservations.slot", led.earliest_slot)
        led.commit = tracer.wrap("reservations.commit", led.commit)
        tracer.ledgers.append(led)
        return led

    targets += [
        (cli, "load_scenario_inputs", load),
        (cli, "ReservationLedger", ledger),
        (experiment, "ReservationLedger", ledger),
        (router, "distance_km", tracer.wrap("geo.distance", router.distance_km)),
        (network, "distance_km", tracer.wrap("geo.distance", network.distance_km)),
        (experiment, "sample_trip_batch",
         tracer.wrap("population.sample", experiment.sample_trip_batch,
                     lambda a, k, r: len(r))),
        (experiment, "plan_route", tracer.wrap("router.plan", experiment.plan_route, plan_class)),
        (experiment, "commit_route", tracer.wrap("router.commit", experiment.commit_route)),
        (faults, "plan_route", tracer.wrap("faults.replan", faults.plan_route, plan_class)),
        (cli, "run_fault_sweep", tracer.wrap("faults.sweep", cli.run_fault_sweep)),
    ]
    return targets
