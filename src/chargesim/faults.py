"""Fault injection and stranding analysis.

Each charge point fails independently with probability p_f. Committed
routes are replayed against a fault mask: a vehicle drives its plan until
the first faulty stop, then must finish from there on the charge it
arrived with. It may spend the reserve (down to empty, never below) and
must avoid every faulted point. Stranding is a reachability verdict: a
vehicle is stranded when no sequence of points outside the mask gets it to
its destination. Reservations never decide it, because the ledger always
yields a slot and a wait never changes whether a trip can finish, so the
verdict depends on charge alone.

A max-charge search gives the verdict. It keeps the highest departure
charge per point and uses the router's leg arithmetic, so it reaches the
destination exactly when plan_route, given the same start, charge, floor 0
and faulted points, returns a plan. The router is consulted only for a
trip that cannot finish, which it reports unroutable; that re-plan honours
other vehicles' reservations and books nothing, so one vehicle's fault
never cascades into another's schedule. The one difference from asking
the router every time: a trip where plan_route would pop MAX_LABELS labels
before finding a route that exists now counts as rerouted, not stranded.

Sweeps over p_f reuse one uniform draw per point per mask (common random
numbers), which makes the stranding curve exactly monotone in p_f.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace as dc_replace

import numpy as np

from .ev import EvParams, soc_drop
from .geo import GeoPoint, distance_km
from .network import ChargeNetwork, ChargePoint
from .reservations import ReservationLedger
from .router import (
    AWARE, RoutePlan, RouterConfig, TripRequest, Unroutable, plan_route, span_km,
)
from .stats import wilson_interval

COMPLETED = "completed"
REROUTED = "rerouted"
STRANDED = "stranded"


def sample_fault_masks(
    net: ChargeNetwork, p_fs: list[float], rng: np.random.Generator
) -> list[frozenset[str]]:
    """One mask per p_f from one uniform per point, drawn in id order so the
    sequence is reproducible. A point is down when its uniform is below p_f,
    so the masks nest as p_f rises (common random numbers)."""
    ids = sorted(net.by_id)
    u = rng.random(len(ids))
    return [frozenset(pid for pid, x in zip(ids, u) if x < p_f) for p_f in p_fs]


def can_finish(
    start: GeoPoint,
    soc: float,
    destination: GeoPoint,
    net: ChargeNetwork,
    ev: EvParams,
    exclude: frozenset[str],
    to_dest: dict[GeoPoint, float],
) -> bool:
    """Whether some sequence of points outside `exclude` takes a
    vehicle at `start` with charge `soc` to the destination, at floor 0.

    Points pop in order of their best departure charge. A stop charges to
    the target or keeps a higher arrival charge, so a point's departure
    charge never falls below the target and never exceeds the charge it
    was reached from: the first pop of a point holds its highest charge.
    More charge reaches a superset of legs, so keeping only the highest is
    exact. A point is tested against the destination when its charge is
    raised, so the search ends at the first point that can finish.
    `to_dest` caches the km from each location to the destination.
    """
    target = ev.charge_target_soc
    best: dict[str, float] = {}
    heap: list[tuple[float, str, ChargePoint]] = []
    d_dest = to_dest.get(start)
    if d_dest is None:
        d_dest = to_dest[start] = distance_km(start, destination)
    loc, reach = start, span_km(ev, soc, 0.0)
    if d_dest <= reach:
        return True
    while True:
        for d_leg, cp in net.within_radius(loc, reach):
            if cp.id in exclude:
                continue
            soc_in = soc - soc_drop(ev, d_leg)
            soc_out = soc_in if soc_in >= target else target
            if soc_out > best.get(cp.id, -1.0):
                d_dest = to_dest.get(cp.location)
                if d_dest is None:
                    d_dest = to_dest[cp.location] = distance_km(cp.location, destination)
                if d_dest <= span_km(ev, soc_out, 0.0):
                    return True
                best[cp.id] = soc_out
                heapq.heappush(heap, (-soc_out, cp.id, cp))
        while heap:
            neg, pid, cp = heapq.heappop(heap)
            if -neg == best[pid]:
                break
        else:
            return False
        soc, loc = -neg, cp.location
        reach = span_km(ev, soc, 0.0)


def replay_trip(
    plan: RoutePlan,
    mask: frozenset[str],
    net: ChargeNetwork,
    ledger: ReservationLedger,
    cfg: RouterConfig,
    to_dest: dict[GeoPoint, float] | None = None,
) -> str:
    """Drive a committed plan against a fault mask: COMPLETED, REROUTED or
    STRANDED. `to_dest` may carry the km from each location to the plan's
    destination from one replay to the next."""
    faulty = None
    for s in plan.stops:
        if s.cp_id in mask:
            faulty = s
            break
    if faulty is None:
        return COMPLETED
    here = net.by_id[faulty.cp_id].location
    if can_finish(here, faulty.soc_in, plan.destination, net, cfg.ev, mask,
                  {} if to_dest is None else to_dest):
        return REROUTED
    # the router confirms the stranding; reroutes honour existing
    # reservations even when the original plan was made blind
    req = TripRequest(plan.ev_id, here, plan.destination, depart_h=faulty.arrival_h)
    replan = plan_route(
        req, net, ledger, dc_replace(cfg, mode=AWARE),
        initial_soc=faulty.soc_in,
        reserve_floor=0.0,
        exclude=mask,
        ignore_ev=plan.ev_id,
    )
    return STRANDED if isinstance(replan, Unroutable) else REROUTED


def estimate_ps_first_order(p_c: float, p_f: float, n_isolated: int, n_total: int) -> float:
    """First-order stranding estimate: a charging trip strands when its
    stop lands on an isolated point (share n_isolated/n_total of points)
    and that point is down."""
    if n_total <= 0:
        return 0.0
    return p_c * p_f * n_isolated / n_total


@dataclass(frozen=True)
class SweepRow:
    p_f: float
    trips: int
    needed_charge: int
    stranded: int
    unroutable: int

    @property
    def p_s(self) -> float:
        return self.stranded / self.trips if self.trips else 0.0

    @property
    def ci_low(self) -> float:
        return wilson_interval(self.stranded, self.trips)[0]

    @property
    def ci_high(self) -> float:
        return wilson_interval(self.stranded, self.trips)[1]

    def merge(self, other: "SweepRow") -> "SweepRow":
        """The row over both rows' trips; counts add, the rates follow."""
        if other.p_f != self.p_f:
            raise ValueError(f"cannot merge sweep rows at p_f {self.p_f} and {other.p_f}")
        return SweepRow(
            p_f=self.p_f,
            trips=self.trips + other.trips,
            needed_charge=self.needed_charge + other.needed_charge,
            stranded=self.stranded + other.stranded,
            unroutable=self.unroutable + other.unroutable,
        )


def run_fault_sweep(
    plans: list[RoutePlan],
    n_unroutable: int,
    net: ChargeNetwork,
    ledger: ReservationLedger,
    cfg: RouterConfig,
    p_f_grid: list[float],
    n_masks: int,
    seed: int,
) -> list[SweepRow]:
    """Replay a committed route set under masks drawn at each p_f.

    Counts aggregate over masks: `trips` is journeys replayed plus the
    unroutable ones carried through for the denominator, and p_s is
    stranded over trips. The binomial interval ignores the correlation
    between trips sharing a mask, so read it as a scale, not a guarantee.
    """
    grid = sorted(set(p_f_grid))
    charging = [p for p in plans if p.stops]
    n_charging_flagged = sum(1 for p in plans if p.needed_charge)
    to_dest = [{} for _ in charging]
    # the charging plans stopping at each point; a plan that meets no
    # faulted stop completes, so only the plans a mask hits are replayed
    stopping: dict[str, list[int]] = {}
    for k, plan in enumerate(charging):
        for s in plan.stops:
            stopping.setdefault(s.cp_id, []).append(k)
    stranded = {p_f: 0 for p_f in grid}
    for m in range(n_masks):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(m,)))
        for p_f, mask in zip(grid, sample_fault_masks(net, grid, rng)):
            for k in sorted({k for pid in mask for k in stopping.get(pid, ())}):
                if replay_trip(charging[k], mask, net, ledger, cfg, to_dest[k]) == STRANDED:
                    stranded[p_f] += 1
    trips = (len(plans) + n_unroutable) * n_masks
    return [
        SweepRow(
            p_f=p_f,
            trips=trips,
            needed_charge=n_charging_flagged * n_masks,
            stranded=stranded[p_f],
            unroutable=n_unroutable * n_masks,
        )
        for p_f in grid
    ]
