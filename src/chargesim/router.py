"""Time-optimal trip routing across the charge network.

A route is a sequence of charge stops between origin and destination. Legs
are point-to-point at cruise speed; every leg must keep the state of charge
at or above the reserve floor, and each stop charges up to the target level
before departing. The planner searches stop sequences with a goal-directed
(A*) label search:

  * a label is one tuple: its bound, departure, stop count, stop-id
    sequence, charge, location and distance to the destination, then its
    parent label and the stop that made it (leg km, arrival, slot start,
    arrival charge); legs and stops are read off the winning label's
    parent chain;
  * a label extends to every charge point reachable on its charge, save
    the excluded ones (a fault mask);
  * in reservation-aware mode the wait at a point comes from the ledger's
    earliest free slot; reservation-blind planning assumes zero wait and
    discovers the real queue only at commit time;
  * labels pop in order of f, the departure plus a lower bound on the
    rest of the trip: the straight-line drive to the destination, plus
    the time that drive's missing charge (what it uses beyond the label's
    charge above the floor) takes at the fastest rate any stop gives;
  * ub is the least arrival known so far: a pushed label that can finish
    directly gives one, its departure plus the last leg, and so does each
    popped arrival. The search stops once f exceeds ub, and a label whose
    f exceeds ub is not pushed (tested first at arrival with the arrival
    charge, which bounds f before the charge and the ledger probe);
  * a new label at a point is cut when a label kept there departs no
    later, with at least as much charge and a (stop count, stop ids) key
    no greater; kept labels that the new one dominates this way are
    dropped, and skipped when they pop;
  * a trip that pops over MAX_LABELS labels before it finds an arrival is
    unroutable (skipped pops count); once an arrival is known, the A* stop
    bounds the search, so every search ends in bounded time;
  * a trip that needs a charge is unroutable at once when no point outside
    the exclude set lies within reach of the destination: no label departs
    with more charge than the larger of its initial charge and the charge
    target, so no last leg is longer than that charge's span.

Ties on arrival break toward fewer stops, then the lexicographically
smallest stop-id sequence, so plans are deterministic.

The cuts are exact, and only a pruned search (RouterConfig.prune) makes
them; the unpruned one orders its heap by the straight-line bound alone
and cuts nothing but dominated labels.

  * The bound is admissible, so this is A* (Hart, Nilsson and Raphael,
    1968). Legs run at constant speed, waits are never negative, and the
    haversine obeys the triangle inequality to about 1e-12 km, so every
    completion drives at least the straight line. It reaches the
    destination at or above the floor, so it adds at least the missing
    charge, and no stop charges faster than the larger of the vehicle's
    DC and AC limits. Both terms take the distance less BOUND_SLACK_KM,
    and the charge term is scaled by 1 - 1e-9, so f stays strictly below
    the rounded arrival of every completion. This is the potential-based
    charging-stop bound of Baum et al. (below).
  * ub is the arrival of a real route, so a label whose f exceeds it can
    neither win nor tie; the cuts are strict, so ties survive. The plan
    and its tie-break still come from pops: the label that set ub needs
    no charge to finish, so its f is below its arrival and it pops before
    the stop fires, and its pop computes the same float. This is
    incumbent pruning, as in branch and bound.
  * A dropped label is skipped by the dominance argument below: the label
    that dropped it, or one that dropped that in turn, is in the heap with
    no larger f, and through any continuation arrives no later with a
    smaller key. A dropped label is held until the trip ends, so its id
    is not reused while the search runs.

The dominance is exact. The ledger's earliest slot never decreases as the
arrival time or the charge duration grows, the charge duration never
increases as the arrival charge grows, and every charging stop ends at the
same target. So a label that departs no later with at least as much charge
reaches the destination through any continuation no later, and appending
the same continuation keeps the order of the (stop count, stop ids) keys,
so the tie-break survives too. A revisit of a point departs no earlier, with
no more charge and more stops, than the first visit, so it is always
dominated: labels need no visited set, and the search still returns the
best simple path; a cut label dominates only labels of no smaller f. This
is the FIFO time-dependent shortest-path argument (Kaufman and Smith,
1993), as used for charging-stop search by Baum et al., "Shortest Feasible
Paths with Charging Stops" (SIGSPATIAL 2015).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace

from .ev import EvParams, charge_duration_h, effective_charge_kw, soc_drop
from .geo import GeoPoint, distance_km
from .network import ChargeNetwork
from .reservations import Booking, ReservationLedger

AWARE = "aware"
BLIND = "blind"
MODES = (AWARE, BLIND)
BOUND_SLACK_KM = 1e-9  # the A* bound's margin for rounding; see above
MAX_LABELS = 100_000  # labels a trip may pop before its first arrival
NO_ROUTE = "no operational charge-point sequence reaches the destination"


@dataclass(frozen=True)
class TripRequest:
    ev_id: int
    origin: GeoPoint
    destination: GeoPoint
    depart_h: float = 0.0
    priority: float = 0.0  # processing order among a fleet's trips


@dataclass(frozen=True)
class RouterConfig:
    ev: EvParams
    mode: str = AWARE
    prune: bool = True

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}; expected one of {MODES}")


@dataclass(frozen=True)
class Leg:
    start: GeoPoint
    end: GeoPoint
    distance_km: float
    drive_h: float


@dataclass(frozen=True)
class Stop:
    cp_id: str
    arrival_h: float
    wait_h: float
    charge_start_h: float
    charge_end_h: float
    soc_in: float
    soc_out: float


@dataclass(frozen=True)
class RoutePlan:
    ev_id: int
    depart_h: float
    arrival_h: float
    legs: tuple[Leg, ...]
    stops: tuple[Stop, ...]
    direct_km: float
    needed_charge: bool

    @property
    def total_time_h(self) -> float:
        return self.arrival_h - self.depart_h

    @property
    def route_km(self) -> float:
        return sum(leg.distance_km for leg in self.legs)

    @property
    def destination(self) -> GeoPoint:
        return self.legs[-1].end


@dataclass(frozen=True)
class Unroutable:
    ev_id: int
    reason: str
    direct_km: float
    needed_charge: bool = True


def average_trip_speed(plan: RoutePlan) -> float:
    """Driven distance over total elapsed time, kph. Waiting and charging
    count as elapsed time; the denominator is the whole journey."""
    if plan.total_time_h <= 0.0:
        return 0.0
    return plan.route_km / plan.total_time_h


def span_km(ev: EvParams, soc: float, floor: float) -> float:
    """Longest leg that keeps the arrival charge at or above the floor."""
    return max(0.0, soc - floor) * ev.max_range_km * ev.route_scale


def plan_route(
    req: TripRequest,
    net: ChargeNetwork,
    ledger: ReservationLedger,
    cfg: RouterConfig,
    *,
    initial_soc: float = 1.0,
    reserve_floor: float | None = None,
    exclude: frozenset[str] = frozenset(),
    ignore_ev: int | None = None,
) -> RoutePlan | Unroutable:
    """Plan one trip; returns the time-optimal RoutePlan or Unroutable.

    The keyword arguments serve fault replay: a reroute starts mid-journey
    at a reduced charge, may spend the reserve (floor 0), must avoid the
    faulted points, and ignores the vehicle's own abandoned bookings.
    """
    ev = cfg.ev
    floor = ev.reserve_soc if reserve_floor is None else reserve_floor
    direct = distance_km(req.origin, req.destination)
    if direct <= span_km(ev, initial_soc, floor):
        leg = Leg(req.origin, req.destination, direct, direct / ev.speed_kph)
        return RoutePlan(
            ev_id=req.ev_id,
            depart_h=req.depart_h,
            arrival_h=req.depart_h + leg.drive_h,
            legs=(leg,),
            stops=(),
            direct_km=direct,
            needed_charge=False,
        )
    # the exit test (see above); the slack covers the radius query measuring
    # from the destination where a last leg measures to it
    reach = span_km(ev, max(initial_soc, ev.charge_target_soc), floor) + BOUND_SLACK_KM
    if not net.any_within(req.destination, reach, exclude):
        return Unroutable(req.ev_id, NO_ROUTE, direct)

    # A* over labels (f, dep, n_stops, seq, soc, loc, d_dest, parent, d_leg,
    # arr, slot, soc_in); after f the heap order agrees with the final
    # tie-break preference. A label is pushed once per stop-id sequence, so
    # heap comparison ends at seq and never reaches loc or parent, which
    # cannot be ordered
    speed, target = ev.speed_kph, ev.charge_target_soc
    aware, prune = cfg.mode == AWARE, cfg.prune
    # the bound's hours per unit of missing charge; 0 leaves the unpruned
    # search its distance-only bound, bit for bit
    charge_h = ev.battery_kwh / max(ev.dc_charge_kw, ev.onboard_ac_limit_kw) * (1 - 1e-9) if prune else 0.0
    # point id -> (km to the destination, the bound's drive hours, the
    # charge it needs to get there, its charge power)
    to_dest: dict[str, tuple[float, float, float, float]] = {}
    dh = direct - BOUND_SLACK_KM
    gap = soc_drop(ev, dh) - (initial_soc - floor)
    heap = [(req.depart_h + dh / speed + (gap * charge_h if gap > 0.0 else 0.0), req.depart_h, 0, (),
             initial_soc, req.origin, direct, None, None, None, None, None)]
    pareto: dict[str, list[tuple]] = {}  # point id -> labels kept there
    dead: dict[int, tuple] = {}  # id -> label dropped from pareto; holding it keeps its id unique
    best = None  # (arrival, label)
    best_arrival = ub = float("inf")  # best popped arrival; least known arrival
    popped = 0

    while heap:
        label = heapq.heappop(heap)
        f, dep, n_stops, seq, soc, loc, d_dest = label[:7]
        if prune and f > ub:
            break
        popped += 1
        if best is None and popped > MAX_LABELS:
            return Unroutable(req.ev_id, f"label budget exhausted at {MAX_LABELS} labels", direct)
        if prune and id(label) in dead:
            continue
        span = span_km(ev, soc, floor)
        if d_dest <= span:
            arrival = dep + d_dest / speed
            if best is None or (arrival, n_stops, seq) < (best_arrival, *best[1][2:4]):
                best = (arrival, label)
                best_arrival = arrival
                ub = min(ub, arrival)
            # extending a completed label cannot beat its own arrival:
            # charge time is non-negative and legs obey the triangle
            # inequality, so skip the extensions
            continue
        for d_leg, cp in net.within_radius(loc, span):
            if cp.id in exclude:
                continue
            memo = to_dest.get(cp.id)
            if memo is None:
                d_cp = distance_km(cp.location, req.destination)
                memo = to_dest[cp.id] = (d_cp, (d_cp - BOUND_SLACK_KM) / speed,
                                         soc_drop(ev, d_cp - BOUND_SLACK_KM),
                                         effective_charge_kw(ev, cp.kind, cp.power_kw))
            d_cp, drive_h, need, kw = memo
            arr = dep + d_leg / speed
            soc_in = soc - soc_drop(ev, d_leg)
            if prune:
                gap = need - (soc_in - floor)
                if arr + drive_h + (gap * charge_h if gap > 0.0 else 0.0) > ub:
                    continue
            if soc_in >= target:
                # already above the charge target: stop adds nothing
                duration = 0.0
                slot = arr
                soc_out = soc_in
            else:
                duration = charge_duration_h(ev, soc_in, target, kw)
                slot = ledger.earliest_slot(cp.id, arr, duration, ignore_ev) if aware else arr
                soc_out = target
            ndep = slot + duration
            gap = need - (soc_out - floor)
            nf = ndep + drive_h + (gap * charge_h if gap > 0.0 else 0.0)
            if prune and nf > ub:
                continue
            n, nseq = n_stops + 1, seq + (cp.id,)
            kept = pareto.setdefault(cp.id, [])
            # keys (n_stops, seq) compare field by field: slicing k[2:4]
            # would build a tuple per test, and this is the hottest loop
            if any(k[1] <= ndep and k[4] >= soc_out and (k[2] < n or k[2] == n and k[3] <= nseq)
                   for k in kept):
                continue
            if prune:
                stale = [k for k in kept if ndep <= k[1] and soc_out >= k[4]
                         and (n < k[2] or n == k[2] and nseq <= k[3])]
                if stale:
                    dead.update((id(k), k) for k in stale)
                    kept[:] = [k for k in kept if id(k) not in dead]
            else:
                kept[:] = [k for k in kept if not (ndep <= k[1] and soc_out >= k[4]
                                                   and (n < k[2] or n == k[2] and nseq <= k[3]))]
            new = (nf, ndep, n, nseq, soc_out, cp.location, d_cp,
                   label, d_leg, arr, slot, soc_in)
            kept.append(new)
            heapq.heappush(heap, new)
            if prune and d_cp <= span_km(ev, soc_out, floor):
                ub = min(ub, ndep + d_cp / speed)

    if best is None:
        return Unroutable(req.ev_id, NO_ROUTE, direct)

    arrival, label = best
    legs = [Leg(label[5], req.destination, label[6], label[6] / speed)]
    stops = []
    while label[7] is not None:
        _, dep, _, seq, soc, loc, _, parent, d_leg, arr, slot, soc_in = label
        legs.append(Leg(parent[5], loc, d_leg, d_leg / speed))
        stops.append(Stop(seq[-1], arr, slot - arr, slot, dep, soc_in, soc))
        label = parent
    return RoutePlan(
        ev_id=req.ev_id,
        depart_h=req.depart_h,
        arrival_h=arrival,
        legs=tuple(reversed(legs)),
        stops=tuple(reversed(stops)),
        direct_km=direct,
        needed_charge=True,
    )


def commit_route(plan: RoutePlan, ledger: ReservationLedger, cfg: RouterConfig) -> RoutePlan:
    """Book the plan's charging intervals; returns the realized plan.

    Reservation-aware plans were built against the current ledger, so their
    intervals commit as-is. Reservation-blind plans assumed zero waits; each
    stop is re-resolved against the ledger in journey order, first come
    first served, and every later time shifts by the accumulated delay.
    """
    if cfg.mode == AWARE:
        for s in plan.stops:
            if s.charge_end_h > s.charge_start_h:
                ledger.commit(Booking(s.cp_id, plan.ev_id, s.charge_start_h, s.charge_end_h))
        return plan

    if not plan.stops:
        return plan
    delay = 0.0
    realized = []
    for s in plan.stops:
        arr = s.arrival_h + delay
        duration = s.charge_end_h - s.charge_start_h
        if duration > 0.0:
            slot = ledger.earliest_slot(s.cp_id, arr, duration)
            ledger.commit(Booking(s.cp_id, plan.ev_id, slot, slot + duration))
        else:
            slot = arr
        end = slot + duration
        realized.append(replace(s, arrival_h=arr, wait_h=slot - arr, charge_start_h=slot, charge_end_h=end))
        delay = end - s.charge_end_h
    return replace(plan, stops=tuple(realized), arrival_h=plan.arrival_h + delay)
