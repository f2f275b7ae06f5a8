import dataclasses

import numpy as np
import pytest

from chargesim.ev import EvParams
from chargesim.geo import GeoPoint, distance_km, offset_km
from chargesim import router
from chargesim.network import ChargeNetwork, ChargePoint, add_colocated_redundancy
from chargesim.reservations import Booking, ReservationLedger, SlotConflict
from chargesim.router import (
    AWARE,
    BLIND,
    RouterConfig,
    RoutePlan,
    TripRequest,
    Unroutable,
    average_trip_speed,
    commit_route,
    plan_route,
)

from helpers import (
    corridor_fixture,
    enumerate_best,
    random_corridor_instance,
    random_router_instance,
)

EV = EvParams()
CFG = RouterConfig(ev=EV)


def test_zero_stop_trip():
    anchor = GeoPoint(0.0, 30.0)
    req = TripRequest(1, anchor, offset_km(anchor, 50.0, 0.0))
    plan = plan_route(req, ChargeNetwork([]), ReservationLedger(), CFG)
    assert isinstance(plan, RoutePlan)
    assert not plan.needed_charge
    assert plan.stops == ()
    assert plan.arrival_h == pytest.approx(50.0 / 90.0, rel=1e-12)
    assert average_trip_speed(plan) == pytest.approx(90.0, rel=1e-12)


def test_destination_beyond_every_point_ends_after_one_radius_query(monkeypatch):
    # a 6 x 6 block of points at an 8 km pitch, the destination 100 km past
    # its east edge: no point is within one charged leg of it, so the exit
    # test ends the search where label expansion would scan from every point
    anchor = GeoPoint(0.0, 30.0)
    net = ChargeNetwork([
        ChargePoint(f"g{i}{j}", offset_km(anchor, 8.0 * i, 8.0 * j), "DC", 50.0)
        for i in range(6) for j in range(6)
    ])
    req = TripRequest(1, anchor, offset_km(anchor, 140.0, 20.0))
    calls = []

    def counted(query):
        def wrapper(center, radius_km, *args):
            calls.append(radius_km)
            return query(center, radius_km, *args)
        return wrapper

    monkeypatch.setattr(net, "within_radius", counted(net.within_radius))
    monkeypatch.setattr(net, "any_within", counted(net.any_within))
    for cfg in (CFG, dataclasses.replace(CFG, prune=False)):
        calls.clear()
        out = plan_route(req, net, ReservationLedger(), cfg)
        assert isinstance(out, Unroutable)
        assert out.reason == router.NO_ROUTE
        assert len(calls) == 1


def test_direct_range_threshold():
    # usable range from full is 74.8 km; just beyond it needs a charge
    anchor = GeoPoint(0.0, 30.0)
    net = ChargeNetwork([])
    led = ReservationLedger()
    ok = plan_route(TripRequest(1, anchor, offset_km(anchor, 74.79, 0.0)), net, led, CFG)
    assert isinstance(ok, RoutePlan) and not ok.needed_charge
    too_far = plan_route(TripRequest(1, anchor, offset_km(anchor, 74.81, 0.0)), net, led, CFG)
    assert isinstance(too_far, Unroutable)
    assert too_far.needed_charge
    assert "no operational charge-point sequence" in too_far.reason
    assert too_far.direct_km == pytest.approx(74.81, rel=1e-9)


def test_two_stop_corridor_times():
    req, net = corridor_fixture()
    plan = plan_route(req, net, ReservationLedger(), CFG)
    assert isinstance(plan, RoutePlan)
    assert plan.needed_charge
    assert [s.cp_id for s in plan.stops] == ["s1", "s2"]
    s1, s2 = plan.stops
    assert s1.soc_in == pytest.approx(0.4652406417112279, abs=1e-15)
    assert s1.charge_end_h - s1.charge_start_h == pytest.approx(
        0.17853832442067852, abs=1e-15
    )
    assert s2.soc_in == pytest.approx(0.2652406417112321, abs=1e-15)
    assert s2.charge_end_h - s2.charge_start_h == pytest.approx(
        0.2852049910873429, abs=1e-15
    )
    assert s1.wait_h == 0.0 and s2.wait_h == 0.0
    assert plan.arrival_h == pytest.approx(2.130409982174686, abs=1e-12)
    assert plan.direct_km == pytest.approx(150.0, rel=1e-9)
    assert plan.route_km == pytest.approx(150.0, rel=1e-9)


def test_legs_chain_origin_to_destination():
    req, net = corridor_fixture()
    plan = plan_route(req, net, ReservationLedger(), CFG)
    assert plan.legs[0].start == req.origin
    assert plan.legs[-1].end == req.destination
    for a, b in zip(plan.legs, plan.legs[1:]):
        assert a.end == b.start
    for leg in plan.legs:
        assert leg.distance_km == pytest.approx(distance_km(leg.start, leg.end), abs=1e-12)
        assert leg.drive_h == pytest.approx(leg.distance_km / EV.speed_kph, abs=1e-15)


def test_aware_commit_books_plan_windows():
    req, net = corridor_fixture()
    led = ReservationLedger()
    plan = plan_route(req, net, led, CFG)
    realized = commit_route(plan, led, CFG)
    assert realized is plan
    rows = led.to_rows()
    assert rows == [
        (s.cp_id, req.ev_id, s.charge_start_h, s.charge_end_h) for s in plan.stops
    ]
    # committing the same plan again overlaps itself
    with pytest.raises(SlotConflict):
        commit_route(plan, led, CFG)


def test_blind_commit_queues_first_come_first_served():
    req, net = corridor_fixture()
    cfg = RouterConfig(ev=EV, mode=BLIND)
    led = ReservationLedger()
    first = plan_route(req, net, led, cfg)
    second_req = dataclasses.replace(req, ev_id=8)
    second = plan_route(second_req, net, led, cfg)
    # blind planning ignores the ledger, so both get the same schedule
    assert second.arrival_h == first.arrival_h
    commit_route(first, led, cfg)
    realized = commit_route(second, led, cfg)
    dur1 = first.stops[0].charge_end_h - first.stops[0].charge_start_h
    dur2 = first.stops[1].charge_end_h - first.stops[1].charge_start_h
    # the second vehicle queues behind the first at both stops
    assert realized.stops[0].wait_h == pytest.approx(dur1, abs=1e-12)
    assert realized.stops[1].wait_h == pytest.approx(dur2 - dur1, abs=1e-12)
    assert realized.arrival_h == pytest.approx(first.arrival_h + dur2, abs=1e-12)
    # ledger holds both vehicles' bookings, disjoint per point
    for cp in ("s1", "s2"):
        bs = led.bookings_for(cp)
        assert len(bs) == 2
        assert bs[0].end_h <= bs[1].start_h


def test_blind_commit_of_a_direct_plan_returns_it_unchanged():
    anchor = GeoPoint(0.0, 30.0)
    cfg = RouterConfig(ev=EV, mode=BLIND)
    led = ReservationLedger()
    plan = plan_route(TripRequest(1, anchor, offset_km(anchor, 50.0, 0.0)), ChargeNetwork([]), led, cfg)
    assert plan.stops == ()
    assert commit_route(plan, led, cfg) is plan
    assert len(led) == 0


def test_aware_plan_routes_around_queue():
    # aware planning sees the standing booking and waits for the gap
    req, net = corridor_fixture()
    led = ReservationLedger()
    led.commit(Booking("s1", 99, 0.0, 2.0))
    plan = plan_route(req, net, led, CFG)
    assert isinstance(plan, RoutePlan)
    s1 = plan.stops[0]
    assert s1.charge_start_h == 2.0
    assert s1.wait_h == pytest.approx(2.0 - s1.arrival_h, abs=1e-12)


def test_ignore_ev_skips_own_bookings():
    req, net = corridor_fixture()
    led = ReservationLedger()
    led.commit(Booking("s1", req.ev_id, 0.0, 2.0))
    blocked = plan_route(req, net, led, CFG)
    assert blocked.stops[0].charge_start_h == 2.0
    fresh = plan_route(req, net, led, CFG, ignore_ev=req.ev_id)
    assert fresh.stops[0].wait_h == 0.0


def test_non_operational_and_excluded_points():
    # a point out of service is one in the exclude set (the fault mask);
    # with s1 down, origin to s2 is 100 km, beyond one charge span
    req, net = corridor_fixture()
    led = ReservationLedger()
    assert isinstance(plan_route(req, net, led, CFG, exclude=frozenset({"s1"})), Unroutable)


def test_initial_soc_and_reserve_floor():
    anchor = GeoPoint(0.0, 30.0)
    req = TripRequest(1, anchor, offset_km(anchor, 90.0, 0.0))
    net = ChargeNetwork([])
    led = ReservationLedger()
    # 90 km beats the default floor but fits when the reserve may be spent
    assert isinstance(plan_route(req, net, led, CFG), Unroutable)
    spend = plan_route(req, net, led, CFG, reserve_floor=0.0)
    assert isinstance(spend, RoutePlan)
    # a drained pack cannot reach a stop 50 km out
    req2, net2 = corridor_fixture()
    assert isinstance(plan_route(req2, net2, led, CFG, initial_soc=0.5), Unroutable)


def test_tie_breaks_toward_smaller_stop_id():
    # mirrored stops give identical arrivals; both legs stay inside the
    # 74.8 / 56.1 km spans so the trip is routable through either stop
    anchor = GeoPoint(0.0, 30.0)
    req = TripRequest(1, anchor, offset_km(anchor, 100.0, 0.0))
    net = ChargeNetwork(
        [
            ChargePoint("z", offset_km(anchor, 50.0, 5.0), "DC", 50.0),
            ChargePoint("a", offset_km(anchor, 50.0, -5.0), "DC", 50.0),
        ]
    )
    plan = plan_route(req, net, ReservationLedger(), CFG)
    assert isinstance(plan, RoutePlan)
    assert [s.cp_id for s in plan.stops] == ["a"]


def test_tie_at_a_shared_slot_breaks_toward_smaller_stop_ids():
    # s1 is booked, so a vehicle through s1 waits there while one through
    # its free twin does not; both then queue for the same slot at s2 and
    # arrive together. The later label at s2 has the smaller stop ids and
    # must survive dominance to win the tie.
    req, net = corridor_fixture()
    net = add_colocated_redundancy(net, ["s1"])
    led = ReservationLedger()
    led.commit(Booking("s1", 99, 0.0, 1.0))
    led.commit(Booking("s2", 98, 0.5, 2.5))
    plan = plan_route(req, net, led, CFG)
    assert [s.cp_id for s in plan.stops] == ["s1", "s2"]
    assert plan.stops[1].charge_start_h == 2.5
    twin = plan_route(req, net, led, CFG, exclude=frozenset({"s1"}))
    assert [s.cp_id for s in twin.stops] == ["s1+r1", "s2"]
    assert twin.arrival_h == plan.arrival_h
    best = enumerate_best(req, net, led, CFG)
    assert (plan.arrival_h, tuple(s.cp_id for s in plan.stops)) == (best[0], best[2])


def test_determinism():
    rng = np.random.default_rng(np.random.SeedSequence(2024))
    req, net, led, cfg = random_router_instance(rng)
    a = plan_route(req, net, led, cfg)
    b = plan_route(req, net, led, cfg)
    assert a == b


def test_matches_exhaustive_enumeration():
    # spot sample here; the acceptance suite runs the full thousand
    rng = np.random.default_rng(np.random.SeedSequence(13579))
    routed = 0
    for _ in range(60):
        req, net, led, cfg = random_router_instance(rng)
        plan = plan_route(req, net, led, cfg)
        best = enumerate_best(req, net, led, cfg)
        if isinstance(plan, Unroutable):
            assert best is None
            continue
        routed += 1
        assert plan.arrival_h == best[0]
        assert tuple(s.cp_id for s in plan.stops) == best[2]
        unpruned = plan_route(req, net, led, dataclasses.replace(cfg, prune=False))
        assert unpruned == plan
    assert routed > 10  # the mix must actually exercise routed cases


def test_matches_exhaustive_enumeration_with_colocated_twins():
    # a twin beside every point gives zero-length legs and exact arrival
    # ties between a point and its twin, which the dominance rule decides
    # by stop count and stop ids; half the cases replay a fault (reduced
    # charge, reserve spent, one point down, own bookings ignored)
    rng = np.random.default_rng(np.random.SeedSequence(24680))
    routed = 0
    for i in range(200):
        req, net, led, cfg = random_router_instance(rng, max_points=3)
        net = add_colocated_redundancy(net, [p.id for p in net.points])
        kwargs = {}
        if i % 2:
            kwargs = dict(
                initial_soc=float(rng.uniform(0.3, 1.0)),
                reserve_floor=0.0,
                exclude=frozenset({net.points[0].id}),
                ignore_ev=10_000 + int(rng.integers(0, 100)),
            )
        plan = plan_route(req, net, led, cfg, **kwargs)
        best = enumerate_best(req, net, led, cfg, **kwargs)
        if isinstance(plan, Unroutable):
            assert best is None
            continue
        routed += 1
        assert plan.arrival_h == best[0]
        assert tuple(s.cp_id for s in plan.stops) == best[2]
        unpruned = plan_route(req, net, led, dataclasses.replace(cfg, prune=False), **kwargs)
        assert unpruned == plan
    assert routed > 50


def test_goal_directed_search_matches_unpruned_on_wider_instances():
    # up to twelve points, so the A* bound cuts labels and ends searches
    # early; the unpruned search (no cut, no stop) is the reference
    rng = np.random.default_rng(np.random.SeedSequence(97531))
    routed = 0
    for i in range(300):
        req, net, led, cfg = random_router_instance(rng, max_points=12)
        kwargs = {}
        if i % 2:
            kwargs = dict(
                initial_soc=float(rng.uniform(0.3, 1.0)),
                reserve_floor=0.0,
                exclude=frozenset(p.id for p in net.points if rng.random() < 0.2),
                ignore_ev=10_000 + int(rng.integers(0, 100)),
            )
        plan = plan_route(req, net, led, cfg, **kwargs)
        unpruned = plan_route(req, net, led, dataclasses.replace(cfg, prune=False), **kwargs)
        assert plan == unpruned
        routed += isinstance(plan, RoutePlan) and len(plan.stops) >= 2
    assert routed > 50


def test_collinear_tie_breaks_toward_smaller_stop_ids(monkeypatch):
    # on a straight corridor with equal chargers, every stop sequence with
    # no wait charges exactly the energy driven beyond the first charge, so
    # (b, d, c) and (a, d, c) arrive at the same instant; the A* stop must
    # not end the search before the smaller ids are popped
    anchor = GeoPoint(0.0, 30.0)
    req = TripRequest(7, anchor, offset_km(anchor, 140.0, 0.0))
    net = ChargeNetwork(
        [
            ChargePoint(cp_id, offset_km(anchor, east, 0.0), "DC", 50.0)
            for cp_id, east in [("b", 20.0), ("a", 25.0), ("d", 75.0), ("c", 85.0)]
        ]
    )
    led = ReservationLedger()
    plan = plan_route(req, net, led, CFG)
    assert [s.cp_id for s in plan.stops] == ["a", "d", "c"]
    rival = plan_route(req, net, led, CFG, exclude=frozenset({"a"}))
    assert [s.cp_id for s in rival.stops] == ["b", "d", "c"]
    assert rival.arrival_h == plan.arrival_h
    best = enumerate_best(req, net, led, CFG)
    assert (plan.arrival_h, tuple(s.cp_id for s in plan.stops)) == (best[0], best[2])
    unpruned = plan_route(req, net, led, dataclasses.replace(CFG, prune=False))
    assert unpruned == plan
    # the sixth pop finds (a, d, c) and the seventh proves the tie; the
    # budget bounds only the search for a first arrival, so six suffice
    monkeypatch.setattr(router, "MAX_LABELS", 6)
    assert plan_route(req, net, led, CFG) == plan


def test_random_collinear_ties_match_enumeration_and_unpruned():
    # on a straight road every sequence with the same last stop ties, so the
    # search must go on popping labels whose bound equals the best arrival;
    # a bound that overestimates ends it at the first arrival it finds,
    # which the tie-break need not prefer
    rng = np.random.default_rng(np.random.SeedSequence(86420))
    multi = 0
    for _ in range(300):
        req, net = random_corridor_instance(rng)
        led = ReservationLedger()
        plan = plan_route(req, net, led, CFG)
        assert plan == plan_route(req, net, led, dataclasses.replace(CFG, prune=False))
        best = enumerate_best(req, net, led, CFG)
        if isinstance(plan, Unroutable):
            assert best is None
            continue
        assert (plan.arrival_h, tuple(s.cp_id for s in plan.stops)) == (best[0], best[2])
        multi += len(plan.stops) >= 2
    assert multi > 50


def test_label_budget_reason(monkeypatch):
    req, net = corridor_fixture()
    monkeypatch.setattr(router, "MAX_LABELS", 2)
    out = plan_route(req, net, ReservationLedger(), CFG)
    assert isinstance(out, Unroutable)
    assert out.reason == "label budget exhausted at 2 labels"
    assert out.direct_km == pytest.approx(150.0, rel=1e-9)
    # the corridor plan pops origin, s1 and s2 labels: three fit the budget
    monkeypatch.setattr(router, "MAX_LABELS", 3)
    plan = plan_route(req, net, ReservationLedger(), CFG)
    assert [s.cp_id for s in plan.stops] == ["s1", "s2"]


class CountingLedger(ReservationLedger):
    """A ledger that records the point of every earliest_slot call."""

    def __init__(self):
        super().__init__()
        self.probed = []

    def earliest_slot(self, cp_id, *args):
        self.probed.append(cp_id)
        return super().earliest_slot(cp_id, *args)


def test_charge_bound_and_incumbent_cut_ledger_probes():
    # the corridor plus three slow AC points behind a ten-hour queue. From
    # s1 the neighbours come in distance order s2, y, w, x. Pushing s2 gives
    # a label that can finish directly, so its arrival (2.13 h) becomes the
    # incumbent bound before any arrival pops: y, behind the origin, and x,
    # far off the corridor, then fail the straight-line bound against it.
    # w, near s2, passes the straight-line bound (1.88 h) but arrives with
    # 0.23 charge, and the charge it still needs to reach the destination
    # takes at least 0.27 h at the fastest rate, so the charge term cuts it.
    # A search without these cuts probes y, w and x from s1 as well.
    req, net = corridor_fixture()
    anchor = req.origin
    net = ChargeNetwork(net.points + [
        ChargePoint(cp_id, offset_km(anchor, east, north), "AC", 7.0)
        for cp_id, east, north in [("x", 80.0, 46.0), ("y", 15.0, -40.0), ("w", 102.0, 12.0)]
    ])
    led = CountingLedger()
    for cp_id in ("x", "y", "w"):
        led.commit(Booking(cp_id, 99, 0.0, 10.0))
    plan = plan_route(req, net, led, CFG)
    assert led.probed == ["y", "s1", "s2"]
    assert [s.cp_id for s in plan.stops] == ["s1", "s2"]
    assert plan == plan_route(req, net, led, dataclasses.replace(CFG, prune=False))
    best = enumerate_best(req, net, led, CFG)
    assert (plan.arrival_h, tuple(s.cp_id for s in plan.stops)) == (best[0], best[2])


def test_label_budget_counts_stale_labels(monkeypatch):
    # the search pops the origin, d, b and (b, a), then (d, a), which
    # (b, a) dominated after it was pushed: it departs a no later, with as
    # much charge and smaller stop ids. (d, a) is skipped but still counts
    # against the budget, so the first arrival, (b, a, c), is the sixth pop
    anchor = GeoPoint(0.0, 30.0)
    net = ChargeNetwork([
        ChargePoint(cp_id, offset_km(anchor, east, north), "DC", 50.0)
        for cp_id, east, north in [("a", 90.0, -5.0), ("b", 60.0, -10.0), ("c", 130.0, 5.0), ("d", 70.0, 10.0)]
    ])
    req = TripRequest(1, anchor, offset_km(anchor, 150.0, 0.0))
    led = ReservationLedger()
    plan = plan_route(req, net, led, CFG)
    assert [s.cp_id for s in plan.stops] == ["b", "a", "c"]
    assert plan == plan_route(req, net, led, dataclasses.replace(CFG, prune=False))
    best = enumerate_best(req, net, led, CFG)
    assert (plan.arrival_h, tuple(s.cp_id for s in plan.stops)) == (best[0], best[2])
    monkeypatch.setattr(router, "MAX_LABELS", 5)
    out = plan_route(req, net, led, CFG)
    assert isinstance(out, Unroutable)
    assert out.reason == "label budget exhausted at 5 labels"
    monkeypatch.setattr(router, "MAX_LABELS", 6)
    assert plan_route(req, net, led, CFG) == plan


def test_seventy_stops_on_the_equator():
    # 70 DC points 50 km apart and a 3540 km trip: each leg reaches only the
    # next point, so the plan stops at every one of them; no stop budget
    # cuts a long trip short, and the label chain gives legs and stops in
    # travel order
    anchor = GeoPoint(0.0, 0.0)
    ids = [f"p{i:02d}" for i in range(1, 71)]
    net = ChargeNetwork(
        [ChargePoint(cp_id, offset_km(anchor, 50.0 * i, 0.0), "DC", 50.0)
         for i, cp_id in enumerate(ids, 1)]
    )
    req = TripRequest(1, anchor, offset_km(anchor, 3540.0, 0.0))
    plan = plan_route(req, net, ReservationLedger(), CFG)
    assert isinstance(plan, RoutePlan)
    assert [s.cp_id for s in plan.stops] == ids
    assert plan == plan_route(req, net, ReservationLedger(), dataclasses.replace(CFG, prune=False))
    assert plan.legs[0].start == req.origin
    assert plan.legs[-1].end == req.destination
    for a, b in zip(plan.legs, plan.legs[1:]):
        assert a.end == b.start
    for leg, stop in zip(plan.legs, plan.stops):
        assert leg.end == net.by_id[stop.cp_id].location
    assert plan.route_km == pytest.approx(3540.0, rel=1e-9)


def test_average_trip_speed_zero_guard():
    anchor = GeoPoint(0.0, 30.0)
    req = TripRequest(1, anchor, anchor)
    plan = plan_route(req, ChargeNetwork([]), ReservationLedger(), CFG)
    assert plan.total_time_h == 0.0
    assert average_trip_speed(plan) == 0.0


def test_router_config_validation():
    message = r"unknown mode 'psychic'; expected one of \('aware', 'blind'\)"
    with pytest.raises(ValueError, match=message):
        RouterConfig(ev=EV, mode="psychic")
