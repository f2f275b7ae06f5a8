import dataclasses
import math

import numpy as np
import pytest

from chargesim.ev import EvParams
from chargesim.geo import distance_km
from chargesim.network import add_colocated_redundancy
from chargesim.reservations import ReservationLedger
from chargesim.router import AWARE, RoutePlan, RouterConfig, TripRequest, plan_route
from chargesim.stats import wilson_interval
from chargesim.faults import (
    COMPLETED,
    REROUTED,
    STRANDED,
    can_finish,
    estimate_ps_first_order,
    replay_trip,
    SweepRow,
    run_fault_sweep,
    sample_fault_masks,
)

from helpers import (
    FAULT_ISOLATION_RADIUS_KM,
    enumerate_best,
    fault_network,
    fault_trip_rows,
    plan_fault_trips,
    random_router_instance,
)

CFG = RouterConfig(ev=EvParams(), mode=AWARE)


@pytest.fixture(scope="module")
def net():
    return fault_network()


@pytest.fixture(scope="module")
def planned(net):
    return plan_fault_trips(net, CFG)


def test_fixture_geometry(net):
    # exactly the two far points are isolated at the emergency radius
    assert [p.id for p in net.isolated_points(FAULT_ISOLATION_RADIUS_KM)] == ["i0", "i23"]
    assert len(net) == 14


def test_fixture_canonical_plans(net, planned):
    plans, unroutable = planned
    assert unroutable == 0
    assert len(plans) == 70
    by_cp = {}
    for plan, (_, _, _, want_cp) in zip(
        plans, (r for r in fault_trip_rows() for _ in range(r[2]))
    ):
        assert plan.needed_charge
        assert len(plan.stops) == 1
        assert plan.stops[0].cp_id == want_cp
        by_cp[want_cp] = by_cp.get(want_cp, 0) + 1
    assert by_cp["i0"] == 5 and by_cp["i23"] == 5


def test_mask_edge_probabilities(net):
    rng = np.random.default_rng(0)
    assert sample_fault_masks(net, [0.0], rng) == [frozenset()]
    assert sample_fault_masks(net, [1.0], rng) == [frozenset(net.by_id)]
    # one uniform per point serves every p_f, so the masks nest
    masks = sample_fault_masks(net, [0.0, 0.2, 0.5, 0.8, 1.0], rng)
    assert all(a <= b for a, b in zip(masks, masks[1:]))


def test_mask_binomial_band(net):
    rng = np.random.default_rng(np.random.SeedSequence(404))
    p = 0.3
    n_draws = 2000
    total = sum(len(sample_fault_masks(net, [p], rng)[0]) for _ in range(n_draws))
    n = n_draws * len(net)
    sigma = math.sqrt(p * (1 - p) / n)
    assert abs(total / n - p) < 3.0 * sigma


def test_replay_completed(net, planned):
    plans, _ = planned
    out = replay_trip(plans[0], frozenset({"b1"}), net, ReservationLedger(), CFG)
    assert out == COMPLETED


def _replan(plan, mask, net):
    """plan_route with the keywords a stranded replay passes it."""
    stop = next(s for s in plan.stops if s.cp_id in mask)
    req = TripRequest(plan.ev_id, net.by_id[stop.cp_id].location, plan.destination,
                      depart_h=stop.arrival_h)
    return plan_route(req, net, ReservationLedger(), CFG, initial_soc=stop.soc_in,
                      reserve_floor=0.0, exclude=mask, ignore_ev=plan.ev_id)


def test_replay_rerouted_within_cluster(net, planned):
    plans, _ = planned
    # first trip charges at c0; with c0 down it diverts to a neighbour
    out = replay_trip(plans[0], frozenset({"c0"}), net, ReservationLedger(), CFG)
    assert out == REROUTED
    replan = _replan(plans[0], frozenset({"c0"}), net)
    assert isinstance(replan, RoutePlan)
    assert replan.arrival_h > plans[0].arrival_h


def test_replay_stranded_at_isolated_point(net, planned):
    plans, _ = planned
    iso_plan = next(p for p in plans if p.stops[0].cp_id == "i0")
    out = replay_trip(iso_plan, frozenset({"i0"}), net, ReservationLedger(), CFG)
    assert out == STRANDED


def test_replay_zero_extra_time_with_colocated_twin(net, planned):
    plans, _ = planned
    grown = add_colocated_redundancy(net, ["i0"])
    iso_plan = next(p for p in plans if p.stops[0].cp_id == "i0")
    out = replay_trip(iso_plan, frozenset({"i0"}), grown, ReservationLedger(), CFG)
    assert out == REROUTED
    # the twin shares the location, so the reroute costs nothing
    replan = _replan(iso_plan, frozenset({"i0"}), grown)
    assert isinstance(replan, RoutePlan)
    assert replan.arrival_h == pytest.approx(iso_plan.arrival_h, abs=1e-12)


def test_can_finish_matches_router_and_enumeration():
    # the verdict must equal the router's with the replay keywords, and the
    # exhaustive oracle's on instances of up to six points. Half the cases
    # carry a colocated twin per point, and a tenth of the points are out of
    # service, which puts them in the mask besides the faulted ones. Every
    # third case sets the range so that one leg is exactly the span of a
    # full charge (range = leg, route scale 1, charge target 1): the longer
    # leg of origin -> p -> destination, or on every sixth case the direct
    # leg with every point down
    rng = np.random.default_rng(np.random.SeedSequence(11235))
    verdicts = {True: 0, False: 0}
    ties = 0
    for i in range(360):
        big = i % 4 == 3
        req, net, led, cfg = random_router_instance(rng, max_points=12 if big else 3 if i % 2 else 6)
        if i % 2:
            net = add_colocated_redundancy(net, [p.id for p in net.points])
        down = frozenset(p.id for p in net.points if rng.random() < 0.1)
        soc = float(rng.uniform(0.05, 1.0))
        mask = down | frozenset(p.id for p in net.points if rng.random() < 0.3)
        if i % 3 == 0:
            p = net.points[int(rng.integers(len(net.points)))]
            leg = max(distance_km(req.origin, p.location), distance_km(p.location, req.destination))
            if i % 6 == 0:
                leg, mask = distance_km(req.origin, req.destination), frozenset(net.by_id)
            cfg = dataclasses.replace(cfg, ev=EvParams(
                max_range_km=leg, route_scale=1.0, charge_target_soc=1.0))
            soc = 1.0
        verdict = can_finish(req.origin, soc, req.destination, net, cfg.ev, mask, {})
        kwargs = dict(initial_soc=soc, reserve_floor=0.0, exclude=mask, ignore_ev=req.ev_id)
        assert verdict == isinstance(plan_route(req, net, led, cfg, **kwargs), RoutePlan)
        if not big:
            assert verdict == (enumerate_best(req, net, led, cfg, **kwargs) is not None)
        verdicts[verdict] += 1
        ties += i % 3 == 0 and verdict
    assert min(verdicts.values()) > 60 and ties > 20


def test_replay_leaves_ledger_untouched(net, planned):
    plans, _ = planned
    led = ReservationLedger()
    for mask in (frozenset({"c0"}), frozenset({"i0"}), frozenset({"b1", "c3"})):
        for p in plans[:10]:
            replay_trip(p, mask, net, led, CFG)
    assert len(led) == 0


def test_first_order_estimate():
    got = estimate_ps_first_order(0.02, 0.1, 3, 708)
    assert got == pytest.approx(8.47457627118644e-06, rel=1e-12)
    assert estimate_ps_first_order(0.5, 0.1, 0, 100) == 0.0
    assert estimate_ps_first_order(0.5, 0.0, 3, 100) == 0.0
    assert estimate_ps_first_order(0.5, 0.1, 3, 0) == 0.0


def test_sweep_zero_fault_probability(net, planned):
    plans, unroutable = planned
    rows = run_fault_sweep(
        plans, unroutable, net, ReservationLedger(), CFG, [0.0], n_masks=5, seed=1
    )
    assert len(rows) == 1
    assert rows[0].stranded == 0
    assert rows[0].p_s == 0.0
    assert rows[0].trips == 70 * 5


def test_sweep_row_bookkeeping(net, planned):
    plans, unroutable = planned
    rows = run_fault_sweep(
        plans, unroutable, net, ReservationLedger(), CFG, [0.05, 0.01], n_masks=20, seed=3
    )
    assert [r.p_f for r in rows] == [0.01, 0.05]  # sorted, deduplicated
    for r in rows:
        assert r.trips == 70 * 20
        assert r.needed_charge == 70 * 20
        assert r.unroutable == 0
        assert 0 <= r.stranded <= r.needed_charge
        assert r.p_s == r.stranded / r.trips
        assert 0.0 <= r.ci_low <= r.p_s <= r.ci_high <= 1.0


def test_sweep_monotone_in_fault_probability(net, planned):
    # common random numbers make the curve exactly monotone, mask by mask
    plans, unroutable = planned
    rows = run_fault_sweep(
        plans, unroutable, net, ReservationLedger(), CFG,
        [0.02, 0.1, 0.3, 0.6], n_masks=30, seed=9,
    )
    strandings = [r.stranded for r in rows]
    assert strandings == sorted(strandings)
    assert strandings[-1] > 0


def test_sweep_row_merge_sums_counts():
    a = SweepRow(p_f=0.1, trips=400, needed_charge=30, stranded=3, unroutable=2)
    b = SweepRow(p_f=0.1, trips=250, needed_charge=21, stranded=5, unroutable=1)
    m = a.merge(b)
    assert m == SweepRow(p_f=0.1, trips=650, needed_charge=51, stranded=8, unroutable=3)
    assert m.p_s == 8 / 650
    assert (m.ci_low, m.ci_high) == wilson_interval(8, 650)
    with pytest.raises(ValueError, match="p_f"):
        a.merge(SweepRow(p_f=0.2, trips=1, needed_charge=0, stranded=0, unroutable=0))
