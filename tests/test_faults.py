import dataclasses
import math

import numpy as np
import pytest

from chargesim import faults
from chargesim.ev import EvParams, soc_drop
from chargesim.geo import GeoPoint, distance_km, offset_km
from chargesim.network import ChargeNetwork, ChargePoint, add_colocated_redundancy
from chargesim.reservations import ReservationLedger
from chargesim.router import (
    AWARE, BLIND, RoutePlan, RouterConfig, TripRequest, Unroutable, commit_route, plan_route,
    span_km,
)
from chargesim.stats import wilson_interval
from chargesim.faults import (
    COMPLETED,
    REROUTED,
    STRANDED,
    estimate_ps_first_order,
    finishing_path,
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
    mask_major_sweep,
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


def _reaches(path, start, soc, destination, net, ev):
    """Whether driving start -> path -> destination at floor 0 keeps every
    leg within the charge it starts on, by the router's leg arithmetic."""
    target = ev.charge_target_soc
    loc = start
    for pid in path:
        d = distance_km(loc, net.by_id[pid].location)
        if d > span_km(ev, soc, 0.0):
            return False
        soc_in = soc - soc_drop(ev, d)
        soc, loc = (soc_in if soc_in >= target else target), net.by_id[pid].location
    return distance_km(loc, destination) <= span_km(ev, soc, 0.0)


def test_can_finish_matches_router_and_enumeration():
    # finishing_path finds a path exactly when the router, with the replay
    # keywords, finds a plan, and when the exhaustive oracle does on
    # instances of up to six points; every path it returns avoids the mask
    # and reaches the destination. Half the cases carry a colocated twin
    # per point, and a tenth of the points are out of service, which puts
    # them in the mask besides the faulted ones. Every third case sets the
    # range so that one leg is exactly the span of a full charge (range =
    # leg, route scale 1, charge target 1): the longer leg of origin -> p ->
    # destination, or on every sixth case the direct leg with every point
    # down
    rng = np.random.default_rng(np.random.SeedSequence(11235))
    verdicts = {True: 0, False: 0}
    ties = stops = 0
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
        path = finishing_path(req.origin, soc, req.destination, net, cfg.ev, mask, {})
        verdict = path is not None
        kwargs = dict(initial_soc=soc, reserve_floor=0.0, exclude=mask, ignore_ev=req.ev_id)
        assert verdict == isinstance(plan_route(req, net, led, cfg, **kwargs), RoutePlan)
        if not big:
            assert verdict == (enumerate_best(req, net, led, cfg, **kwargs) is not None)
        if verdict:
            assert not mask & set(path)
            assert _reaches(path, req.origin, soc, req.destination, net, cfg.ev)
            stops += len(path) > 0
        verdicts[verdict] += 1
        ties += i % 3 == 0 and verdict
    assert min(verdicts.values()) > 60 and ties > 20 and stops > 30


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


def _random_fault_instance(rng: np.random.Generator):
    """A committed route set on a random sparse network: 6 to 24 points in
    a 160 x 100 km box and 20 to 50 trips inside it, so that plans make
    zero to three stops and some trips are unroutable. Half the instances
    give a random half of the points a colocated twin before planning, as
    --add-redundancy does. Returns (plans, unroutable, net, ledger, cfg)."""
    anchor = GeoPoint(float(rng.uniform(-50.0, 50.0)), float(rng.uniform(-170.0, 170.0)))

    def somewhere():
        return offset_km(anchor, float(rng.uniform(0.0, 160.0)), float(rng.uniform(0.0, 100.0)))

    net = ChargeNetwork([
        ChargePoint(f"p{i}", somewhere(), str(rng.choice(["DC", "AC"])),
                    float(rng.choice([50.0, 22.0, 11.0])))
        for i in range(int(rng.integers(6, 25)))
    ])
    if rng.random() < 0.5:
        net = add_colocated_redundancy(net, [p.id for p in net.points if rng.random() < 0.5])
    cfg = RouterConfig(ev=EvParams(), mode=AWARE if rng.random() < 0.7 else BLIND)
    ledger = ReservationLedger()
    plans, unroutable = [], 0
    for ev in range(int(rng.integers(20, 51))):
        req = TripRequest(ev, somewhere(), somewhere(), depart_h=float(rng.uniform(0.0, 3.0)))
        plan = plan_route(req, net, ledger, cfg)
        if isinstance(plan, Unroutable):
            unroutable += 1
        else:
            plans.append(commit_route(plan, ledger, cfg))
    return plans, unroutable, net, ledger, cfg


@pytest.mark.parametrize("seed", range(12))
def test_sweep_matches_the_mask_major_oracle(seed, monkeypatch):
    # plan by plan with finishing paths reused, the sweep writes the rows
    # of the loop that replays every hit plan of every mask with a fresh
    # search; p_f 0 and 1 and a duplicate are in every grid, and blocks as
    # small as one mask make the masks cross block boundaries. Each
    # stranding asks the router once, and the router answers unroutable
    rng = np.random.default_rng([seed, 29])
    plans, unroutable, net, ledger, cfg = _random_fault_instance(rng)
    grid = [0.0, 1.0, *(float(x) for x in rng.uniform(0.02, 0.6, 3))]
    grid.append(grid[int(rng.integers(len(grid)))])
    n_masks = int(rng.integers(5, 40))
    monkeypatch.setattr(faults, "MASK_BLOCK", int(rng.choice([1, 3, 7, 512])))
    replans = []
    real = faults.plan_route

    def plan_route_counted(*args, **kwargs):
        replans.append(real(*args, **kwargs))
        return replans[-1]

    monkeypatch.setattr(faults, "plan_route", plan_route_counted)
    rows = run_fault_sweep(plans, unroutable, net, ledger, cfg, grid, n_masks, seed)
    monkeypatch.setattr(faults, "plan_route", real)
    assert rows == mask_major_sweep(plans, unroutable, net, ledger, cfg, grid, n_masks, seed)
    assert all(isinstance(r, Unroutable) for r in replans)
    assert len(replans) == sum(r.stranded for r in rows)
    assert [r.p_f for r in rows] == sorted(set(grid))
    assert rows[0].stranded == 0


def test_sweep_crosses_the_mask_block(net, planned):
    # at the module's own block size, a mask count past one block sweeps
    # as the oracle does
    plans, unroutable = planned
    grid = [0.05, 0.3]
    n_masks = faults.MASK_BLOCK + 7
    rows = run_fault_sweep(plans, unroutable, net, ReservationLedger(), CFG, grid, n_masks, 5)
    assert rows == mask_major_sweep(plans, unroutable, net, ReservationLedger(), CFG, grid,
                                    n_masks, 5)
    assert rows[-1].stranded > 0


def test_sweep_masks_are_sample_fault_masks(net):
    # the sweep's uniforms give, mask by mask, the down-sets that
    # sample_fault_masks draws from the same generator
    ids = sorted(net.by_id)
    grid = [0.0, 0.1, 0.5, 1.0]
    u = faults._mask_uniforms(len(ids), 17, range(3, 30))
    for row, m in zip(u, range(3, 30)):
        rng = np.random.default_rng(np.random.SeedSequence(17, spawn_key=(m,)))
        down = [frozenset(pid for pid, x in zip(ids, row.tolist()) if x < p_f) for p_f in grid]
        assert down == sample_fault_masks(net, grid, rng)


def test_mask_uniforms_match_numpy_streams():
    # the masks seeded together draw numpy's per-mask streams bit for bit:
    # seeds of one to five uint32 words, mask ranges from 0, across a block
    # and across 2**32, where the spawn key takes a second word, and rows of
    # every width the sweep meets
    block = faults.MASK_BLOCK
    for seed in (0, 1, 2**32 - 1, 2**32, 2**64 + 7, 2**130 + 3):
        for masks in (range(0, 6), range(block - 3, block + 3), range(2**32 - 3, 2**32 + 3)):
            for n in (0, 1, 30, 708):
                want = np.empty((len(masks), n))
                for row, m in zip(want, masks):
                    ss = np.random.SeedSequence(seed, spawn_key=(m,))
                    row[:] = np.random.default_rng(ss).random(n)
                assert np.array_equal(faults._mask_uniforms(n, seed, masks), want), (seed, masks, n)
