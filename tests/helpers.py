"""Shared fixtures and independent oracles for the test suite.

The oracles recompute results by a different algorithm than the production
code (exhaustive enumeration instead of label-setting search, lattice scan
instead of sorted-gap walk, even-grid Simpson instead of the log-knot
table, mask by mask with a fresh search per replay instead of plan by plan
with finishing paths reused, a haversine over every cell instead of the
tile index's candidate rings, csv and float() row by row instead of one
np.loadtxt call), so agreement is evidence and not tautology. Fixture
builders are anchored at the equator where eastward kilometre offsets
reproduce haversine distances to machine precision, which keeps hand-built
geometry exact.
"""

from __future__ import annotations

import csv
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import chargesim
from chargesim.errors import DataError
from chargesim.ev import EvParams, charge_duration_h, effective_charge_kw, soc_drop
from chargesim.faults import STRANDED, SweepRow, replay_trip, sample_fault_masks
from chargesim.geo import GeoPoint, distance_km, offset_km
from chargesim.network import ChargeNetwork, ChargePoint
from chargesim.population import RING_HALF_WIDTHS, PopulationGrid
from chargesim.reservations import Booking, ReservationLedger
from chargesim.router import (
    AWARE,
    BLIND,
    RouterConfig,
    TripRequest,
    Unroutable,
    plan_route,
)
from chargesim.triplength import TripLengthDistribution

MIN_H = 1.0 / 60.0


# ---------------------------------------------------------------------------
# route oracle: plain enumeration of every ordered stop subset


def enumerate_best(
    req: TripRequest,
    net: ChargeNetwork,
    ledger: ReservationLedger,
    cfg: RouterConfig,
    *,
    initial_soc: float = 1.0,
    reserve_floor: float | None = None,
    exclude: frozenset[str] = frozenset(),
    ignore_ev: int | None = None,
):
    """Best (arrival_h, n_stops, stop id tuple) over all stop sequences.

    Exponential in the point count; intended for networks of at most six
    points. Returns None when no sequence reaches the destination. Leg and
    charge arithmetic mirrors the planner's operation order so agreement
    can be asserted exactly, while the search itself shares nothing with
    the planner's queue, pruning or dominance logic.
    """
    ev = cfg.ev
    floor = ev.reserve_soc if reserve_floor is None else reserve_floor

    def span(soc: float) -> float:
        return max(0.0, soc - floor) * ev.max_range_km * ev.route_scale

    usable = [p for p in net.points if p.id not in exclude]
    best = None

    def extend(loc, soc, dep, seq):
        nonlocal best
        d = distance_km(loc, req.destination)
        if d <= span(soc):
            cand = (dep + d / ev.speed_kph, len(seq), seq)
            if best is None or cand < best:
                best = cand
        for p in usable:
            if p.id in seq:
                continue
            d = distance_km(loc, p.location)
            if d > span(soc):
                continue
            arr = dep + d / ev.speed_kph
            soc_in = soc - soc_drop(ev, d)
            if soc_in >= ev.charge_target_soc:
                duration = 0.0
                slot = arr
                soc_out = soc_in
            else:
                duration = charge_duration_h(
                    ev,
                    soc_in,
                    ev.charge_target_soc,
                    effective_charge_kw(ev, p.kind, p.power_kw),
                )
                if cfg.mode == AWARE:
                    slot = ledger.earliest_slot(p.id, arr, duration, ignore_ev)
                else:
                    slot = arr
                soc_out = ev.charge_target_soc
            extend(p.location, soc_out, slot + duration, seq + (p.id,))

    extend(req.origin, initial_soc, req.depart_h, ())
    return best


def random_router_instance(rng: np.random.Generator, max_points: int = 6):
    """A random small planning problem with a non-empty prior ledger.

    Charge points (one to max_points of them) are biased toward the
    origin-destination corridor so the mix covers zero-stop, deep
    multi-stop and unroutable cases.
    """
    anchor = GeoPoint(float(rng.uniform(-60.0, 60.0)), float(rng.uniform(-170.0, 170.0)))
    trip_east = float(rng.uniform(30.0, 200.0))
    n_cp = int(rng.integers(1, max_points + 1))
    pts = []
    for i in range(n_cp):
        if rng.random() < 0.75:
            frac = (i + 1 + float(rng.uniform(-0.4, 0.4))) / (n_cp + 1)
            e = trip_east * frac
            n = float(rng.uniform(-18.0, 18.0))
        else:
            e = float(rng.uniform(-20.0, trip_east + 20.0))
            n = float(rng.uniform(-60.0, 60.0))
        kind = "DC" if rng.random() < 0.5 else "AC"
        power = float(rng.choice([50.0, 22.0, 11.0]))
        pts.append(ChargePoint(f"p{i}", offset_km(anchor, e, n), kind, power))
    net = ChargeNetwork(pts)
    ledger = ReservationLedger()
    for p in pts:
        t = 0.0
        for _ in range(int(rng.integers(0, 4))):
            t += float(rng.uniform(0.0, 1.0))
            dur = float(rng.uniform(0.1, 0.8))
            # booking ev ids live in 10000+ so they never collide with trips
            ledger.commit(Booking(p.id, 10_000 + int(rng.integers(0, 100)), t, t + dur))
            t += dur
    origin = offset_km(anchor, float(rng.uniform(-8.0, 8.0)), float(rng.uniform(-8.0, 8.0)))
    dest = offset_km(
        anchor, trip_east + float(rng.uniform(-8.0, 8.0)), float(rng.uniform(-8.0, 8.0))
    )
    req = TripRequest(ev_id=int(rng.integers(0, 1000)), origin=origin, destination=dest)
    mode = AWARE if rng.random() < 0.7 else BLIND
    cfg = RouterConfig(ev=EvParams(), mode=mode)
    return req, net, ledger, cfg


def random_corridor_instance(rng: np.random.Generator, max_points: int = 6):
    """A random straight equatorial road with equal DC chargers on it.

    With equal chargers and no queue, a sequence that charges at every stop
    arrives at a time set by its last stop alone, so sequences that share a
    last stop tie in exact arithmetic and agree to rounding in floats.
    Twins at one position add exact ties between last stops, and positions
    a micrometre to a hundred metres apart add near ties. Ids are shuffled
    against positions, so the tie-break is not the order of travel.
    """
    anchor = GeoPoint(0.0, float(rng.uniform(-170.0, 170.0)))
    trip_km = float(rng.uniform(80.0, 200.0))
    n_cp = int(rng.integers(2, max_points + 1))
    n_spread = int(rng.integers(1, n_cp + 1))
    east = [
        trip_km * (i + 1 + float(rng.uniform(-0.4, 0.4))) / (n_spread + 1)
        for i in range(n_spread)
    ]
    while len(east) < n_cp:
        near = east[int(rng.integers(len(east)))]
        east.append(near if rng.random() < 0.5 else near + 10.0 ** float(rng.uniform(-9.0, -1.0)))
    ids = [f"p{i}" for i in rng.permutation(n_cp)]
    net = ChargeNetwork(
        [ChargePoint(i, offset_km(anchor, e, 0.0), "DC", 50.0) for i, e in zip(ids, east)]
    )
    req = TripRequest(int(rng.integers(0, 1000)), anchor, offset_km(anchor, trip_km, 0.0))
    return req, net


# ---------------------------------------------------------------------------
# ledger oracle: scan minute by minute


def minute_scan_slot(bookings, not_before_h: float, duration_h: float, max_minutes: int = 100_000) -> float:
    """First minute-lattice start at or after not_before_h whose interval
    overlaps no booking. Exact only when all times sit on the lattice."""
    k0 = int(round(not_before_h / MIN_H))
    for k in range(k0, k0 + max_minutes):
        s = k * MIN_H
        e = s + duration_h
        if all(e <= b.start_h or b.end_h <= s for b in bookings):
            return s
    raise AssertionError("no slot found inside the scan horizon")


def random_lattice_ledger(rng: np.random.Generator, cp_id: str = "cp") -> ReservationLedger:
    """A ledger whose bookings all start and end on whole minutes."""
    led = ReservationLedger()
    t = 0
    for _ in range(int(rng.integers(0, 10))):
        t += int(rng.integers(0, 90))
        dur = int(rng.integers(1, 120))
        led.commit(Booking(cp_id, int(rng.integers(0, 50)), t * MIN_H, (t + dur) * MIN_H))
        t += dur
    return led


# ---------------------------------------------------------------------------
# fault geometry: ten clustered corridors, two isolated ones

FAULT_ANCHOR = GeoPoint(0.0, 7.0)
FAULT_ISOLATION_RADIUS_KM = 18.7  # reserve 0.2 of scaled range


def fault_network() -> ChargeNetwork:
    """Fourteen DC points: a ten-point cluster (8 km pitch, everyone has
    in-range neighbours), two isolated points 23 km apart (outside each
    other's 18.7 km emergency reach), and a two-point buddy pair."""
    pts = []
    for i in range(10):
        y = 200.0 + 8.0 * i
        pts.append(ChargePoint(f"c{i}", offset_km(FAULT_ANCHOR, 66.5, y), "DC", 50.0))
    pts.append(ChargePoint("i0", offset_km(FAULT_ANCHOR, 74.0, 0.0), "DC", 50.0))
    pts.append(ChargePoint("i23", offset_km(FAULT_ANCHOR, 74.0, 23.0), "DC", 50.0))
    pts.append(ChargePoint("b1", offset_km(FAULT_ANCHOR, 26.0, 10.0), "DC", 50.0))
    pts.append(ChargePoint("b2", offset_km(FAULT_ANCHOR, 26.0, 13.0), "DC", 50.0))
    return ChargeNetwork(pts)


def fault_trip_rows():
    """(origin, destination, weight, expected stop id) rows.

    Every trip needs exactly one charge and its nearest viable point is the
    named one, so canonical plans are single-stop. Weights make isolated
    stops carry 10 of 70 trips: a one-in-seven stranding share when an
    isolated point fails.
    """
    rows = []
    for i in range(10):
        y = 200.0 + 8.0 * i
        rows.append(
            (offset_km(FAULT_ANCHOR, 0.0, y), offset_km(FAULT_ANCHOR, 114.5, y), 6, f"c{i}")
        )
    for y in (0.0, 23.0):
        rows.append(
            (offset_km(FAULT_ANCHOR, 0.0, y), offset_km(FAULT_ANCHOR, 122.0, y), 5, f"i{y:g}")
        )
    return rows


def plan_fault_trips(net: ChargeNetwork, cfg: RouterConfig):
    """Plan all weighted trips against an empty ledger; nothing is
    committed so replays are independent. Returns (plans, n_unroutable)."""
    ledger = ReservationLedger()
    plans = []
    unroutable = 0
    ev = 0
    for origin, dest, weight, _cp in fault_trip_rows():
        for _ in range(weight):
            p = plan_route(TripRequest(ev, origin, dest), net, ledger, cfg)
            if isinstance(p, Unroutable):
                unroutable += 1
            else:
                plans.append(p)
            ev += 1
    return plans, unroutable


def mask_major_sweep(plans, n_unroutable, net, ledger, cfg, p_f_grid, n_masks, seed):
    """run_fault_sweep's rows, mask by mask: each mask drawn alone by
    sample_fault_masks from SeedSequence(seed, spawn_key=(m,)), and every
    charging plan it hits replayed by replay_trip with a fresh search, no
    path reused. This is the sweep as it ran before it went plan by plan."""
    grid = sorted(set(p_f_grid))
    charging = [p for p in plans if p.stops]
    stopping: dict[str, list[int]] = {}
    for k, plan in enumerate(charging):
        for s in plan.stops:
            stopping.setdefault(s.cp_id, []).append(k)
    stranded = {p_f: 0 for p_f in grid}
    for m in range(n_masks):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(m,)))
        for p_f, mask in zip(grid, sample_fault_masks(net, grid, rng)):
            for k in sorted({k for pid in mask for k in stopping.get(pid, ())}):
                if replay_trip(charging[k], mask, net, ledger, cfg) == STRANDED:
                    stranded[p_f] += 1
    trips = (len(plans) + n_unroutable) * n_masks
    flagged = sum(1 for p in plans if p.needed_charge)
    return [
        SweepRow(p_f, trips, flagged * n_masks, stranded[p_f], n_unroutable * n_masks)
        for p_f in grid
    ]


# ---------------------------------------------------------------------------
# scenario fixtures


def corridor_fixture():
    """150 km equatorial corridor with two 50 kW DC stops at 50 and 100 km."""
    anchor = GeoPoint(0.0, 30.0)
    net = ChargeNetwork(
        [
            ChargePoint("s1", offset_km(anchor, 50.0, 0.0), "DC", 50.0),
            ChargePoint("s2", offset_km(anchor, 100.0, 0.0), "DC", 50.0),
        ]
    )
    req = TripRequest(ev_id=7, origin=anchor, destination=offset_km(anchor, 150.0, 0.0))
    return req, net


# ---------------------------------------------------------------------------
# destination oracle: the ring cut from a haversine to every cell


def full_scan_sample_destination(
    grid: PopulationGrid, origin: GeoPoint, trip_km: float, rng: np.random.Generator
) -> GeoPoint | None:
    """sample_destinations for one trip without the spatial index: the rings
    are cut from the distances to all cells, so the weights, their
    cumulative sum and the pick come from the full arrays in index order.
    None, with no draw taken, when every ring is empty."""
    if trip_km < 0:
        raise DataError(f"negative trip length: {trip_km}")
    d = grid.distances_from(origin)
    for w in RING_HALF_WIDTHS:
        mask = np.abs(d - trip_km) <= w
        if not mask.any():
            continue
        weights = grid.population[mask]
        total = weights.sum()
        if total <= 0:
            continue
        cum = np.cumsum(weights)
        u = rng.random() * total
        pick = int(np.searchsorted(cum, u, side="right"))
        return _jitter_in_cell(grid, int(np.flatnonzero(mask)[pick]), rng)
    return None


def _jitter_in_cell(grid: PopulationGrid, idx: int, rng: np.random.Generator) -> GeoPoint:
    centre = GeoPoint(float(grid.lat_deg[idx]), float(grid.lon_deg[idx]))
    return offset_km(centre, rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))


def trip_by_trip(
    grid: PopulationGrid, dist: TripLengthDistribution, rng: np.random.Generator, ev_id: int
) -> TripRequest:
    """One trip drawn alone from its substream in the plain order: a
    priority, an origin cell by a search of the population's running sum,
    its jitter, a length, then full_scan_sample_destination's draw, with a
    fresh length while every ring is empty."""
    priority = rng.random()
    cell = np.searchsorted(np.cumsum(grid.population), rng.random() * grid.total_population, side="right")
    origin = _jitter_in_cell(grid, int(cell), rng)
    dest = None
    while dest is None:
        dest = full_scan_sample_destination(grid, origin, dist.sample(rng), rng)
    return TripRequest(ev_id=ev_id, origin=origin, destination=dest, priority=priority)


# ---------------------------------------------------------------------------
# loader oracle: csv and float() row by row


def loop_load_population_csv(path) -> PopulationGrid:
    """load_population_csv as a Python loop over csv rows: float() for each
    field, the checks one row at a time, and GeoPoint to range-check the
    latitude and normalise the longitude."""
    lats: list[float] = []
    lons: list[float] = []
    pops: list[float] = []
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read population grid {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise DataError(f"{path}: empty file")
        if [h.strip().lower() for h in header] != ["lat", "lon", "population"]:
            raise DataError(f"{path}: line 1: expected header lat,lon,population")
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 3:
                raise DataError(f"{path}: line {lineno}: expected 3 fields, got {len(row)}")
            try:
                lat, lon, pop = float(row[0]), float(row[1]), float(row[2])
            except ValueError as exc:
                raise DataError(f"{path}: line {lineno}: {exc}") from exc
            if not math.isfinite(pop):
                raise DataError(f"{path}: line {lineno}: population not finite: {pop}")
            if pop < 0:
                raise DataError(f"{path}: line {lineno}: negative population {pop}")
            try:
                center = GeoPoint(lat, lon)
            except ValueError as exc:
                raise DataError(f"{path}: line {lineno}: {exc}") from exc
            lats.append(center.lat_deg)
            lons.append(center.lon_deg)
            pops.append(pop)
    return PopulationGrid(lats, lons, pops)


def grid_of(cells: list[tuple[GeoPoint, float]]) -> PopulationGrid:
    """A grid of (centre, population) pairs, in order."""
    return PopulationGrid(
        [c.lat_deg for c, _ in cells], [c.lon_deg for c, _ in cells], [pop for _, pop in cells]
    )


def meridian_grid() -> PopulationGrid:
    """4200 km of uniformly populated cells along a meridian: every trip
    length up to the support edge finds a destination ring, so the sampled
    lengths follow the trip distribution essentially untruncated."""
    anchor = GeoPoint(0.0, 5.0)
    return grid_of([(offset_km(anchor, 0.0, k - 2100.0), 1.0) for k in range(4200)])


def twoblob_fixture():
    """Two population blobs 150 km apart and a 50-point network.

    Only four charge-point chains bridge the gap (west/east pillars at 68
    and 122 km); 42 decoys sit north of both blobs where they are never
    time-optimal. Congestion on the bridge is what separates the two
    reservation modes as the fleet grows.
    """
    from chargesim.fixtures import PopulationBlob, synthetic_population_grid

    anchor = GeoPoint(0.0, 20.0)
    blobs = [PopulationBlob(10.0, 20.0, 3.0), PopulationBlob(160.0, 20.0, 3.0)]
    grid = synthetic_population_grid(anchor, 170, 80, 1e5, blobs)
    pts = []
    for j in range(4):
        n = 20.0 + 12.0 * j
        pts.append(ChargePoint(f"w{j}", offset_km(anchor, 68.0, n), "AC", 22.0))
        pts.append(ChargePoint(f"e{j}", offset_km(anchor, 122.0, n), "AC", 22.0))
    for k in range(42):
        east = 2.0 + k * 4.0
        pts.append(
            ChargePoint(f"x{k}", offset_km(anchor, east, 66.0 + (k % 3) * 4.0), "AC", 22.0)
        )
    return grid, ChargeNetwork(pts)


def capacity_fixture():
    """Two towns 80 km apart, one 22 kW AC point at the midpoint, and a
    heavy-tailed trip length distribution truncated at 90 km.

    Nearly every trip crosses between the towns and needs one charge. A
    lone vehicle averages about 70 kph; the moment two cross at once the
    second queues behind the first and drops below 60 kph, so the fleet
    capacity at a sub-percent below-60 target is exactly one.
    """
    anchor = GeoPoint(0.0, 40.0)
    grid = grid_of([(anchor, 1.0), (offset_km(anchor, 80.0, 0.0), 1.0)])
    net = ChargeNetwork([ChargePoint("mid", offset_km(anchor, 40.0, 0.0), "AC", 22.0)])
    dist = TripLengthDistribution(b=0.2, upper_km=90.0)
    return grid, net, dist


def run_chargesim(
    args: list[str], cwd, env: dict | None = None, stdout=subprocess.PIPE
) -> subprocess.CompletedProcess:
    """Run ``python -m chargesim *args`` in a subprocess and capture its output.

    The module form, not a console script found on PATH: a script can belong
    to another install, and none exists in a checkout.
    """
    return run_python(["-m", "chargesim", *args], cwd, env, stdout)


def run_python(
    args: list[str], cwd, env: dict | None = None, stdout=subprocess.PIPE
) -> subprocess.CompletedProcess:
    """Run ``python *args`` in a subprocess and capture its output, with
    the variables in env set on top of this process's environment. Standard
    output goes to stdout, a pipe that is captured unless given.

    The directory holding the imported package goes first on the child's
    PYTHONPATH as an absolute path, so the child runs the same code as the
    suite whatever its working directory and whether or not the package is
    installed. CHARGESIM_SEED is dropped so only the command's own flags
    pick the seed.
    """
    env = {**os.environ, **(env or {})}
    env.pop("CHARGESIM_SEED", None)
    src = str(Path(chargesim.__file__).resolve().parents[1])
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + rest if rest else "")
    return subprocess.run(
        [sys.executable, *args],
        cwd=cwd, env=env, stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=600,
    )
