import math
import pickle

import numpy as np
import pytest

from chargesim.errors import DataError
from chargesim.experiment import sample_trip_batch
from chargesim.geo import EARTH_RADIUS_KM, GeoPoint, distance_km, offset_km
from chargesim.population import (
    RING_HALF_WIDTHS,
    _TILE_MARGIN_KM,
    PopulationGrid,
    _cell_point,
    _pick_in_ring,
    load_population_csv,
    sample_destinations,
    sample_origins,
)
from chargesim.triplength import default_trip_distribution
from helpers import full_scan_sample_destination, grid_of, meridian_grid

ANCHOR = GeoPoint(0.0, 12.0)


def small_grid():
    return grid_of([(ANCHOR, 1.0), (offset_km(ANCHOR, 10.0, 0.0), 3.0)])


def _centre(grid, i):
    return GeoPoint(float(grid.lat_deg[i]), float(grid.lon_deg[i]))


def _origins(grid, rng, n):
    return sample_origins(grid, rng.random(n), rng.random(n), rng.random(n))


def _nearest_cells(grid, points):
    # by degrees, which on these equatorial grids, with cells 2 km or more
    # apart, finds the cell a point was jittered in
    lat = np.array([p.lat_deg for p in points])[:, None]
    lon = np.array([p.lon_deg for p in points])[:, None]
    return np.argmin((lat - grid.lat_deg) ** 2 + (lon - grid.lon_deg) ** 2, axis=1)


def _destination(grid, origin, trip_km, rng):
    return sample_destinations(grid, [origin], [trip_km], [rng])[0]


def _ring_candidates(grid, origin, trip_km, w):
    return grid.rings_candidates([origin], [trip_km], w)[0]


def test_grid_validation():
    with pytest.raises(DataError):
        grid_of([])
    with pytest.raises(DataError):
        grid_of([(ANCHOR, -1.0)])
    with pytest.raises(DataError):
        grid_of([(ANCHOR, 0.0)])


@pytest.mark.parametrize("pop", [math.nan, math.inf])
def test_population_must_be_finite(pop, tmp_path):
    with pytest.raises(DataError, match="finite"):
        grid_of([(ANCHOR, 1.0), (ANCHOR, pop)])
    path = tmp_path / "pop.csv"
    path.write_text(f"lat,lon,population\n0,12,1\n0,12.01,{pop}\n")
    with pytest.raises(DataError, match="line 3"):
        load_population_csv(path)


def test_total_population_and_len():
    g = small_grid()
    assert g.total_population == 4.0
    assert len(g) == 2


def test_distances_from_matches_scalar_haversine():
    g = small_grid()
    probe = offset_km(ANCHOR, 3.0, 4.0)
    got = g.distances_from(probe)
    want = [distance_km(probe, _centre(g, i)) for i in range(len(g))]
    assert np.allclose(got, want, atol=1e-9)


def test_origin_weights_converge():
    g = small_grid()
    rng = np.random.default_rng(7)
    n = 100_000
    picks = _nearest_cells(g, _origins(g, rng, n))
    frac_heavy = np.mean(picks == 1)
    # binomial 3 sigma around 0.75
    sigma = math.sqrt(0.75 * 0.25 / n)
    assert abs(frac_heavy - 0.75) < 3.0 * sigma


def test_origin_weights_chi_square():
    # ten cells with weights 1..10; chi-square on 100k draws at alpha=0.01
    g = grid_of([(offset_km(ANCHOR, 2.0 * i, 0.0), float(i + 1)) for i in range(10)])
    rng = np.random.default_rng(11)
    n = 100_000
    counts = np.bincount(_nearest_cells(g, _origins(g, rng, n)), minlength=10)
    expected = g.population / g.total_population * n
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    # chi-square 0.99 quantile with 9 degrees of freedom
    assert chi2 < 21.666


def test_origin_jitter_stays_in_cell():
    g = grid_of([(ANCHOR, 5.0)])
    rng = np.random.default_rng(3)
    half_diag = math.sqrt(0.5)
    for p in _origins(g, rng, 500):
        assert distance_km(p, ANCHOR) <= half_diag + 1e-6


def test_per_trip_draws_match_uniform_and_quantile():
    # the jitter's offsets and a scalar trip length skip numpy's argument
    # handling; on one shared seed they give the floats Generator.uniform
    # and TripLengthDistribution.quantile give
    grid = grid_of([(offset_km(ANCHOR, 3.0 * i, 2.0 * i), 1.0 + i) for i in range(7)])
    dist = default_trip_distribution()
    rng, ref = np.random.default_rng(11), np.random.default_rng(11)
    for k in range(20_000):
        idx = k % len(grid)
        east, north = ref.uniform(-0.5, 0.5), ref.uniform(-0.5, 0.5)
        point = _cell_point(grid, idx, rng.random(), rng.random())
        assert point == offset_km(_centre(grid, idx), east, north)
        y = dist.sample(rng)
        assert type(y) is float
        assert y == dist.quantile(ref.random())
    assert rng.random() == ref.random()


def test_destination_picks_the_only_ring_cell():
    cells = [
        (ANCHOR, 1.0),
        (offset_km(ANCHOR, 40.0, 0.0), 1.0),
        (offset_km(ANCHOR, 200.0, 0.0), 1.0),
    ]
    g = grid_of(cells)
    rng = np.random.default_rng(5)
    for _ in range(50):
        dest = _destination(g, ANCHOR, 40.0, rng)
        assert distance_km(dest, cells[1][0]) <= math.sqrt(0.5) + 1e-6


def test_destination_respects_ring_weights():
    # two candidate cells on the 50 km ring, weights 2:3
    cells = [
        (ANCHOR, 1.0),
        (offset_km(ANCHOR, 50.0, 0.0), 2.0),
        (offset_km(ANCHOR, 0.0, 50.0), 3.0),
    ]
    g = grid_of(cells)
    rng = np.random.default_rng(17)
    n = 20_000
    hits_north = 0
    for _ in range(n):
        dest = _destination(g, ANCHOR, 50.0, rng)
        if distance_km(dest, cells[2][0]) < 2.0:
            hits_north += 1
    frac = hits_north / n
    sigma = math.sqrt(0.6 * 0.4 / n)
    assert abs(frac - 0.6) < 3.0 * sigma


def test_destination_ring_widens_before_failing():
    # nearest cell is 3.4 km off the requested ring: inside the widest
    # half-width but outside all narrower ones
    cells = [(ANCHOR, 1.0), (offset_km(ANCHOR, 43.4, 0.0), 1.0)]
    g = grid_of(cells)
    rng = np.random.default_rng(23)
    dest = _destination(g, ANCHOR, 40.0, rng)
    assert distance_km(dest, cells[1][0]) <= math.sqrt(0.5) + 1e-6
    assert 3.4 > RING_HALF_WIDTHS[-2]
    assert 3.4 <= RING_HALF_WIDTHS[-1]


def test_destination_ring_empty():
    g = grid_of([(ANCHOR, 1.0)])
    rng = np.random.default_rng(29)
    assert sample_destinations(g, [ANCHOR], [500.0], [rng]) == [None]
    assert rng.random() == np.random.default_rng(29).random()  # no draw taken


def test_destination_jitter_bound():
    # destination lies within ring half-width plus the cell half-diagonal
    g = grid_of([(ANCHOR, 1.0)] + [
        (offset_km(ANCHOR, 30.0 + de, dn), 1.0)
        for de in (-0.4, 0.0, 0.4)
        for dn in (-0.4, 0.0, 0.4)
    ])
    rng = np.random.default_rng(31)
    bound = RING_HALF_WIDTHS[0] + math.sqrt(0.5) + 1e-6
    for _ in range(200):
        dest = _destination(g, ANCHOR, 30.0, rng)
        assert abs(distance_km(ANCHOR, dest) - 30.0) <= bound


class _Draws:
    """A generator stand-in whose random() gives the listed floats in turn."""

    def __init__(self, *u):
        self.u = list(u)

    def random(self):
        return self.u.pop(0)


def test_a_draw_past_the_running_sum_picks_the_last_populated_cell():
    # the ring's weights sum pairwise to more than their running sum's end,
    # so the highest draw lies past it; its cell is the last populated one,
    # before the ring's unpopulated tail
    weights = np.random.default_rng(0).exponential(size=400)
    weights[-3:] = 0.0
    top = np.nextafter(1.0, 0.0)
    assert np.searchsorted(np.cumsum(weights), top * weights.sum(), side="right") == 400
    grid = grid_of([(offset_km(ANCHOR, 0.01 * i, 0.0), w) for i, w in enumerate(weights)])
    # the jitter's draws of one half put the point at the cell's centre
    rng = _Draws(top, 0.5, 0.5)
    dest = _pick_in_ring(grid, ANCHOR, 2.0, RING_HALF_WIDTHS[-1], np.arange(400), rng)
    assert dest == _centre(grid, 396) and not rng.u


def _random_grid(rng):
    """One to 199 cells scattered over 3 to 3000 km around a
    random anchor; about a fifth of them unpopulated."""
    anchor = GeoPoint(rng.uniform(-70.0, 70.0), rng.uniform(-180.0, 180.0))
    span = 10.0 ** rng.uniform(0.5, 3.5)
    n = int(rng.integers(1, 200))
    cells = [
        (
            offset_km(anchor, *rng.uniform(-span / 2.0, span / 2.0, 2)),
            0.0 if rng.random() < 0.2 else float(rng.integers(1, 1000)),
        )
        for _ in range(n)
    ]
    cells[0] = (cells[0][0], 1.0)
    return grid_of(cells), anchor, span


def _edge_trip(d, w, side):
    """The trip length that puts a cell at distance d on the last float
    inside the ring |d - trip| <= w: at its outer edge for side +1, its
    inner edge for side -1."""
    t = d - side * w
    step_out = -math.inf if side > 0 else math.inf
    while abs(d - t) <= w:
        t = math.nextafter(t, step_out)
    while abs(d - t) > w:
        t = math.nextafter(t, -step_out)
    return t


def _draws(grid, origin, trips, seeds):
    """Each trip's destination from origin, as bits or None, and the next
    draw of its generator, which tells how many draws it took: first by
    the full-scan oracle trip by trip, then by one sample_destinations
    call for all the trips."""
    want, rngs = [], [np.random.default_rng(seed) for seed in seeds]
    for trip_km, seed in zip(trips, seeds):
        rng = np.random.default_rng(seed)
        want.append((_bits(full_scan_sample_destination(grid, origin, trip_km, rng)), rng.random()))
    got = sample_destinations(grid, [origin] * len(trips), trips, rngs)
    return want, [(_bits(p), rng.random()) for p, rng in zip(got, rngs)]


def _bits(p):
    return None if p is None else (p.lat_deg.hex(), p.lon_deg.hex())


def test_destination_matches_full_scan_oracle():
    # the tile index's chord cut must give the full scan's draws bit for
    # bit, and no destination where it finds none, for every kind of trip
    # the sampler can be asked
    rng = np.random.default_rng(101)
    edge_cases = widened = empty = 0
    for case in range(400):
        grid, anchor, span = _random_grid(rng)
        if case % 4 == 0:  # off the grid, up to a few thousand km away
            origin = offset_km(anchor, *rng.uniform(-3000.0, 3000.0, 2))
        else:
            origin = offset_km(_centre(grid, int(rng.integers(len(grid)))),
                               *rng.uniform(-0.5, 0.5, 2))
        d = grid.distances_from(origin)
        trips = [0.0, rng.uniform(0.0, 2000.0), rng.uniform(0.0, 2.0 * span)]
        for i in rng.integers(len(grid), size=6):
            w = RING_HALF_WIDTHS[int(rng.integers(len(RING_HALF_WIDTHS)))]
            trips.append(_edge_trip(float(d[i]), w, 1))
            trips.append(_edge_trip(float(d[i]), w, -1))
            trips.append(float(d[i]) + rng.uniform(-5.0, 5.0))
        trips = [trip_km for trip_km in trips if trip_km >= 0]
        seeds = [int(rng.integers(2**32)) for _ in trips]
        want, got = _draws(grid, origin, trips, seeds)
        for trip_km, w, g in zip(trips, want, got):
            assert g == w, (case, trip_km)
            ring = np.abs(d - trip_km)
            edge_cases += bool(np.any(ring == RING_HALF_WIDTHS[-1]))
            widened += bool(np.any(ring <= RING_HALF_WIDTHS[-1])) and not np.any(
                ring <= RING_HALF_WIDTHS[-2]
            )
            empty += w[0] is None
    # the draws above did reach the cases they were built for
    assert edge_cases > 100 and widened > 100 and empty > 100


def test_destination_matches_full_scan_across_the_antipode():
    # rings whose outer edge passes the antipode, around the far cells
    anchor = GeoPoint(20.0, 30.0)
    far = GeoPoint(-20.0, -150.0)
    rng = np.random.default_rng(103)
    cells = [(offset_km(far, *rng.uniform(-8.0, 8.0, 2)), 1.0) for _ in range(50)]
    cells += [(offset_km(anchor, *rng.uniform(-50.0, 50.0, 2)), 1.0) for _ in range(50)]
    grid = grid_of(cells)
    half = math.pi * EARTH_RADIUS_KM
    trips = np.linspace(half - 15.0, half + 5.0, 41).tolist()
    want, got = _draws(grid, anchor, trips, [int(rng.integers(2**32)) for _ in trips])
    assert got == want
    # the ring's candidates are the far cells, each once and in order
    assert np.array_equal(_ring_candidates(grid, anchor, half, 15.0), np.arange(50))


def test_ring_candidates_cover_the_ring():
    # a sorted, duplicate-free superset of the ring for every half-width,
    # from points on, off and antipodal to the grid, out to rings whose
    # outer edge passes the antipode
    rng = np.random.default_rng(107)
    half = math.pi * EARTH_RADIUS_KM
    pruned = past_antipode = 0
    for case in range(300):
        grid, anchor, span = _random_grid(rng)
        near = offset_km(_centre(grid, int(rng.integers(len(grid)))),
                         *rng.uniform(-0.5, 0.5, 2))
        if case % 3 == 0:  # anywhere on the sphere
            origin = GeoPoint(math.degrees(math.asin(rng.uniform(-1.0, 1.0))),
                              rng.uniform(-180.0, 180.0))
        elif case % 3 == 1:
            origin = near
        else:
            origin = GeoPoint(-near.lat_deg, near.lon_deg + 180.0)
        d = grid.distances_from(origin)
        trips = [0.0, 2000.0, rng.uniform(0.0, 2.0 * span), half - rng.uniform(0.0, 5.0)]
        for i in rng.integers(len(grid), size=3):
            w = RING_HALF_WIDTHS[int(rng.integers(len(RING_HALF_WIDTHS)))]
            trips += [_edge_trip(float(d[i]), w, 1), _edge_trip(float(d[i]), w, -1)]
        for trip_km in trips:
            for w in RING_HALF_WIDTHS:
                cand = _ring_candidates(grid, origin, trip_km, w)
                assert np.all(np.diff(cand) > 0), (case, trip_km, w)
                ring = np.flatnonzero(np.abs(d - trip_km) <= w)
                assert np.isin(ring, cand).all(), (case, trip_km, w)
                pruned += len(cand) < len(grid)
                past_antipode += trip_km + w > half and len(ring) > 0
    # the draws above did reach the cases they were built for
    assert pruned > 1000 and past_antipode > 50


def test_ring_candidates_are_the_ring_plus_the_slack():
    # the chord cut keeps every cell of the ring and none farther from it
    # than the slack on each side allows, from points on, off and exactly
    # antipodal to the grid's cells (there the chord may round above 2)
    rng = np.random.default_rng(113)
    half = math.pi * EARTH_RADIUS_KM
    in_slack = past_antipode = 0
    for case in range(300):
        grid, _, span = _random_grid(rng)
        cell = _centre(grid, int(rng.integers(len(grid))))
        if case % 3 == 0:  # anywhere on the sphere
            origin = GeoPoint(math.degrees(math.asin(rng.uniform(-1.0, 1.0))),
                              rng.uniform(-180.0, 180.0))
        elif case % 3 == 1:
            origin = offset_km(cell, *rng.uniform(-0.5, 0.5, 2))
        else:
            origin = GeoPoint(-cell.lat_deg, cell.lon_deg + 180.0)
        d = grid.distances_from(origin)
        trips = [0.0, rng.uniform(0.0, 2.0 * span), half - rng.uniform(0.0, 5.0), half]
        for i in rng.integers(len(grid), size=3):
            w = RING_HALF_WIDTHS[int(rng.integers(len(RING_HALF_WIDTHS)))]
            trips += [_edge_trip(float(d[i]), w, 1), _edge_trip(float(d[i]), w, -1)]
            trips.append(float(d[i]) + rng.uniform(-5.0, 5.0))
        for trip_km in trips:
            if trip_km < 0:
                continue
            for w in RING_HALF_WIDTHS:
                cand = _ring_candidates(grid, origin, trip_km, w)
                off = np.abs(d[cand] - trip_km)
                assert np.all(off <= w + 2.0 * _TILE_MARGIN_KM), (case, trip_km, w)
                ring = np.flatnonzero(np.abs(d - trip_km) <= w)
                assert np.isin(ring, cand).all(), (case, trip_km, w)
                in_slack += int(np.sum(off > w))
                past_antipode += trip_km + w > half and len(ring) > 0
    # the draws above did reach the cases they were built for
    assert in_slack > 0 and past_antipode > 100


def _unit(lat_rad, lon_rad):
    return np.array([math.cos(lat_rad) * math.cos(lon_rad),
                     math.cos(lat_rad) * math.sin(lon_rad), math.sin(lat_rad)])


def test_ring_candidates_margin_covers_antipodal_rounding():
    # a lone cell on a ring's edge, its tile's centre on the great circle
    # from the origin through the cell, and the origin near the antipode of
    # whichever of the two is farther: the chords there are within 1e-14 of
    # 2, and only the margin covers their rounding and the haversine's (with
    # no margin about four queries in ten find no candidate)
    rng = np.random.default_rng(109)
    for _ in range(200):
        cell = GeoPoint(rng.uniform(-60.0, 60.0), rng.uniform(-180.0, 180.0))
        grid = grid_of([(cell, 1.0)])
        tiles = grid._tiles
        c = _unit(math.radians(cell.lat_deg), math.radians(cell.lon_deg))
        t = tiles.centre[0]
        for far, near in ((c, t), (t, c)):
            toward = near - near.dot(far) * far
            angle = math.pi - rng.uniform(0.0, 2e-5)
            x, y, z = far * math.cos(angle) + toward / np.linalg.norm(toward) * math.sin(angle)
            origin = GeoPoint(math.degrees(math.asin(z)), math.degrees(math.atan2(y, x)))
            d = float(grid.distances_from(origin)[0])
            for w in RING_HALF_WIDTHS:
                for side in (1, -1):
                    trip_km = _edge_trip(d, w, side)
                    assert list(_ring_candidates(grid, origin, trip_km, w)) == [0]


def test_rings_cut_together_are_the_rings_cut_alone():
    # the candidates of many origins cut at once give each origin's ring,
    # as its one-origin cut and the full scan give it, for origins on, off
    # and near the antipode of the grid, at every half-width; and for
    # origins at a cell's centre on short trips, where that cell's u.o may
    # round above 1
    rng = np.random.default_rng(127)
    half = math.pi * EARTH_RADIUS_KM
    rings = past_antipode = 0
    for case in range(80):
        grid, _, span = _random_grid(rng)
        origins, trips = [], []
        for _ in range(int(rng.integers(1, 40))):
            cell = _centre(grid, int(rng.integers(len(grid))))
            kind = int(rng.integers(4))
            if kind == 3:
                origins.append(cell)
                trips.append(rng.uniform(0.0, 1.0))
                continue
            if kind == 0:
                origin = offset_km(cell, *rng.uniform(-0.5, 0.5, 2))
            elif kind == 1:  # anywhere on the sphere
                origin = GeoPoint(math.degrees(math.asin(rng.uniform(-1.0, 1.0))),
                                  rng.uniform(-180.0, 180.0))
            else:
                origin = GeoPoint(-cell.lat_deg + rng.uniform(-0.01, 0.01),
                                  cell.lon_deg + 180.0 + rng.uniform(-0.01, 0.01))
            d = float(grid.distances_from(origin)[int(rng.integers(len(grid)))])
            trip_km = [d + rng.uniform(-3.0, 3.0), rng.uniform(0.0, 2.0 * span),
                       half - rng.uniform(0.0, 5.0)][int(rng.integers(3))]
            origins.append(origin)
            trips.append(max(0.0, trip_km))
        for w in RING_HALF_WIDTHS:
            together = grid.rings_candidates(origins, trips, w)
            assert len(together) == len(origins)
            for origin, trip_km, cand in zip(origins, trips, together):
                assert np.all(np.diff(cand) > 0), (case, trip_km, w)
                alone = _ring_candidates(grid, origin, trip_km, w)
                ring = np.flatnonzero(np.abs(grid.distances_from(origin) - trip_km) <= w)
                for c in (cand, alone):
                    assert np.array_equal(
                        c[np.abs(grid.distances_from(origin, c) - trip_km) <= w], ring
                    ), (case, trip_km, w)
                rings += len(ring) > 0
                past_antipode += trip_km + w > half and len(ring) > 0
    # the draws above did reach the cases they were built for
    assert rings > 1000 and past_antipode > 100, (rings, past_antipode)


@pytest.mark.parametrize("n", list(range(34)) + [257, 999])
def test_distances_from_subset_matches_full_scan(n):
    # same floats element for element whatever the subset's length, so the
    # vector loops' tails round as their bodies do
    rng = np.random.default_rng(n)
    grid, anchor, _ = _random_grid(rng)
    k = 1 + 1000 // len(grid)
    grid = PopulationGrid(
        np.tile(grid.lat_deg, k), np.tile(grid.lon_deg, k), np.tile(grid.population, k)
    )
    for _ in range(5):
        p = offset_km(anchor, *rng.uniform(-100.0, 100.0, 2))
        full = grid.distances_from(p)
        start = int(rng.integers(len(grid) - n + 1))
        for idx in (
            np.sort(rng.choice(len(grid), size=n, replace=False)),
            rng.choice(len(grid), size=n),
            np.arange(start, start + n),
        ):
            assert np.array_equal(grid.distances_from(p, idx), full[idx])


def test_grid_pickles_without_its_ring_index():
    # process-pool tasks ship the grid; the index is rebuilt, not shipped
    grid = meridian_grid()
    dist = default_trip_distribution()
    size = len(pickle.dumps(grid))

    def trips(g):
        return [
            (t.origin.lat_deg.hex(), t.destination.lat_deg.hex(), t.destination.lon_deg.hex())
            for t in sample_trip_batch(g, dist, 5, 0, 50)
        ]

    before = trips(grid)
    assert "_tiles" in vars(grid)  # sampling built the index
    assert len(pickle.dumps(grid)) == size
    copy = pickle.loads(pickle.dumps(grid))
    assert "_tiles" not in vars(copy)
    assert trips(copy) == before


def test_negative_trip_length_rejected():
    g = small_grid()
    with pytest.raises(DataError):
        _destination(g, ANCHOR, -1.0, np.random.default_rng(0))


def test_loader_round_trip(tmp_path):
    path = tmp_path / "pop.csv"
    path.write_text("lat,lon,population\n0.0,12.0,5\n0.01,12.0,7\n")
    g = load_population_csv(path)
    assert len(g) == 2
    assert g.total_population == 12.0
    assert g.population[1] == 7.0
    # the longitude is normalised into [-180, 180)
    path.write_text("lat,lon,population\n0,190,1\n")
    assert load_population_csv(path).lon_deg[0] == -170.0


def test_loader_error_lines(tmp_path):
    missing = tmp_path / "nope.csv"
    with pytest.raises(DataError, match="cannot read"):
        load_population_csv(missing)

    bad_header = tmp_path / "h.csv"
    bad_header.write_text("lat,lon\n")
    with pytest.raises(DataError, match="line 1"):
        load_population_csv(bad_header)

    bad_field = tmp_path / "f.csv"
    bad_field.write_text("lat,lon,population\n0,12,abc\n")
    with pytest.raises(DataError, match="line 2"):
        load_population_csv(bad_field)

    bad_count = tmp_path / "c.csv"
    bad_count.write_text("lat,lon,population\n0,12,1\n0,12\n")
    with pytest.raises(DataError, match="line 3"):
        load_population_csv(bad_count)

    bad_pop = tmp_path / "n.csv"
    bad_pop.write_text("lat,lon,population\n0,12,-4\n")
    with pytest.raises(DataError, match="negative population"):
        load_population_csv(bad_pop)

    bad_lat = tmp_path / "l.csv"
    bad_lat.write_text("lat,lon,population\n99,12,1\n")
    with pytest.raises(DataError, match="line 2"):
        load_population_csv(bad_lat)

    bad_lon = tmp_path / "o.csv"
    bad_lon.write_text("lat,lon,population\n0,inf,1\n")
    with pytest.raises(DataError, match="line 2"):
        load_population_csv(bad_lon)

    empty = tmp_path / "e.csv"
    empty.write_text("")
    with pytest.raises(DataError, match="empty"):
        load_population_csv(empty)
