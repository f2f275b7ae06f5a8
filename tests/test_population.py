import math

import numpy as np
import pytest

from chargesim.errors import DataError
from chargesim.geo import GeoPoint, distance_km, offset_km
from chargesim.population import (
    RING_HALF_WIDTHS,
    Cell,
    PopulationGrid,
    RingEmpty,
    load_population_csv,
    sample_destination,
    sample_origin,
    sample_origin_cell,
)

ANCHOR = GeoPoint(0.0, 12.0)


def small_grid():
    return PopulationGrid(
        [
            Cell(ANCHOR, 1.0),
            Cell(offset_km(ANCHOR, 10.0, 0.0), 3.0),
        ]
    )


def test_grid_validation():
    with pytest.raises(DataError):
        PopulationGrid([])
    with pytest.raises(DataError):
        PopulationGrid([Cell(ANCHOR, -1.0)])
    with pytest.raises(DataError):
        PopulationGrid([Cell(ANCHOR, 0.0)])


@pytest.mark.parametrize("pop", [math.nan, math.inf])
def test_population_must_be_finite(pop, tmp_path):
    with pytest.raises(DataError, match="finite"):
        PopulationGrid([Cell(ANCHOR, 1.0), Cell(ANCHOR, pop)])
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
    want = [distance_km(probe, c.center) for c in g.cells]
    assert np.allclose(got, want, atol=1e-9)


def test_origin_weights_converge():
    g = small_grid()
    rng = np.random.default_rng(7)
    n = 100_000
    picks = np.array([sample_origin_cell(g, rng) for _ in range(n)])
    frac_heavy = np.mean(picks == 1)
    # binomial 3 sigma around 0.75
    sigma = math.sqrt(0.75 * 0.25 / n)
    assert abs(frac_heavy - 0.75) < 3.0 * sigma


def test_origin_weights_chi_square():
    # ten cells with weights 1..10; chi-square on 100k draws at alpha=0.01
    cells = [Cell(offset_km(ANCHOR, 2.0 * i, 0.0), float(i + 1)) for i in range(10)]
    g = PopulationGrid(cells)
    rng = np.random.default_rng(11)
    n = 100_000
    counts = np.bincount([sample_origin_cell(g, rng) for _ in range(n)], minlength=10)
    expected = g._pops / g.total_population * n
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    # chi-square 0.99 quantile with 9 degrees of freedom
    assert chi2 < 21.666


def test_origin_jitter_stays_in_cell():
    g = PopulationGrid([Cell(ANCHOR, 5.0)])
    rng = np.random.default_rng(3)
    half_diag = math.sqrt(0.5)
    for _ in range(500):
        p = sample_origin(g, rng)
        assert distance_km(p, ANCHOR) <= half_diag + 1e-6


def test_destination_picks_the_only_ring_cell():
    cells = [
        Cell(ANCHOR, 1.0),
        Cell(offset_km(ANCHOR, 40.0, 0.0), 1.0),
        Cell(offset_km(ANCHOR, 200.0, 0.0), 1.0),
    ]
    g = PopulationGrid(cells)
    rng = np.random.default_rng(5)
    for _ in range(50):
        dest = sample_destination(g, ANCHOR, 40.0, rng)
        assert distance_km(dest, cells[1].center) <= math.sqrt(0.5) + 1e-6


def test_destination_respects_ring_weights():
    # two candidate cells on the 50 km ring, weights 2:3
    cells = [
        Cell(ANCHOR, 1.0),
        Cell(offset_km(ANCHOR, 50.0, 0.0), 2.0),
        Cell(offset_km(ANCHOR, 0.0, 50.0), 3.0),
    ]
    g = PopulationGrid(cells)
    rng = np.random.default_rng(17)
    n = 20_000
    hits_north = 0
    for _ in range(n):
        dest = sample_destination(g, ANCHOR, 50.0, rng)
        if distance_km(dest, cells[2].center) < 2.0:
            hits_north += 1
    frac = hits_north / n
    sigma = math.sqrt(0.6 * 0.4 / n)
    assert abs(frac - 0.6) < 3.0 * sigma


def test_destination_ring_widens_before_failing():
    # nearest cell is 3.4 km off the requested ring: inside the widest
    # half-width but outside all narrower ones
    cells = [Cell(ANCHOR, 1.0), Cell(offset_km(ANCHOR, 43.4, 0.0), 1.0)]
    g = PopulationGrid(cells)
    rng = np.random.default_rng(23)
    dest = sample_destination(g, ANCHOR, 40.0, rng)
    assert distance_km(dest, cells[1].center) <= math.sqrt(0.5) + 1e-6
    assert 3.4 > RING_HALF_WIDTHS[-2]
    assert 3.4 <= RING_HALF_WIDTHS[-1]


def test_destination_ring_empty():
    g = PopulationGrid([Cell(ANCHOR, 1.0)])
    rng = np.random.default_rng(29)
    with pytest.raises(RingEmpty):
        sample_destination(g, ANCHOR, 500.0, rng)


def test_destination_jitter_bound():
    # destination lies within ring half-width plus the cell half-diagonal
    cells = [Cell(ANCHOR, 1.0)] + [
        Cell(offset_km(ANCHOR, 30.0 + de, dn), 1.0)
        for de in (-0.4, 0.0, 0.4)
        for dn in (-0.4, 0.0, 0.4)
    ]
    g = PopulationGrid(cells)
    rng = np.random.default_rng(31)
    bound = RING_HALF_WIDTHS[0] + math.sqrt(0.5) + 1e-6
    for _ in range(200):
        dest = sample_destination(g, ANCHOR, 30.0, rng)
        assert abs(distance_km(ANCHOR, dest) - 30.0) <= bound


def test_negative_trip_length_rejected():
    g = small_grid()
    with pytest.raises(DataError):
        sample_destination(g, ANCHOR, -1.0, np.random.default_rng(0))


def test_loader_round_trip(tmp_path):
    path = tmp_path / "pop.csv"
    path.write_text("lat,lon,population\n0.0,12.0,5\n0.01,12.0,7\n")
    g = load_population_csv(path)
    assert len(g) == 2
    assert g.total_population == 12.0
    assert g.cells[1].population == 7.0


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

    empty = tmp_path / "e.csv"
    empty.write_text("")
    with pytest.raises(DataError, match="empty"):
        load_population_csv(empty)
