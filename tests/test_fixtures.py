import numpy as np
import pytest

from chargesim.fixtures import (
    PopulationBlob,
    synthetic_network,
    synthetic_population_grid,
    write_network_csv,
    write_population_csv,
)
from chargesim.geo import GeoPoint, distance_km, offset_km
from chargesim.network import load_network_csv
from chargesim.population import load_population_csv

ANCHOR = GeoPoint(0.0, 4.0)


def test_uniform_grid():
    g = synthetic_population_grid(ANCHOR, 10, 6, 6000.0)
    assert len(g) == 60
    assert g.total_population == pytest.approx(6000.0, rel=1e-12)
    assert g.population.max() == pytest.approx(g.population.min(), rel=1e-12)


def test_blob_grid_concentrates_mass():
    blob = PopulationBlob(center_east_km=5.0, center_north_km=5.0, sigma_km=1.0)
    g = synthetic_population_grid(ANCHOR, 10, 10, 1000.0, [blob])
    assert g.total_population == pytest.approx(1000.0, rel=1e-12)
    peak = offset_km(ANCHOR, 5.0, 5.0)
    near = g.population[g.distances_from(peak) < 3.0].sum()
    assert near > 0.8 * g.total_population
    # far tail cells fall below the keep threshold and are dropped
    assert len(g) < 100


def test_grid_size_validation():
    with pytest.raises(ValueError):
        synthetic_population_grid(ANCHOR, 0, 5, 100.0)


def test_network_scatter():
    net = synthetic_network(ANCHOR, 50.0, 40.0, 7, 5, seed=3)
    assert len(net) == 12
    assert net.n_dc == 7 and net.n_ac == 5
    assert sorted(net.by_id) == [f"cp{i:02d}" for i in range(12)]
    again = synthetic_network(ANCHOR, 50.0, 40.0, 7, 5, seed=3)
    assert [p.location for p in again.points] == [p.location for p in net.points]
    shifted = synthetic_network(ANCHOR, 50.0, 40.0, 7, 5, seed=4)
    assert [p.location for p in shifted.points] != [p.location for p in net.points]


def test_csv_round_trip(tmp_path):
    g = synthetic_population_grid(ANCHOR, 6, 6, 500.0)
    net = synthetic_network(ANCHOR, 6.0, 6.0, 2, 2, seed=1)
    pop_path = tmp_path / "pop.csv"
    net_path = tmp_path / "net.csv"
    write_population_csv(g, pop_path)
    write_network_csv(net, net_path)

    g2 = load_population_csv(pop_path)
    assert len(g2) == len(g)
    assert g2.total_population == pytest.approx(g.total_population, rel=1e-5)
    assert np.allclose(g2.population, g.population, rtol=1e-5)

    net2 = load_network_csv(net_path)
    assert sorted(net2.by_id) == sorted(net.by_id)
    for pid, p in net.by_id.items():
        q = net2.by_id[pid]
        assert q.kind == p.kind and q.power_kw == p.power_kw
        assert distance_km(q.location, p.location) < 0.001
