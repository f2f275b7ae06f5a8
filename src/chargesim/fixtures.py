"""Synthetic scenario inputs.

Ships a population generator (a mixture of Gaussian density blobs
discretized onto the 1 km cell grid) and a uniform charge-point scatter, so
the simulator can be exercised end to end without any real-world data. All
generation is seeded and deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ev import AC, DC
from .files import NETWORK_HEADER, POPULATION_HEADER, write_csv
from .geo import GeoPoint, offset_km
from .network import ChargeNetwork, ChargePoint
from .population import PopulationGrid

KEEP_FRACTION = 1e-6
DC_POWER_KW = 50.0
AC_POWER_KW = 22.0


@dataclass(frozen=True)
class PopulationBlob:
    center_east_km: float
    center_north_km: float
    sigma_km: float


def synthetic_population_grid(
    anchor: GeoPoint,
    width_km: int,
    height_km: int,
    total_population: float,
    blobs: list[PopulationBlob] | None = None,
) -> PopulationGrid:
    """Population on a width x height block of 1 km cells.

    Cell centres sit at half-km offsets east/north of the anchor. With no
    blobs the density is uniform; otherwise it is the blob mixture, and
    cells below KEEP_FRACTION of the peak are dropped to keep grids small.
    """
    if width_km < 1 or height_km < 1:
        raise ValueError("grid must be at least 1 km by 1 km")
    east = np.arange(width_km) + 0.5
    north = np.arange(height_km) + 0.5
    ee, nn = np.meshgrid(east, north, indexing="ij")
    ee = ee.ravel()
    nn = nn.ravel()
    if blobs is None:
        density = np.ones_like(ee)
    else:
        density = np.zeros_like(ee)
        for b in blobs:
            r2 = (ee - b.center_east_km) ** 2 + (nn - b.center_north_km) ** 2
            density += np.exp(-r2 / (2.0 * b.sigma_km**2))
        keep = density >= KEEP_FRACTION * density.max()
        ee, nn, density = ee[keep], nn[keep], density[keep]
    centres = [offset_km(anchor, float(e), float(n)) for e, n in zip(ee, nn)]
    return PopulationGrid(
        [c.lat_deg for c in centres],
        [c.lon_deg for c in centres],
        density * (total_population / density.sum()),
    )


def synthetic_network(
    anchor: GeoPoint,
    width_km: float,
    height_km: float,
    n_dc: int,
    n_ac: int,
    seed: int,
) -> ChargeNetwork:
    """Charge points scattered uniformly over the block, DC first."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    points = []
    width = max(1, n_dc + n_ac)
    pad = int(math.log10(width)) + 1
    for i in range(n_dc + n_ac):
        e = rng.uniform(0.0, width_km)
        n = rng.uniform(0.0, height_km)
        kind, power = (DC, DC_POWER_KW) if i < n_dc else (AC, AC_POWER_KW)
        points.append(ChargePoint(f"cp{i:0{pad}d}", offset_km(anchor, e, n), kind, power))
    return ChargeNetwork(points)


def write_population_csv(grid: PopulationGrid, path) -> None:
    cells = zip(grid.lat_deg.tolist(), grid.lon_deg.tolist(), grid.population.tolist())
    rows = ([f"{lat:.8f}", f"{lon:.8f}", f"{pop:.6g}"] for lat, lon, pop in cells)
    write_csv(path, POPULATION_HEADER, rows, line_end="\r\n")


def write_network_csv(net: ChargeNetwork, path) -> None:
    rows = ([p.id, f"{p.location.lat_deg:.8f}", f"{p.location.lon_deg:.8f}", p.kind, f"{p.power_kw:g}"] for p in net.points)
    write_csv(path, NETWORK_HEADER, rows, line_end="\r\n")
