"""Population grid and trip endpoint sampling.

The country is a set of 1 km by 1 km cells, each with a population count.
Origins are drawn population-weighted; destinations are drawn
population-weighted from the ring of cells whose centres sit at the trip
distance from the origin. Sampled points are jittered uniformly inside
their cell so endpoints do not collapse onto cell centres.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.spatial import cKDTree

from .errors import DataError
from .geo import EARTH_RADIUS_KM, KM_PER_DEG_LAT, GeoPoint, offset_km

CELL_KM = 1.0

# ring half-width schedule, km: widen until candidates exist
RING_HALF_WIDTHS = (0.5, 1.0, 2.0, 5.0)

# slack on the candidate ball's chord radius on the unit sphere, relative
# and absolute; far above the rounding of the haversine and the unit vectors
_CHORD_REL_MARGIN = 1e-9
_CHORD_ABS_MARGIN = 1e-9


class RingEmpty(LookupError):
    """No populated cell at the requested distance; resample the trip length."""


@dataclass(frozen=True)
class Cell:
    center: GeoPoint
    population: float


@dataclass
class PopulationGrid:
    cells: list[Cell]
    _lat_rad: np.ndarray = field(init=False, repr=False)
    _lon_rad: np.ndarray = field(init=False, repr=False)
    _pops: np.ndarray = field(init=False, repr=False)
    _cum: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not self.cells:
            raise DataError("population grid has no cells")
        pops = np.array([c.population for c in self.cells], dtype=float)
        if not np.all(np.isfinite(pops)):
            raise DataError("population not finite")
        if np.any(pops < 0):
            raise DataError("negative population")
        if pops.sum() <= 0:
            raise DataError("total population is zero")
        self._lat_rad = np.radians([c.center.lat_deg for c in self.cells])
        self._lon_rad = np.radians([c.center.lon_deg for c in self.cells])
        self._pops = pops
        self._cum = np.cumsum(pops)

    @property
    def total_population(self) -> float:
        return float(self._cum[-1])

    def __len__(self) -> int:
        return len(self.cells)

    def __getstate__(self) -> dict:
        # the ring index is rebuilt on first use rather than pickled
        state = self.__dict__.copy()
        state.pop("_tree", None)
        return state

    @cached_property
    def _tree(self) -> cKDTree:
        """k-d tree over the cell centres' unit vectors."""
        return cKDTree(_unit_vectors(self._lat_rad, self._lon_rad))

    def distances_from(self, p: GeoPoint, idx: np.ndarray | None = None) -> np.ndarray:
        """Haversine distance from a point to every cell centre, km, or to
        the cells idx only. Element for element the same floats as the
        full scan."""
        lat_c, lon_c = self._lat_rad, self._lon_rad
        if idx is not None:
            lat_c, lon_c = lat_c[idx], lon_c[idx]
        lat = math.radians(p.lat_deg)
        lon = math.radians(p.lon_deg)
        s = (
            np.sin((lat_c - lat) / 2.0) ** 2
            + math.cos(lat) * np.cos(lat_c) * np.sin((lon_c - lon) / 2.0) ** 2
        )
        return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.minimum(1.0, np.sqrt(s)))

    def cells_within(self, p: GeoPoint, radius_km: float) -> np.ndarray:
        """Indices, ascending, of a superset of the cells whose centres lie
        within radius_km of p (every cell once the radius reaches the
        antipode)."""
        angle = radius_km / EARTH_RADIUS_KM
        # not (angle < pi) also sends nan to the full set
        chord = 2.0 * math.sin(angle / 2.0) if angle < math.pi else 2.0
        chord = chord * (1.0 + _CHORD_REL_MARGIN) + _CHORD_ABS_MARGIN
        x = _unit_vectors(math.radians(p.lat_deg), math.radians(p.lon_deg))
        hits = self._tree.query_ball_point(x, chord)
        return np.sort(np.fromiter(hits, dtype=np.intp, count=len(hits)))


def _unit_vectors(lat_rad, lon_rad) -> np.ndarray:
    """(..., 3) unit vectors of points given in radians."""
    cos_lat = np.cos(lat_rad)
    xyz = (cos_lat * np.cos(lon_rad), cos_lat * np.sin(lon_rad), np.sin(lat_rad))
    return np.stack(xyz, axis=-1)


def load_population_csv(path) -> PopulationGrid:
    """Read a ``lat,lon,population`` CSV into a grid.

    Raises DataError with the offending line number on malformed rows.
    """
    cells: list[Cell] = []
    try:
        fh = open(path, newline="")
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
            cells.append(Cell(center, pop))
    return PopulationGrid(cells)


def _jitter_within_cell(center: GeoPoint, rng: np.random.Generator) -> GeoPoint:
    # uniform over the cell's km square; the grid is 1 km cells
    east = rng.uniform(-CELL_KM / 2.0, CELL_KM / 2.0)
    north = rng.uniform(-CELL_KM / 2.0, CELL_KM / 2.0)
    return offset_km(center, east, north)


def sample_origin_cell(grid: PopulationGrid, rng: np.random.Generator) -> int:
    """Population-weighted cell index."""
    u = rng.random() * grid.total_population
    return int(np.searchsorted(grid._cum, u, side="right"))


def sample_origin(grid: PopulationGrid, rng: np.random.Generator) -> GeoPoint:
    idx = sample_origin_cell(grid, rng)
    return _jitter_within_cell(grid.cells[idx].center, rng)


def sample_destination(
    grid: PopulationGrid, origin: GeoPoint, trip_km: float, rng: np.random.Generator
) -> GeoPoint:
    """Population-weighted destination at roughly the trip distance.

    Candidate cells have centres within a half-width of the trip distance;
    the half-width widens on a fixed schedule so rejection stays rare on
    realistic grids. If even the widest ring is empty, raises RingEmpty and
    the caller draws a fresh trip length.

    The rings are cut from the cells the grid's k-d tree finds inside the
    widest ring's outer edge. Those stay in index order, so the weights,
    their cumulative sum and the pick are the floats a scan of every cell
    would give, and so are the draws.
    """
    if trip_km < 0:
        raise DataError(f"negative trip length: {trip_km}")
    cand = grid.cells_within(origin, trip_km + RING_HALF_WIDTHS[-1])
    d = grid.distances_from(origin, cand)
    for w in RING_HALF_WIDTHS:
        mask = np.abs(d - trip_km) <= w
        if not mask.any():
            continue
        ring = cand[mask]
        weights = grid._pops[ring]
        total = weights.sum()
        if total <= 0:
            continue
        cum = np.cumsum(weights)
        u = rng.random() * total
        pick = int(np.searchsorted(cum, u, side="right"))
        idx = int(ring[pick])
        return _jitter_within_cell(grid.cells[idx].center, rng)
    raise RingEmpty(f"no populated cell within {RING_HALF_WIDTHS[-1]} km of ring at {trip_km:.1f} km")
