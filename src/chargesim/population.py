"""Population grid and trip endpoint sampling.

The country is a set of 1 km by 1 km cells, each with a population count.
Origins are drawn population-weighted; destinations are drawn
population-weighted from the ring of cells whose centres sit at the trip
distance from the origin. Sampled points are jittered uniformly inside
their cell so endpoints do not collapse onto cell centres.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DataError
from .files import POPULATION_HEADER, csv_body, is_blank
from .geo import EARTH_RADIUS_KM, GeoPoint, offset_km, wrap_lon

CELL_KM = 1.0

# ring half-width schedule, km: widen until candidates exist
RING_HALF_WIDTHS = (0.5, 1.0, 2.0, 5.0)

# side of the ring index's tiles, km
TILE_KM = 10.0

# slack on the ring cut, km, added to each side of the ring before its
# bounds become chords. The squared chord of an arc of angle a is
# 2 - 2 cos(a), so the slack moves a bound by at least
# (_TILE_MARGIN_KM / EARTH_RADIUS_KM)**2, about 2.5e-14, anywhere on
# [0, pi]. That covers with room the rounding of the unit vectors (about
# 3e-16 in chord) and of 2 - 2 u.o (about 2e-15), and the haversine's
# rounding near the antipode (about 2e-4 km, see geo.distance_km), which is
# about 1e-16 in its s = (chord / 2)**2. From half the circumference on,
# the outer bound is no bound (_chord gives inf), so a near-antipodal chord
# that rounds above 2 is still kept.
_TILE_MARGIN_KM = 1e-3


@dataclass(eq=False)
class PopulationGrid:
    """The cells as three arrays, one entry per cell: the centre's latitude
    and longitude, degrees, and the population."""

    lat_deg: np.ndarray
    lon_deg: np.ndarray
    population: np.ndarray
    _lat_rad: np.ndarray = field(init=False, repr=False)
    _lon_rad: np.ndarray = field(init=False, repr=False)
    _cum: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.lat_deg = np.asarray(self.lat_deg, dtype=float)
        self.lon_deg = np.asarray(self.lon_deg, dtype=float)
        pops = self.population = np.asarray(self.population, dtype=float)
        if not len(pops):
            raise DataError("population grid has no cells")
        if not np.all(np.isfinite(pops)):
            raise DataError("population not finite")
        if np.any(pops < 0):
            raise DataError("negative population")
        if pops.sum() <= 0:
            raise DataError("total population is zero")
        self._lat_rad = np.radians(self.lat_deg)
        self._lon_rad = np.radians(self.lon_deg)
        self._cum = np.cumsum(pops)

    @property
    def total_population(self) -> float:
        return float(self._cum[-1])

    def __len__(self) -> int:
        return len(self.population)

    def __getstate__(self) -> dict:
        # the ring index is rebuilt on first use rather than pickled
        state = self.__dict__.copy()
        state.pop("_tiles", None)
        return state

    @cached_property
    def _tiles(self) -> _Tiles:
        return _Tiles.build(self._lat_rad, self._lon_rad)

    def distances_from(self, p: GeoPoint, idx: np.ndarray | None = None) -> np.ndarray:
        """Haversine distance from a point to every cell centre, km, or to
        the cells idx only. Element for element the same floats as the
        full scan."""
        lat_c, lon_c = self._lat_rad, self._lon_rad
        if idx is not None:
            lat_c, lon_c = lat_c[idx], lon_c[idx]
        lat = math.radians(p.lat_deg)
        return _haversine_km(lat, math.cos(lat), math.radians(p.lon_deg), lat_c, lon_c)

    def rings_candidates(
        self, points: list[GeoPoint], trip_km: list[float], half_width_km: float
    ) -> list[np.ndarray]:
        """For each point and trip length, the indices, ascending, of the
        cells whose centres lie within half_width_km + _TILE_MARGIN_KM of
        the ring at that length from the point: a superset of the ring, cut
        by chord length from the cells of the tiles that can reach it. All
        the rings are cut together, with one product of the points and the
        tile centres, one chord cut over the kept tiles' cells and one sort
        of the (point, cell) keys."""
        t = self._tiles
        km = np.asarray(trip_km, dtype=float)
        lo = _chord(np.maximum(0.0, km - half_width_km - _TILE_MARGIN_KM))
        hi = _chord(km + half_width_km + _TILE_MARGIN_KM)
        o = _unit_vectors(
            np.radians([p.lat_deg for p in points]), np.radians([p.lon_deg for p in points])
        )
        # for unit vectors u and o, |u - o|**2 = 2 - 2 u.o; by the triangle
        # inequality a member's chord to a point is within its tile's
        # radius of the centre's. d[k, j] is point k's chord to tile j's
        # centre
        d = np.sqrt(np.maximum(2.0 - 2.0 * (o.T @ t.centre.T), 0.0))
        k, tile = np.nonzero((d - t.radius <= hi[:, None]) & (d + t.radius >= lo[:, None]))
        # each kept (point, tile) pair's run of positions in t.order, end to
        # end, and at each position its point's unit vector and the bounds
        # on u.o that put the squared chord 2 - 2 u.o in [lo**2, hi**2]. A
        # lower bound of 0 is none: a cell at the point may have a u.o that
        # rounds above 1
        start, length = t.start[tile], t.length[tile]
        ends = np.cumsum(length)
        pos = np.arange(int(length.sum())) + np.repeat(start - (ends - length), length)
        dot_hi = np.where(lo > 0.0, 1.0 - lo * lo / 2.0, math.inf)
        ox, oy, oz, dot_lo, dot_hi = np.repeat(
            np.vstack((o, 1.0 - hi * hi / 2.0, dot_hi))[:, k], length, axis=1
        )
        dot = t.x.take(pos) * ox + t.y.take(pos) * oy + t.z.take(pos) * oz
        hit = np.flatnonzero((dot >= dot_lo) & (dot <= dot_hi))
        # sorted (point, cell) keys, split at each point's first key
        n = len(self)
        keys = np.sort(k[np.searchsorted(ends, hit, side="right")] * n + t.order[pos[hit]])
        at = np.searchsorted(keys, np.arange(len(points) + 1) * n).tolist()
        return [keys[at[j] : at[j + 1]] - j * n for j in range(len(points))]


@dataclass(frozen=True)
class _Tiles:
    """The cells binned into tiles of about TILE_KM a side. order holds the
    cell indices tile by tile, ascending within a tile; tile k is
    order[start[k]:start[k] + length[k]], and x, y and z hold the
    components of the cells' unit vectors in that order, each its own
    contiguous column: a chord cut gathers the columns at scattered
    positions and sums three products, which is faster than summing the
    rows of gathered (x, y, z) triples. Every member lies within the chord
    radius[k] of the tile's centre, the unit vector centre[k]. The radius is
    measured from the members, so a query misses no cell whatever the
    binning."""

    order: np.ndarray
    start: np.ndarray
    length: np.ndarray
    centre: np.ndarray
    radius: np.ndarray
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray

    @classmethod
    def build(cls, lat_rad: np.ndarray, lon_rad: np.ndarray) -> _Tiles:
        # rows of TILE_KM in latitude, cut into columns of TILE_KM along
        # the row's middle latitude
        step = TILE_KM / EARTH_RADIUS_KM
        row = np.floor(lat_rad / step)
        row_lat = np.clip((row + 0.5) * step, -math.pi / 2.0, math.pi / 2.0)
        col_step = step / np.maximum(np.cos(row_lat), 1e-6)
        col = np.floor(lon_rad / col_step)
        order = np.lexsort((col, row))  # stable: ascending index within a tile
        row, col = row[order], col[order]
        start = np.flatnonzero(np.r_[True, (np.diff(row) != 0) | (np.diff(col) != 0)])
        length = np.diff(np.r_[start, len(order)])
        first = order[start]
        centre = _unit_vectors(row_lat[first], (col[start] + 0.5) * col_step[first]).T.copy()
        x, y, z = _unit_vectors(lat_rad[order], lon_rad[order])
        dx, dy, dz = (c - np.repeat(centre[:, j], length) for j, c in enumerate((x, y, z)))
        radius = np.maximum.reduceat(np.sqrt(dx * dx + dy * dy + dz * dz), start)
        # rings_candidates takes chords to the centres from 2 - 2 u.o,
        # which near 0 rounds by up to sqrt(1e-15), about 3e-8, in chord
        return cls(order, start, length, centre, radius + 1e-7, x, y, z)


def _unit_vectors(lat, lon) -> np.ndarray:
    """The unit vector (x, y, z) of each point in radians, along the first
    axis."""
    cos_lat = np.cos(lat)
    return np.array([cos_lat * np.cos(lon), cos_lat * np.sin(lon), np.sin(lat)])


def _chord(d_km: np.ndarray) -> np.ndarray:
    """The chord, on the unit sphere, of each arc of d_km; inf from half the
    circumference on, so a bound there keeps every chord, even one that
    rounds above 2."""
    a = d_km / (2.0 * EARTH_RADIUS_KM)
    return np.where(a < math.pi / 2.0, 2.0 * np.sin(a), math.inf)


def _haversine_km(lat, cos_lat, lon, lat_c, lon_c) -> np.ndarray:
    """Haversine distance, km, from (lat, lon) to (lat_c, lon_c), all in
    radians; cos_lat is cos(lat)."""
    s = (
        np.sin((lat_c - lat) / 2.0) ** 2
        + cos_lat * np.cos(lat_c) * np.sin((lon_c - lon) / 2.0) ** 2
    )
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.minimum(1.0, np.sqrt(s)))


def load_population_csv(path) -> PopulationGrid:
    """Read a ``lat,lon,population`` CSV into a grid: UTF-8 text, that
    header, then one cell a line. Blank records are skipped, fields may be
    quoted and lines may end in CRLF. The body, blank lines dropped (see
    _body_lines), is parsed by one np.loadtxt call and checked as arrays;
    longitudes are wrapped as in GeoPoint. A body that fails is split into
    records by _records_to_cells and parsed again.

    Raises DataError with the offending line number on malformed rows.
    """
    with csv_body(path, "population grid", POPULATION_HEADER) as (fh, _):
        lines = _body_lines(fh)
        head = next(lines, None)
        # an empty body is left to PopulationGrid's "no cells" error;
        # loadtxt would warn on it
        cells = np.empty((0, 3)) if head is None else _parse(itertools.chain((head,), lines))
    if cells is None or _bad_cells(cells).any():
        cells = _records_to_cells(path)
    lat, lon, pop = cells.T.copy()
    out = (lon < -180.0) | (lon >= 180.0)
    lon[out] = wrap_lon(lon[out])
    return PopulationGrid(lat, lon, pop)


def _body_lines(fh):
    """The lines of fh that may hold a row or part of one. A line of spaces
    is dropped, even inside a quoted field, where it is only space around
    a number; so is a line that starts outside any quoted field and
    that csv reads alone as one blank field, such as "". Inside a quoted
    field that runs over a line end such a line is kept: there "" is an
    escaped quote, and a lone quote closes the field. Quotes open and close
    fields, and an escaped quote is two of them, so a line starts inside a
    field when the quotes before it are odd in number."""
    inside = False
    for line in fh:
        if '"' not in line:
            if "," in line or line.strip():
                yield line
            continue
        odd = line.count('"') % 2 == 1
        if inside or odd or "," in line or not is_blank(next(csv.reader([line]))):
            yield line
        inside ^= odd


def _loadtxt(rows, dtype=float) -> np.ndarray:
    return np.loadtxt(rows, dtype=dtype, delimiter=",", ndmin=2, comments=None, quotechar='"')


def _parse(rows) -> np.ndarray | None:
    """The rows as an (n, 3) array, or None when loadtxt rejects one or they
    do not hold three fields each."""
    try:
        cells = _loadtxt(rows)
    except UnicodeDecodeError:
        raise
    except ValueError:
        return None
    return cells if cells.shape[1] == 3 else None


def _bad_cells(cells: np.ndarray) -> np.ndarray:
    """Which parsed rows are not cells: population not finite or negative,
    latitude outside [-90, 90] or NaN, longitude not finite."""
    lat, lon, pop = cells.T
    return ~np.isfinite(pop) | (pop < 0) | ~((lat >= -90.0) & (lat <= 90.0)) | ~np.isfinite(lon)


def _records_to_cells(path) -> np.ndarray:
    """The cells of path, its body split into records by a strict
    csv.reader, records that csv reads as blank skipped; a quoted field may
    span lines. Raises DataError naming the line of the first record that
    is not a cell. A record that csv.reader rejects, which np.loadtxt may
    still read, is the fault named, unless a record before it is bad. A
    record that does not parse is found by bisection over the records with
    the fast path's parser. Only this path numbers the lines."""
    with csv_body(path, "population grid", POPULATION_HEADER) as (fh, first):
        body = list(fh)
    records, starts = [], []  # each record's text, and the line it starts on
    reader = csv.reader(body, strict=True)
    read = 0  # lines taken into records
    broken = None
    try:
        for row in reader:
            if not is_blank(row):
                records.append("".join(body[read : reader.line_num]))
                starts.append(first + read)
            read = reader.line_num
    except csv.Error as exc:
        broken = DataError(f"{path}: line {first + read}: {exc}")
    n_split = len(records)
    if broken is not None:
        # the rejected record and all after it, as one unit
        records.append("".join(body[read:]))
    # records[:lo] parse, as the arrays in good; when lo < hi,
    # records[lo:hi] hold a row that does not
    lo, hi = 0, len(records)
    good = [np.empty((0, 3))]
    whole = _parse(records) if records else good[0]
    if whole is not None:
        lo, good = hi, [whole]
    while hi - lo > 1:
        mid = (lo + hi) // 2
        part = _parse(records[lo:mid])
        if part is None:
            hi = mid
        else:
            good.append(part)
            lo = mid
    cells = np.concatenate(good)
    bad = _bad_cells(cells)
    if bad.any():
        k = int(np.argmax(bad))
        if k < n_split:
            lat, lon, pop = map(float, cells[k])
            why = (f"population not finite: {pop}" if not math.isfinite(pop)
                   else f"negative population {pop}" if pop < 0
                   else f"latitude out of range: {lat}" if not -90.0 <= lat <= 90.0
                   else f"longitude not finite: {lon}")
            raise DataError(f"{path}: line {starts[k]}: {why}")
    elif lo < n_split:
        where = f"{path}: line {starts[lo]}"
        n_fields = _loadtxt(records[lo : lo + 1], dtype=str).shape[1]
        if n_fields != 3:
            raise DataError(f"{where}: expected 3 fields, got {n_fields}")
        try:
            _loadtxt(records[lo : lo + 1])
        except ValueError as exc:
            raise DataError(f"{where}: {str(exc).replace(' at row 0, column ', ' in column ')}") from exc
        raise DataError(f"{where}: cannot parse the row")
    if broken is not None:
        raise broken
    return cells


def _cell_point(grid: PopulationGrid, idx: int, u_east: float, u_north: float) -> GeoPoint:
    # uniform over the cell's km square; the grid is 1 km cells. Each offset
    # is the float Generator.uniform(lo, hi) gives for the draw u, without
    # its argument handling
    center = GeoPoint(float(grid.lat_deg[idx]), float(grid.lon_deg[idx]))
    lo, hi = -CELL_KM / 2.0, CELL_KM / 2.0
    try:
        return offset_km(center, lo + (hi - lo) * u_east, lo + (hi - lo) * u_north)
    except ValueError as exc:
        # a cell at or next to a pole has no east offset, or its square
        # passes the pole
        raise DataError(f"cannot place a point in population cell {idx} at {center}: {exc}") from exc


def sample_origins(
    grid: PopulationGrid, u_cell: np.ndarray, u_east: np.ndarray, u_north: np.ndarray
) -> list[GeoPoint]:
    """Population-weighted origins, one per trip, from each trip's three
    draws: the cell, then the point's east and north offsets in it."""
    cells = np.searchsorted(grid._cum, u_cell * grid.total_population, side="right")
    return [
        _cell_point(grid, c, e, n)
        for c, e, n in zip(cells.tolist(), u_east.tolist(), u_north.tolist())
    ]


def _pick_in_ring(
    grid: PopulationGrid,
    origin: GeoPoint,
    trip_km: float,
    half_width_km: float,
    cand: np.ndarray,
    rng: np.random.Generator,
) -> GeoPoint | None:
    """A population-weighted point in a cell of the ring of half_width_km
    at trip_km from origin, whose cells cand holds in index order: one draw
    for the cell, two for the point in it. None, with no draw taken, when
    the ring holds no population."""
    d = grid.distances_from(origin, cand)
    ring = cand[np.abs(d - trip_km) <= half_width_km]
    weights = grid.population[ring]
    total = weights.sum()
    if total <= 0:
        return None
    cum = np.cumsum(weights)
    pick = int(np.searchsorted(cum, rng.random() * total, side="right"))
    if pick == len(ring):
        # the pairwise sum may round above the running sum's end, and a
        # draw past that end belongs to the last populated cell
        pick = int(np.flatnonzero(weights)[-1])
    return _cell_point(grid, int(ring[pick]), rng.random(), rng.random())


def sample_destinations(
    grid: PopulationGrid,
    origins: list[GeoPoint],
    trip_km: list[float],
    rngs: list[np.random.Generator],
) -> list[GeoPoint | None]:
    """For each trip, a population-weighted destination at roughly trip_km
    from its origin, drawn from its own generator; None where every ring
    is empty, with no draw taken, and the caller draws a fresh length.

    Candidate cells have centres within a half-width of the trip distance;
    the half-width widens on a fixed schedule (RING_HALF_WIDTHS) so that
    an empty ring stays rare on realistic grids. At each half-width the
    rings of every trip still without a destination are cut together by
    chord length from the grid's tiles (PopulationGrid.rings_candidates):
    each ring's cells, and any within _TILE_MARGIN_KM of its edges. The
    haversine of distances_from then picks each ring from them exactly.
    The candidates stay in index order, so the weights, their cumulative
    sum and the pick are the floats a scan of every cell would give, and
    so are the draws.
    """
    for km in trip_km:
        if km < 0:
            raise DataError(f"negative trip length: {km}")
    dests: list[GeoPoint | None] = [None] * len(origins)
    todo = range(len(origins))
    for w in RING_HALF_WIDTHS:
        if not todo:
            break
        cands = grid.rings_candidates([origins[j] for j in todo], [trip_km[j] for j in todo], w)
        for j, cand in zip(todo, cands):
            dests[j] = _pick_in_ring(grid, origins[j], trip_km[j], w, cand, rngs[j])
        todo = [j for j in todo if dests[j] is None]
    return dests
