"""Charge-point inventory with spatial queries.

Every charge point serves one vehicle at a time. Radius queries are served
from a latitude-sorted index: a latitude band is an exact prefilter because
great-circle distance is never less than the meridional separation, so the
band never excludes a true match.

Queries centred on a charge-point location, which is where the router
expands every label after its first stop, are memoized per location: the
network keeps the widest scan made there so far, as its radius and its
hits. A query at or inside that radius is a prefix of the hits, cut with a
bisection on the hits' distances; a wider one scans afresh and replaces the
memo. Both give the same list as a fresh scan, because the band prefilter
is exact and hits are sorted by (distance, id). Only the widest scan per
location is kept, so the memo holds one hit list per location, empty until
the first query. Other centres, such as trip origins, always scan.
"""

from __future__ import annotations

import bisect
import csv
import math
from dataclasses import dataclass, replace
from operator import itemgetter

from .errors import DataError
from .ev import AC, DC
from .files import NETWORK_HEADER, csv_body, is_blank
from .geo import KM_PER_DEG_LAT, GeoPoint, distance_km

KINDS = (DC, AC)

# memo entry of a location not queried yet: any radius is wider
_UNSCANNED: tuple[float, list] = (-1.0, [])


@dataclass(frozen=True)
class ChargePoint:
    id: str
    location: GeoPoint
    kind: str
    power_kw: float

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise DataError(f"charge point {self.id}: unknown kind {self.kind!r}")
        if not (math.isfinite(self.power_kw) and self.power_kw > 0):
            raise DataError(f"charge point {self.id}: power must be positive and finite")


class ChargeNetwork:
    def __init__(self, points: list[ChargePoint]) -> None:
        self.points = list(points)
        self.by_id: dict[str, ChargePoint] = {}
        for p in self.points:
            if p.id in self.by_id:
                raise DataError(f"duplicate charge point id: {p.id}")
            self.by_id[p.id] = p
        # latitude-sorted view for radius queries
        self._sorted = sorted(self.points, key=lambda p: p.location.lat_deg)
        self._lats = [p.location.lat_deg for p in self._sorted]
        # charge-point location -> widest scan there: (radius, hits)
        self._memo: dict[GeoPoint, tuple[float, list[tuple[float, ChargePoint]]]] = {
            p.location: _UNSCANNED for p in self.points
        }

    def __len__(self) -> int:
        return len(self.points)

    @property
    def n_dc(self) -> int:
        return sum(1 for p in self.points if p.kind == DC)

    @property
    def n_ac(self) -> int:
        return sum(1 for p in self.points if p.kind == AC)

    def within_radius(self, center: GeoPoint, radius_km: float) -> list[tuple[float, ChargePoint]]:
        """All points within the radius, as (distance, point) sorted by
        (distance, id)."""
        if radius_km < 0:
            raise ValueError(f"negative radius: {radius_km}")
        memo = self._memo.get(center)
        if memo is None:
            return self._scan(center, radius_km)
        if radius_km > memo[0]:
            hits = self._scan(center, radius_km)
            memo = self._memo[center] = (radius_km, hits)
        return memo[1][: bisect.bisect_right(memo[1], radius_km, key=itemgetter(0))]

    def any_within(self, center: GeoPoint, radius_km: float, exclude: frozenset[str] = frozenset()) -> bool:
        """Whether a point whose id is not excluded lies within the radius:
        the test of within_radius, stopping at the first such point. It
        neither reads nor fills the memo."""
        if radius_km < 0:
            raise ValueError(f"negative radius: {radius_km}")
        return any(
            p.id not in exclude and distance_km(center, p.location) <= radius_km
            for p in self._band(center, radius_km)
        )

    def _band(self, center: GeoPoint, radius_km: float) -> list[ChargePoint]:
        band = radius_km / KM_PER_DEG_LAT + 1e-9
        lo = bisect.bisect_left(self._lats, center.lat_deg - band)
        hi = bisect.bisect_right(self._lats, center.lat_deg + band)
        return self._sorted[lo:hi]

    def _scan(self, center: GeoPoint, radius_km: float) -> list[tuple[float, ChargePoint]]:
        hits = []
        for p in self._band(center, radius_km):
            d = distance_km(center, p.location)
            if d <= radius_km:
                hits.append((d, p))
        hits.sort(key=lambda t: (t[0], t[1].id))
        return hits

    def isolated_points(self, radius_km: float) -> list[ChargePoint]:
        """Points with no other point within the radius, in id order."""
        out = []
        for p in sorted(self.points, key=lambda p: p.id):
            hits = self.within_radius(p.location, radius_km)
            if all(q.id == p.id for _, q in hits):
                out.append(p)
        return out


def load_network_csv(path) -> ChargeNetwork:
    """Read an ``id,lat,lon,kind,power_kw`` CSV, UTF-8 text, quoted strictly.
    An empty body is an empty network. Errors name a record's first line."""
    points: list[ChargePoint] = []
    with csv_body(path, "charge network", NETWORK_HEADER) as (fh, first):
        reader = csv.reader(fh, strict=True)
        lineno = first  # the first line of the record being read
        try:
            for row in reader:
                if not is_blank(row):
                    if len(row) != 5:
                        raise DataError(f"expected 5 fields, got {len(row)}")
                    pid, lat, lon, kind, power = row
                    lat, lon, power = float(lat), float(lon), float(power)
                    points.append(ChargePoint(pid.strip(), GeoPoint(lat, lon), kind.strip().upper(), power))
                lineno = first + reader.line_num
        except UnicodeDecodeError:
            raise  # csv_body reports it
        except (csv.Error, ValueError) as exc:
            raise DataError(f"{path}: line {lineno}: {exc}") from exc
    return ChargeNetwork(points)


def add_colocated_redundancy(net: ChargeNetwork, target_ids: list[str]) -> ChargeNetwork:
    """A new network with one duplicate point beside each target id.

    Duplicates share the target's location, kind and power under a fresh id,
    so a fault at the original leaves a zero-distance fallback.
    """
    for tid in target_ids:
        if tid not in net.by_id:
            raise DataError(f"redundancy target not in network: {tid}")
    points = list(net.points)
    taken = set(net.by_id)
    for tid in target_ids:
        t = net.by_id[tid]
        n = 1
        while f"{tid}+r{n}" in taken:
            n += 1
        twin_id = f"{tid}+r{n}"
        taken.add(twin_id)
        points.append(replace(t, id=twin_id))
    return ChargeNetwork(points)
