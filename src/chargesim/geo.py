"""Great-circle geometry on a spherical Earth.

All distances are kilometres. The sphere radius is fixed to the IUGG mean
Earth radius so that results are bit-reproducible across runs and platforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

EARTH_RADIUS_KM = 6371.0088

# km per degree of latitude on the fixed sphere (also per degree of
# longitude at the equator)
KM_PER_DEG_LAT = math.pi * EARTH_RADIUS_KM / 180.0


@dataclass(frozen=True)
class GeoPoint:
    """A point on the sphere. Latitude in [-90, 90], longitude in [-180, 180)."""

    lat_deg: float
    lon_deg: float

    def __post_init__(self) -> None:
        if not -90.0 <= self.lat_deg <= 90.0:
            raise ValueError(f"latitude out of range: {self.lat_deg}")
        lon = self.lon_deg
        if not -180.0 <= lon < 180.0:
            if not math.isfinite(lon):
                raise ValueError(f"longitude not finite: {lon}")
            object.__setattr__(self, "lon_deg", wrap_lon(lon))


def wrap_lon(lon):
    """Finite longitudes, degrees, a float or an array, wrapped into [-180,
    180). Where the modulo rounds up to 180, the result is -180."""
    w = ((lon + 180.0) % 360.0) - 180.0
    return w - 360.0 * (w >= 180.0)


def distance_km(a: GeoPoint, b: GeoPoint) -> float:
    """Haversine great-circle distance between two points, in km.

    Symmetric, non-negative, and zero for identical points. The haversine
    form is numerically stable for nearby points, which dominate here.
    Near the antipode it is not: the asin argument rounds towards 1, so
    distances within about 2e-4 km of half the circumference are resolved
    no better than that, and a near-antipodal pair may come out as exactly
    half the circumference.
    """
    lat1 = math.radians(a.lat_deg)
    lat2 = math.radians(b.lat_deg)
    dlat = lat2 - lat1
    dlon = math.radians(b.lon_deg - a.lon_deg)
    s = (
        math.sin(dlat / 2.0) ** 2
        + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2.0) ** 2
    )
    # clamp guards rounding at antipodal points
    return 2.0 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(s)))


def offset_km(origin: GeoPoint, east_km: float, north_km: float) -> GeoPoint:
    """Displace a point by local east/north kilometre offsets.

    Uses the equirectangular approximation with the longitude scale taken at
    the displaced latitude. Accurate to well under 0.1% for offsets up to a
    few hundred km away from the poles; intended for building synthetic
    scenarios, not for navigation.
    """
    lat = origin.lat_deg + north_km / KM_PER_DEG_LAT
    scale = KM_PER_DEG_LAT * math.cos(math.radians(lat))
    if scale <= 0.0:
        raise ValueError("east offset undefined at the poles")
    return GeoPoint(lat, origin.lon_deg + east_km / scale)
