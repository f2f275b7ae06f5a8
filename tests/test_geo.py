import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chargesim.geo import EARTH_RADIUS_KM, KM_PER_DEG_LAT, GeoPoint, distance_km, offset_km, wrap_lon
from chargesim.population import load_population_csv

lat_st = st.floats(min_value=-89.0, max_value=89.0)
lon_st = st.floats(min_value=-180.0, max_value=180.0)
points_st = st.builds(GeoPoint, lat_st, lon_st)


def test_distance_identity_is_zero():
    p = GeoPoint(53.0, -8.0)
    assert distance_km(p, p) == 0.0


def test_one_degree_of_latitude():
    d = distance_km(GeoPoint(53.0, -8.0), GeoPoint(54.0, -8.0))
    assert d == pytest.approx(111.19508023353306, abs=1e-9)
    assert KM_PER_DEG_LAT == pytest.approx(111.1950802335329, abs=1e-10)


def test_antipodal_half_circumference():
    d = distance_km(GeoPoint(0.0, 0.0), GeoPoint(0.0, 180.0))
    assert d == pytest.approx(20015.114442035923, abs=1e-6)


@given(points_st, points_st)
@settings(max_examples=200)
def test_distance_symmetry(a, b):
    assert distance_km(a, b) == pytest.approx(distance_km(b, a), abs=1e-9)


def _haversine_error_km(d: float) -> float:
    # rounding bound for one haversine distance: the asin loses precision as
    # its argument nears 1, by 1/cos(d/2R), so near the antipode the result
    # is only good to about 2R*sqrt(eps) (~2e-4 km); under 0.9*pi*R this
    # stays below 4e-11 km
    eps = sys.float_info.epsilon
    cos_half = math.cos(d / (2.0 * EARTH_RADIUS_KM))
    return 4.0 * EARTH_RADIUS_KM * eps / max(cos_half, math.sqrt(eps))


@given(points_st, points_st, points_st)
@settings(max_examples=200)
# a and c almost antipodal: d(a, c) rounds up to half the circumference
@example(
    GeoPoint(48.33794867916265, 3.580286743025624),
    GeoPoint(-68.40606993400701, 44.089793073331265),
    GeoPoint(-48.33795055196366, -176.41971424462224),
)
def test_triangle_inequality(a, b, c):
    ac, ab, bc = distance_km(a, c), distance_km(a, b), distance_km(b, c)
    tol = 1e-9 + sum(_haversine_error_km(d) for d in (ac, ab, bc))
    assert ac <= ab + bc + tol


def test_latitude_range_is_validated():
    with pytest.raises(ValueError):
        GeoPoint(90.5, 0.0)
    with pytest.raises(ValueError):
        GeoPoint(-90.5, 0.0)


@pytest.mark.parametrize("lon", [math.nan, math.inf, -math.inf])
def test_longitude_must_be_finite(lon):
    with pytest.raises(ValueError, match="longitude"):
        GeoPoint(0.0, lon)


def test_longitude_is_normalized():
    p = GeoPoint(0.0, 190.0)
    assert p.lon_deg == pytest.approx(-170.0, abs=1e-12)
    q = GeoPoint(0.0, -190.0)
    assert q.lon_deg == pytest.approx(170.0, abs=1e-12)


# +-180 and +-540 and their float neighbours: (lon + 180) % 360 rounds
# 360 - 2.8e-14 up to 360 at the neighbour below -180
WRAP_EDGES = [
    float(v) for c in (-540.0, -180.0, 180.0, 540.0)
    for v in (np.nextafter(c, -np.inf), c, np.nextafter(c, np.inf))
]


def test_longitude_wrap_stays_below_180(tmp_path):
    assert GeoPoint(0.0, -180.00000000000003).lon_deg == -180.0
    scalar = [GeoPoint(0.0, v).lon_deg for v in WRAP_EDGES]
    assert all(-180.0 <= w < 180.0 for w in scalar)
    path = tmp_path / "edges.csv"
    path.write_text("lat,lon,population\n" + "".join(f"0,{v!r},1\n" for v in WRAP_EDGES))
    loaded = load_population_csv(path).lon_deg
    assert loaded.tobytes() == np.array(scalar).tobytes()
    # wrap_lon on floats and on an array: the same bits
    out = [v for v in WRAP_EDGES if not -180.0 <= v < 180.0]
    wrapped = wrap_lon(np.array(out))
    assert wrapped.tobytes() == np.array([wrap_lon(v) for v in out]).tobytes()
    assert np.all((wrapped >= -180.0) & (wrapped < 180.0))


def test_east_offset_exact_on_equator():
    # along the equator a pure-east offset is a great-circle arc, so the
    # haversine distance must recover the requested length
    anchor = GeoPoint(0.0, 30.0)
    for east in (1.0, 50.0, 150.0, 1000.0):
        p = offset_km(anchor, east, 0.0)
        assert distance_km(anchor, p) == pytest.approx(east, rel=1e-12)


def test_north_offset_matches_latitude_scale():
    anchor = GeoPoint(10.0, 10.0)
    p = offset_km(anchor, 0.0, 111.1950802335329)
    assert p.lat_deg == pytest.approx(11.0, abs=1e-12)
    assert p.lon_deg == anchor.lon_deg


@given(points_st, st.floats(-500, 500), st.floats(-500, 500))
@settings(max_examples=200)
def test_offset_stays_reasonably_metric(anchor, east, north):
    # local-plane offsets are not exactly haversine away from the anchor,
    # but at mid latitudes and a few hundred km they stay within a couple
    # of percent; this guards against unit mistakes (degrees vs radians)
    if abs(anchor.lat_deg) > 60.0:
        return
    try:
        p = offset_km(anchor, east, north)
    except ValueError:
        return
    want = math.hypot(east, north)
    if want < 1.0:
        return
    assert distance_km(anchor, p) == pytest.approx(want, rel=0.05)


def test_east_offset_undefined_at_pole():
    with pytest.raises(ValueError):
        offset_km(GeoPoint(89.0, 0.0), 1.0, 200.0)
