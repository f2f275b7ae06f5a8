import numpy as np
import pytest

from chargesim.errors import DataError
from chargesim.geo import GeoPoint, distance_km, offset_km
from chargesim.network import (
    ChargeNetwork,
    ChargePoint,
    add_colocated_redundancy,
    load_network_csv,
)

ANCHOR = GeoPoint(10.0, 10.0)


def test_charge_point_validation():
    with pytest.raises(DataError, match="unknown kind"):
        ChargePoint("a", ANCHOR, "USB", 50.0)
    with pytest.raises(DataError, match="power"):
        ChargePoint("a", ANCHOR, "DC", 0.0)


@pytest.mark.parametrize("power", [float("nan"), float("inf")])
def test_charge_point_power_must_be_finite(power, tmp_path):
    with pytest.raises(DataError, match="finite"):
        ChargePoint("a", ANCHOR, "DC", power)
    path = tmp_path / "net.csv"
    path.write_text(f"id,lat,lon,kind,power_kw\ncp1,10,10,DC,{power}\n")
    with pytest.raises(DataError, match="line 2"):
        load_network_csv(path)


def test_duplicate_ids_rejected():
    p = ChargePoint("a", ANCHOR, "DC", 50.0)
    with pytest.raises(DataError, match="duplicate"):
        ChargeNetwork([p, ChargePoint("a", offset_km(ANCHOR, 1.0, 0.0), "AC", 22.0)])


def test_counts():
    net = ChargeNetwork(
        [
            ChargePoint("a", ANCHOR, "DC", 50.0),
            ChargePoint("b", offset_km(ANCHOR, 1.0, 0.0), "AC", 22.0),
            ChargePoint("c", offset_km(ANCHOR, 2.0, 0.0), "AC", 11.0),
        ]
    )
    assert len(net) == 3
    assert net.n_dc == 1
    assert net.n_ac == 2


def random_net(rng, n=500):
    pts = []
    for i in range(n):
        loc = offset_km(
            ANCHOR, float(rng.uniform(-300.0, 300.0)), float(rng.uniform(-300.0, 300.0))
        )
        kind = "DC" if rng.random() < 0.5 else "AC"
        pts.append(ChargePoint(f"n{i:03d}", loc, kind, 50.0))
    return ChargeNetwork(pts)


def test_within_radius_matches_brute_force():
    rng = np.random.default_rng(42)
    net = random_net(rng)
    for _ in range(1000):
        center = offset_km(
            ANCHOR, float(rng.uniform(-320.0, 320.0)), float(rng.uniform(-320.0, 320.0))
        )
        r = float(rng.uniform(0.0, 150.0))
        got = net.within_radius(center, r)
        want = sorted(
            (
                (distance_km(center, p.location), p)
                for p in net.points
                if distance_km(center, p.location) <= r
            ),
            key=lambda t: (t[0], t[1].id),
        )
        assert [(d, p.id) for d, p in got] == [(d, p.id) for d, p in want]


def test_within_radius_memo_matches_fresh_scan(monkeypatch):
    rng = np.random.default_rng(7)
    net = random_net(rng, n=300)
    calls = 0

    def counting_distance(a, b):
        nonlocal calls
        calls += 1
        return distance_km(a, b)

    monkeypatch.setattr("chargesim.network.distance_km", counting_distance)
    for p in net.points[:40]:
        center = p.location
        narrow = float(rng.uniform(20.0, 40.0))
        # exactly the distance of the nearest point outside the narrow scan
        beyond = next(d for d, _ in net._scan(center, 200.0) if d > narrow)
        wide = float(rng.uniform(60.0, 120.0))
        between = float(rng.uniform(0.0, wide))
        at_hit = net._scan(center, wide)[-1][0]  # exactly a hit's distance
        queries = [
            (narrow, False), (beyond, False), (wide, False),
            (between, True), (at_hit, True), (narrow, True),
        ]
        for r, memoized in queries:
            calls = 0
            got = net.within_radius(center, r)
            # inside the widest scan so far a query computes no distance
            assert (calls == 0) == memoized
            assert got == net._scan(center, r)

    # an off-network centre scans on every query
    off = offset_km(ANCHOR, 1.234, 5.678)
    for _ in range(2):
        calls = 0
        got = net.within_radius(off, 80.0)
        assert calls > 0
        assert got == net._scan(off, 80.0)


def test_any_within_agrees_with_within_radius():
    # the early-return query answers whether within_radius has a hit whose
    # id is not excluded, on and off charge-point locations, on the <= edge
    rng = np.random.default_rng(17)
    net = random_net(rng, n=120)
    ids = [p.id for p in net.points]
    seen = set()
    for k in range(3000):
        if k % 3 == 0:
            center = net.points[int(rng.integers(len(net)))].location
        else:
            center = offset_km(
                ANCHOR, float(rng.uniform(-340.0, 340.0)), float(rng.uniform(-340.0, 340.0))
            )
        r = float(rng.uniform(0.0, 120.0))
        if k % 5 == 0:
            # exactly the distance of a point, which the <= test keeps
            r = distance_km(center, net.points[int(rng.integers(len(net)))].location)
        hits = net.within_radius(center, r)
        exclude = frozenset(rng.choice(ids, size=int(rng.integers(0, 4)), replace=False))
        if hits and k % 4 == 0:
            exclude |= {p.id for _, p in hits[: int(rng.integers(1, len(hits) + 1))]}
        for ex in (frozenset(), exclude):
            want = any(p.id not in ex for _, p in hits)
            assert net.any_within(center, r, ex) == want
            seen.add((bool(ex), want))
    assert seen == {(False, False), (False, True), (True, False), (True, True)}
    with pytest.raises(ValueError):
        net.any_within(ANCHOR, -1.0)


def test_within_radius_edges():
    rng = np.random.default_rng(1)
    net = random_net(rng, n=50)
    assert net.within_radius(ANCHOR, 1e9) and len(net.within_radius(ANCHOR, 1e9)) == 50
    center = net.points[0].location
    zero = net.within_radius(center, 0.0)
    assert [p.id for _, p in zero] == [net.points[0].id]
    with pytest.raises(ValueError):
        net.within_radius(ANCHOR, -1.0)


def test_within_radius_tie_breaks_by_id():
    # two points equidistant from the probe
    net = ChargeNetwork(
        [
            ChargePoint("z", offset_km(ANCHOR, 5.0, 0.0), "DC", 50.0),
            ChargePoint("a", offset_km(ANCHOR, -5.0, 0.0), "DC", 50.0),
        ]
    )
    hits = net.within_radius(ANCHOR, 10.0)
    assert [p.id for _, p in hits] == ["a", "z"]


def test_isolated_points():
    net = ChargeNetwork(
        [
            ChargePoint("pair1", ANCHOR, "DC", 50.0),
            ChargePoint("pair2", offset_km(ANCHOR, 3.0, 0.0), "DC", 50.0),
            ChargePoint("loner", offset_km(ANCHOR, 100.0, 0.0), "DC", 50.0),
        ]
    )
    assert [p.id for p in net.isolated_points(10.0)] == ["loner"]
    assert [p.id for p in net.isolated_points(0.5)] == ["loner", "pair1", "pair2"]
    assert net.isolated_points(200.0) == []


def test_redundancy_twins():
    net = ChargeNetwork(
        [
            ChargePoint("a", ANCHOR, "DC", 50.0),
            ChargePoint("b", offset_km(ANCHOR, 30.0, 0.0), "AC", 22.0),
        ]
    )
    grown = add_colocated_redundancy(net, ["a", "b"])
    assert len(grown) == 4
    assert len(net) == 2  # original untouched
    twin = grown.by_id["a+r1"]
    assert twin.location == net.by_id["a"].location
    assert twin.kind == "DC" and twin.power_kw == 50.0
    # twice more: ids keep incrementing instead of colliding
    again = add_colocated_redundancy(grown, ["a"])
    assert "a+r2" in again.by_id
    assert add_colocated_redundancy(net, []) is not net
    with pytest.raises(DataError, match="target"):
        add_colocated_redundancy(net, ["missing"])


def test_loader_round_trip(tmp_path):
    path = tmp_path / "net.csv"
    path.write_text(
        "id,lat,lon,kind,power_kw\ncp1,10.0,10.0,DC,50\ncp2,10.1,10.0,ac,22\n"
    )
    net = load_network_csv(path)
    assert len(net) == 2
    assert net.by_id["cp2"].kind == "AC"  # kind is upper-cased on load


def test_loader_empty_body(tmp_path):
    path = tmp_path / "net.csv"
    path.write_text("id,lat,lon,kind,power_kw\n")
    assert len(load_network_csv(path)) == 0


def test_loader_error_lines(tmp_path):
    with pytest.raises(DataError, match="cannot read"):
        load_network_csv(tmp_path / "nope.csv")

    bad_header = tmp_path / "h.csv"
    bad_header.write_text("id,lat,lon\n")
    with pytest.raises(DataError, match="line 1"):
        load_network_csv(bad_header)

    bad_kind = tmp_path / "k.csv"
    bad_kind.write_text("id,lat,lon,kind,power_kw\ncp1,10,10,USB,50\n")
    with pytest.raises(DataError, match="line 2"):
        load_network_csv(bad_kind)

    bad_fields = tmp_path / "f.csv"
    bad_fields.write_text("id,lat,lon,kind,power_kw\ncp1,10,10,DC\n")
    with pytest.raises(DataError, match="line 2"):
        load_network_csv(bad_fields)

    empty = tmp_path / "e.csv"
    empty.write_text("")
    with pytest.raises(DataError, match="empty"):
        load_network_csv(empty)


def test_loader_rejects_a_quote_left_open(tmp_path):
    path = tmp_path / "net.csv"
    path.write_text('id,lat,lon,kind,power_kw\ncp1,0,12,DC,"50\n')
    with pytest.raises(DataError, match="line 2: unexpected end of data"):
        load_network_csv(path)
    # mid-file the open quote runs on over the rows after it; the error
    # names the line its record starts on
    path.write_text('id,lat,lon,kind,power_kw\ncp0,0,11,AC,22\ncp1,0,12,DC,"50\ncp2,0,13,AC,22\n')
    with pytest.raises(DataError, match="line 3: unexpected end of data"):
        load_network_csv(path)


def test_loader_errors_name_file_lines(tmp_path):
    # blank lines, and a quoted id that spans two lines, count as the
    # file's lines
    path = tmp_path / "net.csv"
    path.write_text('id,lat,lon,kind,power_kw\n\n   \n"cp\n1",0,12,DC,50\n\ncp2,0,13,USB,22\n')
    with pytest.raises(DataError, match="line 7: charge point cp2: unknown kind"):
        load_network_csv(path)
    path.write_text('id,lat,lon,kind,power_kw\n\n""\ncp1,0,12,DC,50\n\ncp2,0,13,AC\n')
    with pytest.raises(DataError, match="line 6: expected 5 fields, got 4"):
        load_network_csv(path)
