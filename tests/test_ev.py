import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chargesim.ev import (
    EvParams,
    charge_duration_h,
    effective_charge_kw,
    effective_speed_kph,
    max_leg_km,
    soc_drop,
)

EV = EvParams()


def test_default_charge_stop_duration():
    # 0.6 of a 24 kWh pack at 45 kW: 19.2 minutes
    h = charge_duration_h(EV, 0.20, 0.80, 45.0)
    assert h == pytest.approx(0.32, abs=1e-12)
    assert h * 60.0 == pytest.approx(19.2, abs=1e-9)


def test_ac_charge_stop_duration():
    h = charge_duration_h(EV, 0.20, 0.80, 22.0)
    assert h == pytest.approx(0.6545454545454547, abs=1e-12)


def test_effective_speed_values():
    assert effective_speed_kph(EV, 45.0) == pytest.approx(62.65822784810126, abs=1e-10)
    assert effective_speed_kph(EV, 22.0) == pytest.approx(47.55458515283843, abs=1e-10)
    assert effective_speed_kph(EV, 6.6) == pytest.approx(22.64033264033264, abs=1e-10)


@given(st.floats(min_value=1.0, max_value=44.0), st.floats(min_value=0.01, max_value=300.0))
@settings(max_examples=200)
def test_effective_speed_monotone_and_bounded(lo_kw, extra_kw):
    slow = effective_speed_kph(EV, lo_kw)
    fast = effective_speed_kph(EV, lo_kw + extra_kw)
    assert slow < fast < EV.speed_kph


def test_leg_lengths():
    assert max_leg_km(EV, 1.0, EV.reserve_soc) == pytest.approx(74.8, abs=1e-12)
    assert max_leg_km(EV, EV.charge_target_soc, EV.reserve_soc) == pytest.approx(
        56.10000000000001, abs=1e-12
    )
    # without the road-indirection discount the full usable band is 88 km
    flat = EvParams(route_scale=1.0)
    assert max_leg_km(flat, 1.0, flat.reserve_soc) == pytest.approx(88.0, abs=1e-12)


def test_leg_length_with_high_reserve():
    ev = EvParams(reserve_soc=0.28)
    assert max_leg_km(ev, ev.charge_target_soc, ev.reserve_soc) == pytest.approx(
        48.620000000000005, abs=1e-12
    )


def test_max_leg_rejects_net_gain():
    with pytest.raises(ValueError):
        max_leg_km(EV, 0.2, 0.8)


@given(st.floats(min_value=0.0, max_value=300.0))
@settings(max_examples=100)
def test_soc_drop_inverts_max_leg(leg):
    # driving the longest leg from full must land exactly on the reserve
    drop = soc_drop(EV, leg)
    assert max_leg_km(EV, 1.0, 1.0 - drop) == pytest.approx(leg, abs=1e-9)


def test_effective_charge_power_limits():
    assert effective_charge_kw(EV, "DC", 50.0) == 45.0
    assert effective_charge_kw(EV, "DC", 30.0) == 30.0
    assert effective_charge_kw(EV, "AC", 43.0) == 22.0
    assert effective_charge_kw(EV, "AC", 11.0) == 11.0
    with pytest.raises(ValueError):
        effective_charge_kw(EV, "CHAdeMO", 50.0)


def test_charge_duration_validation():
    with pytest.raises(ValueError):
        charge_duration_h(EV, 0.8, 0.2, 45.0)
    with pytest.raises(ValueError):
        charge_duration_h(EV, 0.2, 0.8, 0.0)


def test_params_validation():
    with pytest.raises(ValueError):
        EvParams(battery_kwh=0.0)
    with pytest.raises(ValueError):
        EvParams(speed_kph=-1.0)
    with pytest.raises(ValueError):
        EvParams(dc_charge_kw=0.0)
    with pytest.raises(ValueError):
        EvParams(reserve_soc=0.9)  # above the charge target
    with pytest.raises(ValueError):
        EvParams(charge_target_soc=1.1)
    with pytest.raises(ValueError):
        EvParams(route_scale=0.0)
    with pytest.raises(ValueError):
        EvParams(route_scale=1.2)


@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(EvParams)])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_params_must_be_finite(field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        EvParams(**{field: value})
