"""Vehicle energy and time arithmetic.

A single vehicle model covers the whole fleet: fixed usable battery, fixed
cruise speed, linear energy use with distance. Charging is limited by the
lower of the charge point's rating and the vehicle-side limit for that
connector kind (DC fast charging vs the onboard AC charger).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

DC = "DC"
AC = "AC"


@dataclass(frozen=True)
class EvParams:
    battery_kwh: float = 24.0
    speed_kph: float = 90.0
    max_range_km: float = 110.0
    dc_charge_kw: float = 45.0
    onboard_ac_limit_kw: float = 22.0
    reserve_soc: float = 0.20
    charge_target_soc: float = 0.80
    route_scale: float = 0.85

    def __post_init__(self) -> None:
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite: {getattr(self, f.name)}")
        if min(self.battery_kwh, self.speed_kph, self.max_range_km) <= 0:
            raise ValueError("battery, speed and range must be positive")
        if min(self.dc_charge_kw, self.onboard_ac_limit_kw) <= 0:
            raise ValueError("charge powers must be positive")
        if not 0.0 <= self.reserve_soc < self.charge_target_soc <= 1.0:
            raise ValueError(
                f"need 0 <= reserve ({self.reserve_soc}) < charge target "
                f"({self.charge_target_soc}) <= 1"
            )
        if not 0.0 < self.route_scale <= 1.0:
            raise ValueError(f"route_scale out of (0, 1]: {self.route_scale}")


def max_leg_km(p: EvParams, from_soc: float, to_soc: float) -> float:
    """Longest point-to-point leg from one state of charge down to another.

    The route scale discounts straight-line range for road indirection, so a
    leg of this length consumes exactly (from_soc - to_soc) of charge.
    """
    if to_soc > from_soc:
        raise ValueError(f"to_soc {to_soc} exceeds from_soc {from_soc}")
    return (from_soc - to_soc) * p.max_range_km * p.route_scale


def soc_drop(p: EvParams, leg_km: float) -> float:
    """State-of-charge consumed by a point-to-point leg."""
    return leg_km / (p.max_range_km * p.route_scale)


def effective_charge_kw(p: EvParams, kind: str, point_power_kw: float) -> float:
    """Power actually delivered at a point: min of point rating and the
    vehicle limit for that connector kind."""
    if kind == DC:
        return min(point_power_kw, p.dc_charge_kw)
    if kind == AC:
        return min(point_power_kw, p.onboard_ac_limit_kw)
    raise ValueError(f"unknown charge point kind: {kind!r}")


def charge_duration_h(p: EvParams, from_soc: float, to_soc: float, power_kw: float) -> float:
    """Hours to charge between two states at a given effective power."""
    if to_soc < from_soc:
        raise ValueError(f"cannot charge downward: {from_soc} -> {to_soc}")
    if power_kw <= 0:
        raise ValueError("power must be positive")
    return (to_soc - from_soc) * p.battery_kwh / power_kw


def effective_speed_kph(p: EvParams, charge_kw: float) -> float:
    """Long-haul effective speed when cruising and recharging alternate.

    The steady cycle drives the 20%-to-80% band of usable range, then
    recharges that band at the given effective power. Unscaled range is used:
    this is a diagnostic on the vehicle itself, not on routed geometry.
    """
    cycle_km = (p.charge_target_soc - p.reserve_soc) * p.max_range_km
    drive_h = cycle_km / p.speed_kph
    charge_h = charge_duration_h(p, p.reserve_soc, p.charge_target_soc, charge_kw)
    return cycle_km / (drive_h + charge_h)
