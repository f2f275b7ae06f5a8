"""Reservation ledger for unit-capacity charge points.

Bookings are half-open intervals [start_h, end_h) in continuous hours from
scenario start. A point serves one vehicle at a time, so the ledger's core
job is gap search: the earliest conflict-free start for a new interval.
Waiting vehicles do not hold the point; only the charging interval itself
is ever booked.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass


class SlotConflict(Exception):
    """A booking overlaps an existing reservation on the same point."""


@dataclass(frozen=True)
class Booking:
    cp_id: str
    ev_id: int
    start_h: float
    end_h: float

    def __post_init__(self) -> None:
        finite = math.isfinite(self.start_h) and math.isfinite(self.end_h)
        if not finite or self.start_h < 0 or self.end_h <= self.start_h:
            raise ValueError(f"bad booking interval [{self.start_h}, {self.end_h})")


class ReservationLedger:
    def __init__(self) -> None:
        self._by_cp: dict[str, list[Booking]] = {}
        self._cps_of_ev: dict[int, set[str]] = {}

    def __len__(self) -> int:
        return sum(len(v) for v in self._by_cp.values())

    def bookings_for(self, cp_id: str) -> list[Booking]:
        return list(self._by_cp.get(cp_id, ()))

    def earliest_slot(
        self, cp_id: str, not_before_h: float, duration_h: float, ignore_ev: int | None = None
    ) -> float:
        """Earliest start >= not_before_h with a conflict-free interval of
        the given length.

        ignore_ev masks one vehicle's own bookings, which replay needs when
        re-planning a route whose original reservations are being abandoned.
        """
        if duration_h < 0:
            raise ValueError(f"negative duration: {duration_h}")
        if duration_h == 0.0:
            return not_before_h
        t = not_before_h
        for b in self._by_cp.get(cp_id, ()):
            if ignore_ev is not None and b.ev_id == ignore_ev:
                continue
            if b.end_h <= t:
                continue
            if b.start_h >= t + duration_h:
                break  # sorted by start: the gap before this booking fits
            t = b.end_h
        return t

    def commit(self, booking: Booking) -> None:
        """Insert a booking, or raise SlotConflict if it overlaps."""
        slots = self._by_cp.setdefault(booking.cp_id, [])
        i = bisect.bisect_left(slots, (booking.start_h, booking.end_h), key=lambda b: (b.start_h, b.end_h))
        if i > 0 and slots[i - 1].end_h > booking.start_h:
            raise SlotConflict(f"{booking} overlaps {slots[i - 1]}")
        if i < len(slots) and slots[i].start_h < booking.end_h:
            raise SlotConflict(f"{booking} overlaps {slots[i]}")
        slots.insert(i, booking)
        self._cps_of_ev.setdefault(booking.ev_id, set()).add(booking.cp_id)

    def release_route(self, ev_id: int) -> int:
        """Drop every booking held by one vehicle; returns how many."""
        dropped = 0
        for cp_id in self._cps_of_ev.pop(ev_id, ()):
            slots = self._by_cp[cp_id]
            kept = [b for b in slots if b.ev_id != ev_id]
            dropped += len(slots) - len(kept)
            self._by_cp[cp_id] = kept
        return dropped

    def to_rows(self) -> list[tuple[str, int, float, float]]:
        """All bookings as (cp_id, ev_id, start_h, end_h), deterministically
        ordered for dumps."""
        rows = []
        for cp_id in sorted(self._by_cp):
            for b in self._by_cp[cp_id]:
                rows.append((b.cp_id, b.ev_id, b.start_h, b.end_h))
        return rows
