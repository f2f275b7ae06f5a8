import numpy as np
import pytest

from chargesim.reservations import Booking, ReservationLedger, SlotConflict

from helpers import MIN_H, minute_scan_slot, random_lattice_ledger


def test_booking_validation():
    with pytest.raises(ValueError):
        Booking("cp", 1, -0.1, 1.0)
    with pytest.raises(ValueError):
        Booking("cp", 1, 1.0, 1.0)
    with pytest.raises(ValueError):
        Booking("cp", 1, 1.0, 0.5)


@pytest.mark.parametrize(
    "start, end",
    [(float("nan"), 1.0), (0.0, float("nan")), (0.0, float("inf"))],
)
def test_booking_times_must_be_finite(start, end):
    with pytest.raises(ValueError):
        Booking("cp", 1, start, end)


def test_empty_point_starts_immediately():
    led = ReservationLedger()
    assert led.earliest_slot("cp", 2.5, 0.32) == 2.5


def test_slot_after_single_booking():
    led = ReservationLedger()
    led.commit(Booking("cp", 1, 1.0, 1.5))
    # not_before inside the booking: pushed to its end
    assert led.earliest_slot("cp", 1.0, 0.32) == 1.5
    # before the booking with room: keeps the early start
    assert led.earliest_slot("cp", 0.0, 1.0) == 0.0


def test_slot_uses_first_sufficient_gap():
    led = ReservationLedger()
    led.commit(Booking("cp", 1, 0.0, 1.0))
    led.commit(Booking("cp", 2, 1.4, 2.0))
    # 0.32 h fits in the [1.0, 1.4) gap even though not_before is 0.9
    assert led.earliest_slot("cp", 0.9, 0.32) == 1.0
    # 0.5 h does not fit there, so it lands after the second booking
    assert led.earliest_slot("cp", 0.9, 0.5) == 2.0


def test_adjacent_bookings_allowed():
    led = ReservationLedger()
    led.commit(Booking("cp", 1, 1.0, 1.5))
    led.commit(Booking("cp", 2, 1.5, 2.0))  # touching is not overlap
    led.commit(Booking("cp", 3, 0.5, 1.0))
    assert len(led) == 3


def test_overlap_rejected():
    led = ReservationLedger()
    led.commit(Booking("cp", 1, 1.0, 2.0))
    with pytest.raises(SlotConflict):
        led.commit(Booking("cp", 2, 1.9, 2.5))
    with pytest.raises(SlotConflict):
        led.commit(Booking("cp", 2, 0.5, 1.1))
    with pytest.raises(SlotConflict):
        led.commit(Booking("cp", 2, 1.2, 1.8))
    # same window on another point is fine
    led.commit(Booking("other", 2, 1.2, 1.8))


def test_zero_duration_is_free():
    led = ReservationLedger()
    led.commit(Booking("cp", 1, 0.0, 5.0))
    assert led.earliest_slot("cp", 2.0, 0.0) == 2.0


def test_negative_duration_rejected():
    led = ReservationLedger()
    with pytest.raises(ValueError):
        led.earliest_slot("cp", 0.0, -0.1)


def test_ignore_ev_masks_own_bookings():
    led = ReservationLedger()
    led.commit(Booking("cp", 7, 1.0, 2.0))
    led.commit(Booking("cp", 8, 2.0, 3.0))
    assert led.earliest_slot("cp", 1.0, 0.5) == 3.0
    assert led.earliest_slot("cp", 1.0, 0.5, ignore_ev=7) == 1.0
    # masking ev 8 removes its own [2, 3) booking, leaving only [1, 2)
    assert led.earliest_slot("cp", 1.0, 0.5, ignore_ev=8) == 2.0
    assert led.earliest_slot("cp", 1.0, 0.5, ignore_ev=9) == 3.0


def test_release_route():
    led = ReservationLedger()
    led.commit(Booking("a", 7, 1.0, 2.0))
    led.commit(Booking("b", 7, 3.0, 4.0))
    led.commit(Booking("a", 8, 2.0, 3.0))
    assert led.release_route(7) == 2
    assert len(led) == 1
    assert led.bookings_for("a")[0].ev_id == 8
    assert led.release_route(7) == 0
    assert led.release_route(999) == 0


def test_to_rows_sorted_by_point():
    led = ReservationLedger()
    led.commit(Booking("b", 1, 0.0, 1.0))
    led.commit(Booking("a", 2, 2.0, 3.0))
    led.commit(Booking("a", 3, 0.0, 1.0))
    rows = led.to_rows()
    assert rows == [("a", 3, 0.0, 1.0), ("a", 2, 2.0, 3.0), ("b", 1, 0.0, 1.0)]


def test_slot_agrees_with_minute_scan():
    # all times on the whole-minute lattice, so the scan is float-exact
    rng = np.random.default_rng(np.random.SeedSequence(555))
    for _ in range(200):
        led = random_lattice_ledger(rng)
        not_before = int(rng.integers(0, 600)) * MIN_H
        duration = int(rng.integers(1, 90)) * MIN_H
        got = led.earliest_slot("cp", not_before, duration)
        want = minute_scan_slot(led.bookings_for("cp"), not_before, duration)
        assert got == want


def test_slot_then_commit_never_conflicts():
    rng = np.random.default_rng(np.random.SeedSequence(556))
    led = ReservationLedger()
    for i in range(2000):
        cp = f"c{int(rng.integers(0, 5))}"
        not_before = float(rng.uniform(0.0, 30.0))
        duration = float(rng.uniform(0.05, 1.0))
        start = led.earliest_slot(cp, not_before, duration)
        assert start >= not_before
        led.commit(Booking(cp, i, start, start + duration))
    # the ledger invariant: per point, sorted and pairwise disjoint
    for cp in (f"c{k}" for k in range(5)):
        bs = led.bookings_for(cp)
        for u, v in zip(bs, bs[1:]):
            assert u.end_h <= v.start_h
