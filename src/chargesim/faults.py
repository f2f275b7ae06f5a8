"""Fault injection and stranding analysis.

Each charge point fails independently with probability p_f. Committed
routes are replayed against a fault mask: a vehicle drives its plan until
the first faulty stop, then re-plans from that point with whatever charge
it arrived on. The reroute may spend the reserve (down to empty, never
below), avoids every faulted point, and respects other vehicles'
reservations; nothing is booked during replay, so one vehicle's fault never
cascades into another's schedule. A vehicle that can reach neither an
operational point nor its destination is stranded.

Sweeps over p_f reuse one uniform draw per point per mask (common random
numbers), which makes the stranding curve exactly monotone in p_f.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace

import numpy as np

from .network import ChargeNetwork
from .reservations import ReservationLedger
from .router import AWARE, RoutePlan, RouterConfig, TripRequest, Unroutable, plan_route
from .stats import wilson_interval

COMPLETED = "completed"
REROUTED = "rerouted"
STRANDED = "stranded"


@dataclass(frozen=True)
class ReplayOutcome:
    status: str
    extra_time_h: float = 0.0
    first_faulty_cp: str | None = None


def sample_fault_masks(
    net: ChargeNetwork, p_fs: list[float], rng: np.random.Generator
) -> list[frozenset[str]]:
    """One mask per p_f from one uniform per point, drawn in id order so the
    sequence is reproducible. A point is down when its uniform is below p_f,
    so the masks nest as p_f rises (common random numbers)."""
    ids = sorted(net.by_id)
    u = rng.random(len(ids))
    return [frozenset(pid for pid, x in zip(ids, u) if x < p_f) for p_f in p_fs]


def replay_trip(
    plan: RoutePlan,
    mask: frozenset[str],
    net: ChargeNetwork,
    ledger: ReservationLedger,
    cfg: RouterConfig,
) -> ReplayOutcome:
    """Drive a committed plan against a fault mask."""
    faulty = None
    for s in plan.stops:
        if s.cp_id in mask:
            faulty = s
            break
    if faulty is None:
        return ReplayOutcome(COMPLETED)
    here = net.by_id[faulty.cp_id].location
    req = TripRequest(plan.ev_id, here, plan.destination, depart_h=faulty.arrival_h)
    # reroutes honour existing reservations even when the original plan was
    # made blind, so replay always queries the ledger
    replan = plan_route(
        req, net, ledger, dc_replace(cfg, mode=AWARE),
        initial_soc=faulty.soc_in,
        reserve_floor=0.0,
        exclude=mask,
        ignore_ev=plan.ev_id,
    )
    if isinstance(replan, Unroutable):
        return ReplayOutcome(STRANDED, first_faulty_cp=faulty.cp_id)
    extra = max(0.0, replan.arrival_h - plan.arrival_h)
    return ReplayOutcome(REROUTED, extra_time_h=extra, first_faulty_cp=faulty.cp_id)


def estimate_ps_first_order(p_c: float, p_f: float, n_isolated: int, n_total: int) -> float:
    """First-order stranding estimate: a charging trip strands when its
    stop lands on an isolated point (share n_isolated/n_total of points)
    and that point is down."""
    if n_total <= 0:
        return 0.0
    return p_c * p_f * n_isolated / n_total


@dataclass(frozen=True)
class SweepRow:
    p_f: float
    trips: int
    needed_charge: int
    stranded: int
    unroutable: int

    @property
    def p_s(self) -> float:
        return self.stranded / self.trips if self.trips else 0.0

    @property
    def ci_low(self) -> float:
        return wilson_interval(self.stranded, self.trips)[0]

    @property
    def ci_high(self) -> float:
        return wilson_interval(self.stranded, self.trips)[1]

    def merge(self, other: "SweepRow") -> "SweepRow":
        """The row over both rows' trips; counts add, the rates follow."""
        if other.p_f != self.p_f:
            raise ValueError(f"cannot merge sweep rows at p_f {self.p_f} and {other.p_f}")
        return SweepRow(
            p_f=self.p_f,
            trips=self.trips + other.trips,
            needed_charge=self.needed_charge + other.needed_charge,
            stranded=self.stranded + other.stranded,
            unroutable=self.unroutable + other.unroutable,
        )


def run_fault_sweep(
    plans: list[RoutePlan],
    n_unroutable: int,
    net: ChargeNetwork,
    ledger: ReservationLedger,
    cfg: RouterConfig,
    p_f_grid: list[float],
    n_masks: int,
    seed: int,
) -> list[SweepRow]:
    """Replay a committed route set under masks drawn at each p_f.

    Counts aggregate over masks: `trips` is journeys replayed plus the
    unroutable ones carried through for the denominator, and p_s is
    stranded over trips. The binomial interval ignores the correlation
    between trips sharing a mask, so read it as a scale, not a guarantee.
    """
    grid = sorted(set(p_f_grid))
    charging = [p for p in plans if p.stops]
    n_charging_flagged = sum(1 for p in plans if p.needed_charge)
    stranded = {p_f: 0 for p_f in grid}
    for m in range(n_masks):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(m,)))
        for p_f, mask in zip(grid, sample_fault_masks(net, grid, rng)):
            if not mask:
                continue
            for plan in charging:
                out = replay_trip(plan, mask, net, ledger, cfg)
                if out.status == STRANDED:
                    stranded[p_f] += 1
    trips = (len(plans) + n_unroutable) * n_masks
    return [
        SweepRow(
            p_f=p_f,
            trips=trips,
            needed_charge=n_charging_flagged * n_masks,
            stranded=stranded[p_f],
            unroutable=n_unroutable * n_masks,
        )
        for p_f in grid
    ]
