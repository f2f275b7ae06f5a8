"""Fault injection and stranding analysis.

Each charge point fails independently with probability p_f. Committed
routes are replayed against a fault mask: a vehicle drives its plan until
the first faulty stop, then must finish from there on the charge it
arrived with. It may spend the reserve (down to empty, never below) and
must avoid every faulted point. Stranding is a reachability verdict: a
vehicle is stranded when no sequence of points outside the mask gets it to
its destination. Reservations never decide it, because the ledger always
yields a slot and a wait never changes whether a trip can finish, so the
verdict depends on charge alone.

A max-charge search gives the verdict and the path that proves it. It
keeps the highest departure charge per point and uses the router's leg
arithmetic, so it finds a path exactly when plan_route, given the same
start, charge, floor 0 and faulted points, returns a plan. The router is
consulted only for a trip that cannot finish, which it reports
unroutable; that re-plan honours other vehicles' reservations and books
nothing, so one vehicle's fault never cascades into another's schedule.
The one difference from asking the router every time: a trip where
plan_route would pop MAX_LABELS labels before finding a route that exists
now counts as rerouted, not stranded.

Sweeps over p_f reuse one uniform draw per point per mask (common random
numbers), which makes the stranding curve exactly monotone in p_f. The
sweep runs plan by plan over blocks of masks, not mask by mask: one array
test finds each mask's first faulty stop of a plan, and a finishing path
found from that stop clears, in one more array test, every mask that
leaves its points up. A path's feasibility depends on its start, its
charge and its points alone, so the reuse is exact, and only the masks
that no path found so far avoids are replayed.

Mask m draws its uniforms from PCG64 seeded by SeedSequence(seed,
spawn_key=(m,)). The sweep seeds a block of masks in one pass: the
SeedSequence hashing runs as uint32 array arithmetic over the block's mask
ids and PCG64's seeding as integer arithmetic, and one generator, loaded
with each mask's state, draws its row. NEP 19 keeps both numpy streams
fixed, so the rows are exactly numpy's per-mask draws.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace as dc_replace

import numpy as np

from .ev import EvParams, soc_drop
from .geo import GeoPoint, distance_km
from .network import ChargeNetwork, ChargePoint
from .reservations import ReservationLedger
from .router import (
    AWARE, RoutePlan, RouterConfig, TripRequest, Unroutable, plan_route, span_km,
)
from .stats import wilson_interval

COMPLETED = "completed"
REROUTED = "rerouted"
STRANDED = "stranded"

# masks drawn at a time by run_fault_sweep: 512 rows of 708 points hold 2.9 MB
MASK_BLOCK = 512


def _down(ids: np.ndarray, u: np.ndarray, p_f: float) -> frozenset[str]:
    """The points down at p_f: those whose uniform is below it. `ids` holds
    the point ids in sorted order, as an object array."""
    return frozenset(ids[u < p_f].tolist())


def sample_fault_masks(
    net: ChargeNetwork, p_fs: list[float], rng: np.random.Generator
) -> list[frozenset[str]]:
    """One mask per p_f from one uniform per point, drawn in id order so the
    sequence is reproducible. A point is down when its uniform is below p_f,
    so the masks nest as p_f rises (common random numbers)."""
    ids = np.array(sorted(net.by_id), dtype=object)
    u = rng.random(len(ids))
    return [_down(ids, u, p_f) for p_f in p_fs]


# SeedSequence's hash and mix constants (numpy's bit_generator.pyx), and
# PCG64's 128-bit multiplier
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M32, _M128 = (1 << 32) - 1, (1 << 128) - 1


def _hasher(h: int, mult: int):
    """SeedSequence's hash of uint32 words, with its running constant h:
    each call xors the words with h, steps h by mult and multiplies the
    words by the new h."""
    def hash_words(v: np.ndarray) -> np.ndarray:
        nonlocal h
        x, h = h, h * mult & _M32
        v = (v ^ np.uint32(x)) * np.uint32(h)
        return v ^ (v >> np.uint32(16))
    return hash_words


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
    return r ^ (r >> np.uint32(16))


def _mask_uniforms(n_points: int, seed: int, masks: range) -> np.ndarray:
    """The uniforms of the masks in `masks`, a row each in that order: mask
    m's row is what sample_fault_masks draws from SeedSequence(seed,
    spawn_key=(m,)), one uniform per point in id order.

    The masks are seeded together, as numpy seeds each alone. SeedSequence
    hashes the seed's uint32 words, zero-padded to its pool of four, into
    the pool and mixes the pool, and mixes in any seed word past the
    fourth; that part is the same for every mask, so it runs once. Each
    word of the spawn key (one for m below 2**32, two from there) is then
    mixed into the pool, and generate_state(4, uint64) hashes the pool
    into eight words, all in uint32 arithmetic over the block's masks.
    PCG64 seeds its 128-bit (state, inc) from those words by two LCG
    steps, done in Python ints, and one generator, loaded with each
    mask's (state, inc), draws the mask's row. NEP 19 fixes the streams of
    SeedSequence and PCG64 across numpy versions, so every row is exactly
    the per-mask draw; a test compares them bit for bit.
    """
    if seed < 0:
        raise ValueError("seed must be non-negative")
    u = np.empty((len(masks), n_points))
    hash_words = _hasher(_INIT_A, _MULT_A)
    entropy = [np.array([(seed >> k) & _M32], dtype=np.uint32)
               for k in range(0, max(seed.bit_length(), 1), 32)]
    entropy += [np.zeros(1, dtype=np.uint32)] * (4 - len(entropy))
    pool = [hash_words(w) for w in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hash_words(pool[src]))
    for w in entropy[4:]:
        pool = [_mix(p, hash_words(w)) for p in pool]
    m = np.arange(masks.start, masks.stop, masks.step, dtype=np.uint64)
    low = (m & np.uint64(_M32)).astype(np.uint32)
    pool = [_mix(p, hash_words(low)) for p in pool]
    two = np.flatnonzero(m >> np.uint64(32))
    high = (m[two] >> np.uint64(32)).astype(np.uint32)
    for p in pool:
        p[two] = _mix(p[two], hash_words(high))
    hash_words = _hasher(_INIT_B, _MULT_B)
    w = [hash_words(pool[i % 4]).astype(np.uint64) for i in range(8)]
    words = [(w[i] | w[i + 1] << np.uint64(32)).tolist() for i in range(0, 8, 2)]
    bits = np.random.PCG64(0)
    draw = np.random.Generator(bits).random
    state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0}
    for row, s_high, s_low, i_high, i_low in zip(u, *words):
        inc = (i_high << 65 | i_low << 1 | 1) & _M128
        s = ((s_high << 64 | s_low) + inc) * _PCG_MULT + inc
        state["state"] = {"state": s & _M128, "inc": inc}
        bits.state = state
        draw(out=row)
    return u


def finishing_path(
    start: GeoPoint,
    soc: float,
    destination: GeoPoint,
    net: ChargeNetwork,
    ev: EvParams,
    exclude: frozenset[str],
    to_dest: dict[GeoPoint, float],
) -> tuple[str, ...] | None:
    """The ids of the points on a path outside `exclude` that takes a
    vehicle at `start` with charge `soc` to the destination, at floor 0:
    () when it needs no stop, None when there is no such path.

    Points pop in order of their best departure charge. A stop charges to
    the target or keeps a higher arrival charge, so a point's departure
    charge never falls below the target and never exceeds the charge it
    was reached from: the first pop of a point holds its highest charge,
    and the point it was reached from is final by then. More charge
    reaches a superset of legs, so keeping only the highest is exact. A
    point is tested against the destination when its charge is raised, so
    the search ends at the first point that can finish. `to_dest` caches
    the km from each location to the destination.
    """
    target = ev.charge_target_soc
    best: dict[str, float] = {}
    came_from: dict[str, str | None] = {}
    heap: list[tuple[float, str, ChargePoint]] = []
    d_dest = to_dest.get(start)
    if d_dest is None:
        d_dest = to_dest[start] = distance_km(start, destination)
    here, loc, reach = None, start, span_km(ev, soc, 0.0)
    if d_dest <= reach:
        return ()
    while True:
        for d_leg, cp in net.within_radius(loc, reach):
            if cp.id in exclude:
                continue
            soc_in = soc - soc_drop(ev, d_leg)
            soc_out = soc_in if soc_in >= target else target
            if soc_out > best.get(cp.id, -1.0):
                d_dest = to_dest.get(cp.location)
                if d_dest is None:
                    d_dest = to_dest[cp.location] = distance_km(cp.location, destination)
                if d_dest <= span_km(ev, soc_out, 0.0):
                    path = [cp.id]
                    while here is not None:
                        path.append(here)
                        here = came_from[here]
                    return tuple(reversed(path))
                best[cp.id] = soc_out
                came_from[cp.id] = here
                heapq.heappush(heap, (-soc_out, cp.id, cp))
        while heap:
            neg, here, cp = heapq.heappop(heap)
            if -neg == best[here]:
                break
        else:
            return None
        soc, loc = -neg, cp.location
        reach = span_km(ev, soc, 0.0)


def replay_trip(
    plan: RoutePlan,
    mask: frozenset[str],
    net: ChargeNetwork,
    ledger: ReservationLedger,
    cfg: RouterConfig,
    to_dest: dict[GeoPoint, float] | None = None,
    found: list[tuple[str, ...]] | None = None,
) -> str:
    """Drive a committed plan against a fault mask: COMPLETED, REROUTED or
    STRANDED. From the first stop in the mask the trip is REROUTED when
    finishing_path finds a path around the mask, and STRANDED when it
    finds none and the router, asked once, confirms it.

    `to_dest` may carry the km from each location to the plan's
    destination from one replay to the next. `found`, when given, receives
    the path of a rerouted replay. That path starts at the same stop with
    the same charge under every mask whose first faulty stop it is, so it
    proves REROUTED, with no search, for each of them that leaves its
    points up; run_fault_sweep keeps such paths per plan and stop."""
    for faulty in plan.stops:
        if faulty.cp_id in mask:
            break
    else:
        return COMPLETED
    here = net.by_id[faulty.cp_id].location
    path = finishing_path(here, faulty.soc_in, plan.destination, net, cfg.ev, mask,
                          {} if to_dest is None else to_dest)
    if path is not None:
        if found is not None:
            found.append(path)
        return REROUTED
    # the router confirms the stranding; reroutes honour existing
    # reservations even when the original plan was made blind
    req = TripRequest(plan.ev_id, here, plan.destination, depart_h=faulty.arrival_h)
    replan = plan_route(
        req, net, ledger, cfg if cfg.mode == AWARE else dc_replace(cfg, mode=AWARE),
        initial_soc=faulty.soc_in,
        reserve_floor=0.0,
        exclude=mask,
        ignore_ev=plan.ev_id,
    )
    return STRANDED if isinstance(replan, Unroutable) else REROUTED


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

    Mask m is sample_fault_masks's draw from SeedSequence(seed,
    spawn_key=(m,)). Masks are drawn MASK_BLOCK at a time and swept plan by
    plan; of the masks whose first faulty stop of a plan is stop j, only
    those that no finishing path found from stop j avoids are replayed.

    Counts aggregate over masks: `trips` is journeys replayed plus the
    unroutable ones carried through for the denominator, and p_s is
    stranded over trips. The binomial interval ignores the correlation
    between trips sharing a mask, so read it as a scale, not a guarantee.
    """
    grid = sorted(set(p_f_grid))
    ids = np.array(sorted(net.by_id), dtype=object)
    column = {pid: j for j, pid in enumerate(ids.tolist())}
    charging = [p for p in plans if p.stops]
    n_charging_flagged = sum(1 for p in plans if p.needed_charge)
    to_dest = [{} for _ in charging]
    # the finishing paths found so far, per (plan, stop index)
    paths: dict[tuple[int, int], list[tuple[str, ...]]] = {}
    stranded = dict.fromkeys(grid, 0)
    for lo in range(0, n_masks, MASK_BLOCK):
        u = _mask_uniforms(len(ids), seed, range(lo, min(lo + MASK_BLOCK, n_masks)))
        for k, plan in enumerate(charging):
            at_stops = u[:, [column[s.cp_id] for s in plan.stops]]
            for p_f in grid:
                hit = at_stops < p_f
                first = hit.argmax(axis=1)
                for j in range(len(plan.stops)):
                    pending = np.flatnonzero(hit[:, j] & (first == j))
                    found = paths.setdefault((k, j), [])
                    tested = 0
                    while pending.size:
                        if tested < len(found):
                            # the masks that leave a kept path up are rerouted
                            cols = [column[pid] for pid in found[tested]]
                            pending = pending[(u[pending[:, None], cols] < p_f).any(axis=1)]
                            tested += 1
                            continue
                        mask = _down(ids, u[pending[0]], p_f)
                        pending = pending[1:]
                        if replay_trip(plan, mask, net, ledger, cfg, to_dest[k], found) == STRANDED:
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
