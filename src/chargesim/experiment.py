"""Scenario orchestration: fleets, replicates, metrics, capacity, cost.

A scenario deploys n_ev vehicles on one day. Each vehicle gets an
independent random substream keyed by (seed, replicate, trip index), so a
trip is identical whether the fleet holds 100 or 100000 vehicles: fleets of
different sizes share a common prefix of trips, which makes capacity curves
smooth in n_ev and congestion effects attributable to fleet size alone.
Vehicles are planned and committed in a seeded uniformly random order:
each trip carries a priority, the first draw of its own substream, and
trips are processed by (priority, ev_id).

Searches over fleet size (capacity_search, run_scenario_grid) sample each
trip once per replicate: _Replicates keeps, per (seed, replicate), the
trips drawn so far in that order and samples more on demand, and the fleet
of n is its trips below n, exactly sample_trip_batch's. Each search opens
one runner for all its replicates: with k processes, this one and k - 1
workers that each receive the grid, network and trip length table once,
when they start, replicate r always runs in process r mod k, which keeps
its trips. A call sends each worker only (cfg, task), and task(reps, cfg, r)
runs in the process that owns r, so a replicate's plans and ledger are
dropped where it ran: run_scenario's task, metrics_of, returns its metrics.
"""

from __future__ import annotations

import bisect
import multiprocessing
import os
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field, replace
from functools import cached_property, reduce

import numpy as np

from .errors import ConfigError, DataError
from .ev import EvParams
from .network import ChargeNetwork, load_network_csv
from .population import (
    PopulationGrid,
    load_population_csv,
    sample_destinations,
    sample_origins,
)
from .reservations import ReservationLedger
from .router import (
    AWARE,
    RoutePlan,
    RouterConfig,
    TripRequest,
    Unroutable,
    average_trip_speed,
    commit_route,
    plan_route,
)
from .stats import wilson_interval, wilson_upper
from .triplength import TripLengthDistribution, default_trip_distribution

# trip lengths drawn for one origin before its trip is given up as a data error
MAX_TRIP_LENGTH_DRAWS = 1000

# trips sampled together by sample_trip_batch. On the benchmark grids a
# chunk of 16 took about 7% longer a trip than 32, and 64 about 6% less,
# while the chunk's temporaries, a few MB at 32, grow in proportion
TRIP_CHUNK = 32


@dataclass(frozen=True)
class ScenarioConfig:
    n_ev: int
    seed: int = 0
    replicates: int = 1
    mode: str = AWARE
    ev: EvParams = field(default_factory=EvParams)
    population_csv: str | None = None
    network_csv: str | None = None
    speed_thresholds_kph: tuple[float, ...] = (60.0, 40.0, 10.0)
    threads: int = 1

    def __post_init__(self) -> None:
        if self.n_ev < 1:
            raise ValueError("n_ev must be at least 1")
        if self.replicates < 1:
            raise ValueError("replicates must be at least 1")
        if len(set(self.speed_thresholds_kph)) < len(self.speed_thresholds_kph):
            raise ValueError(f"repeated speed threshold in {self.speed_thresholds_kph}")
        self.router  # built here, so a bad mode fails at once

    @cached_property
    def router(self) -> RouterConfig:
        return RouterConfig(ev=self.ev, mode=self.mode)


@dataclass
class ScenarioMetrics:
    n_ev: int
    thresholds: tuple[float, ...]
    trips: int = 0
    needed_charge: int = 0
    unroutable: int = 0
    completed: int = 0
    below: dict[float, int] = field(default_factory=dict)
    speed_sum_kph: float = 0.0

    def __post_init__(self) -> None:
        for t in self.thresholds:
            self.below.setdefault(t, 0)

    @property
    def frac_needing_charge(self) -> float:
        return self.needed_charge / self.trips if self.trips else 0.0

    @property
    def frac_unroutable(self) -> float:
        return self.unroutable / self.trips if self.trips else 0.0

    def frac_below(self, threshold_kph: float) -> float:
        return self.below[threshold_kph] / self.trips if self.trips else 0.0

    @property
    def mean_speed_kph(self) -> float:
        return self.speed_sum_kph / self.completed if self.completed else 0.0

    def ci_below(self, threshold_kph: float) -> tuple[float, float]:
        return wilson_interval(self.below[threshold_kph], self.trips)

    def merge(self, other: "ScenarioMetrics") -> "ScenarioMetrics":
        """The metrics over both sets of trips; counts and speed sums add."""
        if other.thresholds != self.thresholds:
            raise ValueError("cannot merge metrics with different thresholds")
        return ScenarioMetrics(
            n_ev=self.n_ev,
            thresholds=self.thresholds,
            trips=self.trips + other.trips,
            needed_charge=self.needed_charge + other.needed_charge,
            unroutable=self.unroutable + other.unroutable,
            completed=self.completed + other.completed,
            below={t: self.below[t] + other.below[t] for t in self.thresholds},
            speed_sum_kph=self.speed_sum_kph + other.speed_sum_kph,
        )


def _trip_rng(seed: int, replicate: int, i: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(replicate, i)))


def _processing_order(trip: TripRequest) -> tuple[float, int]:
    return trip.priority, trip.ev_id


def sample_trip_batch(
    grid: PopulationGrid,
    dist: TripLengthDistribution,
    seed: int,
    replicate: int,
    n: int,
    *,
    start: int = 0,
) -> list[TripRequest]:
    """Trips start to n-1 in processing order.

    Trip i draws from SeedSequence(seed, (replicate, i)), priority first;
    sorting by (priority, i) yields a uniform random processing order that
    interleaves consistently as n grows. Each trip draws, in this order, a
    priority, a population-weighted origin (its cell and two jitters) and
    a trip length, then a destination from sample_destinations; while
    every ring at its length is empty it draws a fresh length and tries
    again, up to MAX_TRIP_LENGTH_DRAWS lengths. Empty rings resample the
    length, never the origin. The trips are sampled TRIP_CHUNK at a time:
    each trip's first five draws come from one call, the chunk's origins
    and lengths are computed as arrays, and its trips' rings are cut
    together, as are those of its trips that draw fresh lengths.
    """
    trips = []
    for lo in range(start, n, TRIP_CHUNK):
        ids = range(lo, min(lo + TRIP_CHUNK, n))
        rngs = [_trip_rng(seed, replicate, i) for i in ids]
        u = np.array([rng.random(5) for rng in rngs])
        origins = sample_origins(grid, u[:, 1], u[:, 2], u[:, 3])
        dests = sample_destinations(grid, origins, dist.quantile(u[:, 4]).tolist(), rngs)
        for _ in range(1, MAX_TRIP_LENGTH_DRAWS):
            todo = [j for j, dest in enumerate(dests) if dest is None]
            if not todo:
                break
            lengths = [dist.sample(rngs[j]) for j in todo]
            redrawn = sample_destinations(
                grid, [origins[j] for j in todo], lengths, [rngs[j] for j in todo]
            )
            for j, dest in zip(todo, redrawn):
                dests[j] = dest
        if None in dests:
            raise DataError(
                f"no destination found for origin near {origins[dests.index(None)]}"
                f" after {MAX_TRIP_LENGTH_DRAWS} trip lengths"
            )
        trips += [
            TripRequest(ev_id=i, origin=origin, destination=dest, priority=priority)
            for i, priority, origin, dest in zip(ids, u[:, 0].tolist(), origins, dests)
        ]
    trips.sort(key=_processing_order)
    return trips


# one replicate's metrics, per-trip outcomes and ledger
Replicate = tuple[ScenarioMetrics, list[RoutePlan | Unroutable], ReservationLedger]


class _Replicates:
    """Replicates on one set of inputs. Each (seed, replicate) keeps every
    trip drawn so far, in processing order, and samples more on demand, so
    that each trip is sampled once however many fleets are run."""

    def __init__(
        self, grid: PopulationGrid, net: ChargeNetwork, dist: TripLengthDistribution
    ) -> None:
        self.grid, self.net, self.dist = grid, net, dist
        self.trips: dict[tuple[int, int], list[TripRequest]] = {}

    def run(self, cfg: ScenarioConfig, replicate: int) -> Replicate:
        """Plan, commit and measure trips 0 to n_ev-1 in processing order on
        a fresh ledger: sample_trip_batch's fleet, drawn only where needed."""
        trips = self.trips.setdefault((cfg.seed, replicate), [])
        if cfg.n_ev > len(trips):
            # two sorted runs, which the sort merges in linear time
            trips += sample_trip_batch(
                self.grid, self.dist, cfg.seed, replicate, cfg.n_ev, start=len(trips)
            )
            trips.sort(key=_processing_order)
        router_cfg = cfg.router
        ledger = ReservationLedger()
        m = ScenarioMetrics(n_ev=cfg.n_ev, thresholds=tuple(cfg.speed_thresholds_kph))
        results: list[RoutePlan | Unroutable] = []
        for req in [t for t in trips if t.ev_id < cfg.n_ev]:
            r = plan_route(req, self.net, ledger, router_cfg)
            if isinstance(r, RoutePlan):
                r = commit_route(r, ledger, router_cfg)
            results.append(r)
            m.trips += 1
            if r.needed_charge:
                m.needed_charge += 1
            if isinstance(r, Unroutable):
                m.unroutable += 1
                continue
            m.completed += 1
            v = average_trip_speed(r)
            m.speed_sum_kph += v
            for t in m.thresholds:
                if v < t:
                    m.below[t] += 1
        return m, results, ledger

    def share(self, cfg: ScenarioConfig, task: Task, i: int, k: int) -> list:
        """task(self, cfg, r) for replicates r = i, i + k, ... of cfg, each
        run before the next replicate starts."""
        return [task(self, cfg, r) for r in range(i, cfg.replicates, k)]


# a module-level function, or a functools.partial of one, that runs replicate r
# on a _Replicates and returns what the caller keeps; it is pickled by reference
Task = Callable[[_Replicates, ScenarioConfig, int], object]


def metrics_of(reps: _Replicates, cfg: ScenarioConfig, r: int) -> ScenarioMetrics:
    """A task: replicate r's metrics, its plans and ledger dropped."""
    return reps.run(cfg, r)[0]


def run_replicate(
    cfg: ScenarioConfig,
    replicate: int,
    grid: PopulationGrid,
    net: ChargeNetwork,
    dist: TripLengthDistribution,
) -> Replicate:
    """One replicate: sample, then plan, commit and measure each trip in
    processing order. Returns the metrics, the per-trip outcomes in that
    order and the ledger of realized bookings."""
    return _Replicates(grid, net, dist).run(cfg, replicate)


def _serve(
    conn, k: int, i: int, grid: PopulationGrid, net: ChargeNetwork, dist: TripLengthDistribution
) -> None:
    """A worker process: for each (cfg, task) the parent sends, runs task on
    replicates i, i + k, ... and sends back what it returned, or the
    exception that stopped it."""
    reps = _Replicates(grid, net, dist)
    while True:
        cfg, task = conn.recv()
        try:
            conn.send(reps.share(cfg, task, i, k))
        except Exception as exc:
            conn.send(exc)


# runs a task on a config's replicates, returning its results in replicate order
Runner = Callable[[ScenarioConfig, Task], list]

# the runner that run_replicates calls use while one is open
_shared: ContextVar[Runner | None] = ContextVar("shared_runner", default=None)


@contextmanager
def _runner(
    cfg: ScenarioConfig,
    grid: PopulationGrid,
    net: ChargeNetwork,
    dist: TripLengthDistribution,
) -> Iterator[Runner]:
    """A runner on one set of inputs over k = min(threads, replicates)
    processes: this one, and k - 1 workers that receive the inputs once,
    when they start. Replicate r always runs in process r mod k. A call
    sends every worker (cfg, task), runs this process's share, then collects
    the workers' shares and raises the first exception any share raised.
    Every run_replicates call inside runs here, and must pass the same grid,
    network and table and a config that differs from cfg in n_ev alone. The
    workers are stopped and joined on exit, however it comes."""
    threads = cfg.threads if cfg.threads > 0 else (os.cpu_count() or 1)
    workers = min(threads, cfg.replicates)
    ctx = multiprocessing.get_context()
    local = _Replicates(grid, net, dist)
    conns, procs = [], []

    def run(c: ScenarioConfig, task: Task) -> list:
        try:
            for conn in conns:
                conn.send((c, task))
        except BrokenPipeError as exc:  # not stdout's, which main reports as closed
            raise RuntimeError("a worker process has exited") from exc
        shares = [local.share(c, task, 0, workers)]
        shares += [conn.recv() for conn in conns]
        for share in shares:
            if isinstance(share, Exception):
                raise share
        return [shares[r % workers][r // workers] for r in range(c.replicates)]

    token = _shared.set(run)
    try:
        for i in range(1, workers):
            conn, theirs = ctx.Pipe()
            conns.append(conn)
            p = ctx.Process(target=_serve, args=(theirs, workers, i, grid, net, dist), daemon=True)
            p.start()
            procs.append(p)
            # only the worker holds its end, so recv sees EOF if it dies
            theirs.close()
        yield run
    finally:
        _shared.reset(token)
        # a worker may be busy, or blocked sending a share never read
        for p in procs:
            p.terminate()
            p.join()
        for conn in conns:
            conn.close()


def run_replicates(
    cfg: ScenarioConfig,
    grid: PopulationGrid,
    net: ChargeNetwork,
    dist: TripLengthDistribution,
    task: Task,
) -> list:
    """task(reps, cfg, r) for every replicate r, in replicate order, each
    run in the process that owns r, where reps holds the runner's inputs
    and that process's sampled trips. The results are the same at any
    process count, since replicates share no state and every fleet holds
    sample_trip_batch's trips. Inside _runner they run on its runner,
    otherwise on one opened here."""
    if (shared := _shared.get()) is not None:
        return shared(cfg, task)
    with _runner(cfg, grid, net, dist) as run:
        return run(cfg, task)


def load_scenario_inputs(
    cfg: ScenarioConfig,
) -> tuple[PopulationGrid, ChargeNetwork, TripLengthDistribution]:
    """The grid and network read from the scenario's CSVs, and the trip
    length table: loaded once per command and passed on."""
    for key in ("population_csv", "network_csv"):
        if not getattr(cfg, key):
            raise ConfigError(f"{key} is required (config file or --set {key}=PATH)")
    grid, net = load_population_csv(cfg.population_csv), load_network_csv(cfg.network_csv)
    return grid, net, default_trip_distribution()


def run_scenario(
    cfg: ScenarioConfig,
    *,
    grid: PopulationGrid,
    net: ChargeNetwork,
    dist: TripLengthDistribution,
) -> ScenarioMetrics:
    """All replicates of one scenario, merged. Deterministic for a given
    config: replicates use disjoint substreams and merge in order."""
    total = reduce(ScenarioMetrics.merge, run_replicates(cfg, grid, net, dist, metrics_of))
    assert total.completed + total.unroutable == total.trips
    return total


def run_scenario_grid(
    cfg: ScenarioConfig,
    n_ev_grid: list[int],
    *,
    grid: PopulationGrid,
    net: ChargeNetwork,
    dist: TripLengthDistribution,
) -> list[ScenarioMetrics]:
    with _runner(cfg, grid, net, dist):
        return [
            run_scenario(replace(cfg, n_ev=n), grid=grid, net=net, dist=dist)
            for n in n_ev_grid
        ]


# ---------------------------------------------------------------------------
# capacity search


@dataclass(frozen=True)
class CapacityProbe:
    n_ev: int
    failures: int
    trials: int
    upper_ci: float


@dataclass(frozen=True)
class CapacityResult:
    found: bool
    n_ev: int
    threshold_kph: float
    target_p: float
    probes: tuple[CapacityProbe, ...]


def _least_passable_fleet(replicates: int, target_p: float, ceiling: int) -> int | None:
    """The least fleet n, up to ceiling, whose n * replicates trials with no
    failure meet target_p, by the same wilson_upper that judges a probe;
    None if no fleet up to ceiling does."""
    fleets = range(1, ceiling + 1)
    i = bisect.bisect_left(
        fleets, True, key=lambda n: wilson_upper(0, n * replicates) <= target_p
    )
    return fleets[i] if i < len(fleets) else None


def capacity_search(
    cfg: ScenarioConfig,
    threshold_kph: float = 40.0,
    target_p: float = 1e-4,
    *,
    grid: PopulationGrid,
    net: ChargeNetwork,
    dist: TripLengthDistribution,
) -> CapacityResult:
    """Largest fleet whose below-threshold fraction stays within target_p.

    A fleet passes when the Wilson 95% upper bound on the fraction of trips
    slower than the threshold is at or below target_p. A fleet of n has
    n * replicates trials, so below the least fleet n0 whose bound with no
    failures passes, none can. Geometric doubling from n0 finds a failing
    fleet size, then bisection pins the boundary; trip coupling across
    fleet sizes keeps the pass/fail curve monotone up to Monte Carlo noise.
    cfg.n_ev is the search ceiling; if n0 exceeds it, nothing is probed.
    """
    if threshold_kph not in cfg.speed_thresholds_kph:
        cfg = replace(
            cfg, speed_thresholds_kph=tuple(cfg.speed_thresholds_kph) + (threshold_kph,)
        )
    ceiling = cfg.n_ev
    probes: dict[int, CapacityProbe] = {}

    def passes(n: int) -> bool:
        if n not in probes:
            m = run_scenario(replace(cfg, n_ev=n), grid=grid, net=net, dist=dist)
            probes[n] = CapacityProbe(
                n_ev=n,
                failures=m.below[threshold_kph],
                trials=m.trips,
                upper_ci=wilson_upper(m.below[threshold_kph], m.trips),
            )
        return probes[n].upper_ci <= target_p

    def result(found: bool, n: int) -> CapacityResult:
        return CapacityResult(
            found=found,
            n_ev=n,
            threshold_kph=threshold_kph,
            target_p=target_p,
            probes=tuple(probes[k] for k in sorted(probes)),
        )

    n0 = _least_passable_fleet(cfg.replicates, target_p, ceiling)
    if n0 is None:
        return result(False, 0)
    with _runner(cfg, grid, net, dist):
        if not passes(n0):
            return result(False, 0)
        lo = n0
        hi = None
        n = 2 * n0
        while n < ceiling:
            if passes(n):
                lo = n
            else:
                hi = n
                break
            n *= 2
        if hi is None:
            if passes(ceiling):
                return result(True, ceiling)
            hi = ceiling
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if passes(mid):
                lo = mid
            else:
                hi = mid
        return result(True, lo)


# ---------------------------------------------------------------------------
# infrastructure cost


@dataclass(frozen=True)
class InfraCostModel:
    dc_install_eur: float = 48000.0
    ac_install_eur: float = 12500.0
    dc_annual_eur: float = 6000.0
    ac_annual_eur: float = 350.0
    lifespan_years: float = 20.0

    def __post_init__(self) -> None:
        if self.lifespan_years <= 0:
            raise ValueError("lifespan must be positive")


def cost_per_user_eur(model: InfraCostModel, net: ChargeNetwork, n_users: int) -> float:
    """Annualized network cost split across daily users: installation
    amortized over the hardware lifespan, plus running costs."""
    if n_users < 1:
        raise ValueError("need at least one user")
    install = net.n_dc * model.dc_install_eur + net.n_ac * model.ac_install_eur
    annual = net.n_dc * model.dc_annual_eur + net.n_ac * model.ac_annual_eur
    return (install / model.lifespan_years + annual) / n_users
