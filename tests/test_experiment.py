import dataclasses
import multiprocessing
import time
from collections import Counter

import numpy as np
import pytest

from chargesim import experiment
from chargesim.errors import ConfigError, DataError
from chargesim.experiment import (
    CapacityProbe,
    InfraCostModel,
    ScenarioConfig,
    ScenarioMetrics,
    capacity_search,
    cost_per_user_eur,
    load_scenario_inputs,
    run_replicate,
    run_replicates,
    run_scenario,
    run_scenario_grid,
    sample_trip_batch,
)
from chargesim.geo import GeoPoint, distance_km, offset_km
from chargesim.network import ChargeNetwork, ChargePoint
from chargesim.population import RING_HALF_WIDTHS, PopulationGrid
from chargesim.stats import Z_95, wilson_interval, wilson_upper
from chargesim.triplength import default_trip_distribution

from helpers import capacity_fixture, grid_of, trip_by_trip

ANCHOR = GeoPoint(0.0, 50.0)


def cost_net(n_dc: int, n_ac: int) -> ChargeNetwork:
    pts = [ChargePoint(f"d{i}", ANCHOR, "DC", 50.0) for i in range(n_dc)]
    pts += [ChargePoint(f"a{i}", ANCHOR, "AC", 22.0) for i in range(n_ac)]
    return ChargeNetwork(pts)


def test_cost_per_user_examples():
    model = InfraCostModel()
    mixed = cost_net(72, 636)
    assert cost_per_user_eur(model, mixed, 36_000) == pytest.approx(34.025, abs=1e-9)
    assert cost_per_user_eur(model, cost_net(708, 0), 36_000) == pytest.approx(
        165.2, abs=1e-9
    )
    assert cost_per_user_eur(model, mixed, 3_600) == pytest.approx(340.25, abs=1e-9)


def test_cost_validation():
    with pytest.raises(ValueError):
        cost_per_user_eur(InfraCostModel(), cost_net(1, 0), 0)
    with pytest.raises(ValueError):
        InfraCostModel(lifespan_years=0.0)


def line_grid(length_km: int = 200) -> PopulationGrid:
    return grid_of([(offset_km(ANCHOR, float(i), 0.0), 1.0) for i in range(length_km + 1)])


def line_net() -> ChargeNetwork:
    return ChargeNetwork(
        [
            ChargePoint(f"cp{int(e)}", offset_km(ANCHOR, e, 0.0), "DC", 50.0)
            for e in (50.0, 100.0, 150.0)
        ]
    )


def test_trip_batches_share_prefixes():
    # the first 30 vehicles' trips are identical inside a 60-vehicle batch
    grid = line_grid()
    dist = default_trip_distribution()
    small = sample_trip_batch(grid, dist, seed=11, replicate=0, n=30)
    large = sample_trip_batch(grid, dist, seed=11, replicate=0, n=60)
    small_by_id = {t.ev_id: t for t in small}
    large_by_id = {t.ev_id: t for t in large}
    for ev_id, trip in small_by_id.items():
        assert large_by_id[ev_id] == trip
    # different replicate or seed: different trips
    other = sample_trip_batch(grid, dist, seed=11, replicate=1, n=30)
    assert {t.ev_id: t for t in other} != small_by_id


def test_batch_order_is_priority_shuffled_but_complete():
    grid = line_grid()
    dist = default_trip_distribution()
    batch = sample_trip_batch(grid, dist, seed=2, replicate=0, n=40)
    assert sorted(t.ev_id for t in batch) == list(range(40))
    assert [t.ev_id for t in batch] != list(range(40))


def gappy_grid() -> PopulationGrid:
    """Cells along the equator: a populated town, an unpopulated band, then
    cells 3 km apart, then nothing. First rings land empty between the
    sparse cells, hold no population in the band, and, for a long trip,
    every ring is empty."""
    cells = [(offset_km(ANCHOR, float(x), 0.0), 100.0) for x in range(11)]
    cells += [(offset_km(ANCHOR, float(x), 0.0), 0.0) for x in range(11, 31)]
    cells += [(offset_km(ANCHOR, float(x), 0.0), 1.0) for x in range(34, 71, 3)]
    return grid_of(cells)


def test_chunked_batches_match_trip_by_trip_sampling(monkeypatch):
    # sample_trip_batch against the full-scan reference drawn trip by trip
    # on each trip's own substream, for batch sizes around the chunk and a
    # start inside a chunk. Some trips' first rings are empty or hold no
    # population, and some trips find every ring empty and draw fresh
    # lengths: exactly those go into a second sample_destinations call
    grid, dist = gappy_grid(), default_trip_distribution()
    chunk, start = experiment.TRIP_CHUNK, 5
    opened, asked = [], []
    real_rng, real_destinations = experiment._trip_rng, experiment.sample_destinations

    def counting_rng(*args):
        opened.append(args)
        return real_rng(*args)

    def counting_destinations(grid, origins, *args):
        asked.append(origins)
        return real_destinations(grid, origins, *args)

    first_empty = first_unpopulated = redrawn = 0
    for m in (0, 1, chunk - 1, chunk, chunk + 1, 3 * chunk + 5):
        seed, n = 40 + m, start + m
        want = sorted(
            (trip_by_trip(grid, dist, real_rng(seed, 1, i), i) for i in range(start, n)),
            key=experiment._processing_order,
        )
        opened.clear()
        asked.clear()
        monkeypatch.setattr(experiment, "_trip_rng", counting_rng)
        monkeypatch.setattr(experiment, "sample_destinations", counting_destinations)
        got = sample_trip_batch(grid, dist, seed, 1, n, start=start)
        monkeypatch.undo()
        assert got == want, m
        assert sorted(opened) == [(seed, 1, i) for i in range(start, n)], m
        # every trip is asked for a destination, and asked again exactly
        # when its rings are all empty at its first length, by the full scan
        expect_redrawn = []
        for trip in got:
            u = real_rng(seed, 1, trip.ev_id).random(5)
            off = np.abs(grid.distances_from(trip.origin) - float(dist.quantile(u[4])))
            first = off <= RING_HALF_WIDTHS[0]
            if grid.population[first].sum() <= 0:
                first_empty += not first.any()
                first_unpopulated += first.any()
                if grid.population[off <= RING_HALF_WIDTHS[-1]].sum() <= 0:
                    expect_redrawn.append(trip.origin)
        redrawn += len(expect_redrawn)
        times = Counter(p for origins in asked for p in origins)
        assert set(times) == {t.origin for t in got}, m
        assert {p for p, k in times.items() if k > 1} == set(expect_redrawn), m
    # the draws above did reach the cases they were built for
    assert first_empty > 0 and first_unpopulated > 0 and redrawn > 0, (
        first_empty, first_unpopulated, redrawn
    )


class FarLengths:
    """Trip lengths far beyond a small grid, each drawn from the generator,
    except the near-th sample() call, which gives 0 km."""

    def __init__(self, near):
        self.near, self.calls = near, 0

    def quantile(self, u):
        return np.full(len(u), 5000.0)

    def sample(self, rng):
        rng.random()
        self.calls += 1
        return 0.0 if self.calls == self.near else 5000.0


def test_trip_lengths_are_redrawn_up_to_the_limit():
    # a trip tries its first length and then MAX_TRIP_LENGTH_DRAWS - 1
    # fresh ones: a near length among them is found, one after them is not
    grid = grid_of([(ANCHOR, 1.0)])
    limit = experiment.MAX_TRIP_LENGTH_DRAWS
    dist = FarLengths(near=limit - 1)
    (trip,) = sample_trip_batch(grid, dist, seed=1, replicate=0, n=1)
    assert distance_km(trip.destination, ANCHOR) <= 1.0 and dist.calls == limit - 1
    with pytest.raises(DataError, match=rf"no destination found .* after {limit} trip lengths"):
        sample_trip_batch(grid, FarLengths(near=limit), seed=1, replicate=0, n=1)


def test_replicates_route_batches_in_probe_order(monkeypatch):
    # bisection probe order: doubling to 32, then down and up to 21
    grid = line_grid()
    dist = default_trip_distribution()
    sampled = []
    real = experiment.sample_trip_batch
    expected = {n: real(grid, dist, 9, 2, n) for n in (1, 2, 4, 8, 16, 32, 24, 20, 22, 21)}

    def counting(*args, **kwargs):
        batch = real(*args, **kwargs)
        sampled.extend(t.ev_id for t in batch)
        return batch

    substreams = []
    real_rng = experiment._trip_rng

    def counting_rng(*args):
        substreams.append(args)
        return real_rng(*args)

    planned = []
    real_plan = experiment.plan_route

    def recording_plan(req, *args, **kwargs):
        planned.append(req)
        return real_plan(req, *args, **kwargs)

    monkeypatch.setattr(experiment, "sample_trip_batch", counting)
    monkeypatch.setattr(experiment, "_trip_rng", counting_rng)
    monkeypatch.setattr(experiment, "plan_route", recording_plan)
    replicates = experiment._Replicates(grid, line_net(), dist)
    for n, batch in expected.items():
        planned.clear()
        _, results, _ = replicates.run(ScenarioConfig(n_ev=n, seed=9), replicate=2)
        assert planned == batch, n
        assert [r.ev_id for r in results] == [t.ev_id for t in batch], n
    assert sorted(sampled) == list(range(32))  # each trip index sampled exactly once
    assert len(substreams) == 32  # and its substream opened once, priorities not re-drawn


def test_capacity_probes_match_fresh_replicates():
    # each probe's counts equal those of replicates sampled from scratch,
    # here through a search that doubles and then bisects
    grid, net, dist = capacity_fixture()
    cfg = ScenarioConfig(n_ev=32, seed=4, replicates=5, threads=1)
    inputs = dict(grid=grid, net=net, dist=dist)
    res = capacity_search(cfg, threshold_kph=60.0, target_p=0.9, **inputs)
    assert [p.n_ev for p in res.probes] == [1, 2, 4, 5, 6, 8]  # probed as 1, 2, 4, 8, 6, 5
    pooled = dataclasses.replace(cfg, threads=2)
    assert capacity_search(pooled, threshold_kph=60.0, target_p=0.9, **inputs) == res
    for probe in res.probes:
        fresh = [
            run_replicate(dataclasses.replace(cfg, n_ev=probe.n_ev), r, grid, net, dist)[0]
            for r in range(cfg.replicates)
        ]
        assert probe.trials == sum(m.trips for m in fresh)
        assert probe.failures == sum(m.below[60.0] for m in fresh)


def test_run_scenario_deterministic_and_consistent():
    grid = line_grid()
    net = line_net()
    cfg = ScenarioConfig(n_ev=40, seed=7, replicates=2)
    dist = default_trip_distribution()
    m1 = run_scenario(cfg, grid=grid, net=net, dist=dist)
    m2 = run_scenario(cfg, grid=grid, net=net, dist=dist)
    assert m1 == m2
    assert m1.trips == 80
    assert m1.completed + m1.unroutable == m1.trips
    # threshold counts nest: slower-than-10 implies slower-than-40 and -60
    assert m1.below[10.0] <= m1.below[40.0] <= m1.below[60.0]
    assert 0.0 <= m1.frac_unroutable <= 1.0
    assert m1.mean_speed_kph > 0.0


def test_parallel_replicates_match_serial():
    grid = line_grid()
    net = line_net()
    cfg = ScenarioConfig(n_ev=25, seed=3, replicates=2, threads=1)
    dist = default_trip_distribution()
    serial = run_scenario(cfg, grid=grid, net=net, dist=dist)
    parallel = run_scenario(
        dataclasses.replace(cfg, threads=2), grid=grid, net=net, dist=dist
    )
    assert serial == parallel


@pytest.mark.parametrize("threads", [1, 2])
def test_replicates_without_full_return_only_their_metrics(threads):
    # every process, this one included, drops a replicate's plans and
    # ledger when only its metrics are asked for
    cfg = ScenarioConfig(n_ev=25, seed=3, replicates=3, threads=threads)
    grid, net, dist = line_grid(), line_net(), default_trip_distribution()
    full = run_replicates(cfg, grid, net, dist)
    bare = run_replicates(cfg, grid, net, dist, full=False)
    assert all(len(results) == 25 for _, results, _ in full)
    assert bare == [(m, None, None) for m, _, _ in full]


@pytest.mark.parametrize("failing", [0, 1], ids=["this-process", "worker"])
def test_a_failing_share_raises_and_stops_every_worker(monkeypatch, failing):
    # replicate 0 runs in this process and replicate 1 in the worker
    real = experiment._Replicates.run

    def run(self, cfg, replicate):
        if replicate == failing:
            if replicate == 0:
                # the worker's share of full plans, far more than a pipe
                # holds, is then never read, and its send blocks
                time.sleep(0.5)
            raise DataError(f"replicate {replicate} failed")
        return real(self, cfg, replicate)

    monkeypatch.setattr(experiment._Replicates, "run", run)
    cfg = ScenarioConfig(n_ev=3000, seed=3, replicates=2, threads=2)
    with pytest.raises(DataError, match=f"^replicate {failing} failed$"):
        list(run_replicates(cfg, line_grid(), line_net(), default_trip_distribution()))
    assert multiprocessing.active_children() == []


def test_a_worker_that_exited_is_an_error_of_its_own():
    # a task sent to a worker that has died fails as a RuntimeError, not as
    # the BrokenPipeError the command line takes for a closed stdout
    cfg = ScenarioConfig(n_ev=5, seed=3, replicates=2, threads=2)
    with experiment._runner(cfg, line_grid(), line_net(), default_trip_distribution()) as run:
        (worker,) = multiprocessing.active_children()
        worker.kill()
        worker.join()
        with pytest.raises(RuntimeError, match="worker process has exited"):
            run(cfg, False)
    assert multiprocessing.active_children() == []


def test_run_replicate_exposes_ledger_and_outcomes():
    grid = line_grid()
    net = line_net()
    cfg = ScenarioConfig(n_ev=60, seed=13)
    metrics, results, led = run_replicate(cfg, 0, grid, net, default_trip_distribution())
    assert len(results) == 60
    booked_stops = sum(
        sum(1 for s in r.stops if s.charge_end_h > s.charge_start_h)
        for r in results
        if hasattr(r, "stops")
    )
    assert len(led) == booked_stops
    assert metrics.needed_charge >= metrics.unroutable


def test_run_scenario_grid_sizes():
    grid = line_grid()
    net = line_net()
    cfg = ScenarioConfig(n_ev=1, seed=21)
    out = run_scenario_grid(cfg, [5, 10], grid=grid, net=net, dist=default_trip_distribution())
    assert [m.n_ev for m in out] == [5, 10]
    assert [m.trips for m in out] == [5, 10]


def test_scenario_inputs_required():
    # both paths are checked before either file is read
    cfg = ScenarioConfig(n_ev=1)
    with pytest.raises(ConfigError, match="population_csv is required"):
        load_scenario_inputs(cfg)
    with pytest.raises(ConfigError, match="network_csv is required"):
        load_scenario_inputs(dataclasses.replace(cfg, population_csv="never-read.csv"))


def test_scenario_config_validation():
    with pytest.raises(ValueError):
        ScenarioConfig(n_ev=0)
    with pytest.raises(ValueError):
        ScenarioConfig(n_ev=1, replicates=0)
    with pytest.raises(ValueError, match="repeated speed threshold"):
        ScenarioConfig(n_ev=1, speed_thresholds_kph=(100.0, 40.0, 100.0))
    # the router settings are checked when the scenario is built
    with pytest.raises(ValueError, match="unknown mode"):
        ScenarioConfig(n_ev=1, mode="psychic")
    cfg = ScenarioConfig(n_ev=1, mode="blind")
    assert (cfg.router.ev, cfg.router.mode) == (cfg.ev, "blind")


def test_metrics_zero_trip_guards_and_merge():
    m = ScenarioMetrics(n_ev=1, thresholds=(60.0,))
    assert m.frac_needing_charge == 0.0
    assert m.frac_unroutable == 0.0
    assert m.frac_below(60.0) == 0.0
    assert m.mean_speed_kph == 0.0
    other = ScenarioMetrics(n_ev=1, thresholds=(40.0,))
    with pytest.raises(ValueError):
        m.merge(other)


def test_capacity_search_on_saturating_fixture():
    grid, net, dist = capacity_fixture()
    cfg = ScenarioConfig(n_ev=8, seed=5, replicates=500)
    res = capacity_search(cfg, threshold_kph=60.0, target_p=0.01, grid=grid, net=net, dist=dist)
    assert res.found and res.n_ev == 1
    assert res.threshold_kph == 60.0
    # one vehicle never queues; a second one queues behind it immediately
    assert res.probes[0] == CapacityProbe(
        n_ev=1, failures=0, trials=500, upper_ci=pytest.approx(0.0076243, abs=1e-6)
    )
    assert res.probes[1].n_ev == 2
    assert res.probes[1].failures == 477
    assert res.probes[1].trials == 1000

    # a trivial target is met by the whole search ceiling
    relaxed = capacity_search(cfg, threshold_kph=60.0, target_p=1.0, grid=grid, net=net, dist=dist)
    assert relaxed.found and relaxed.n_ev == 8

    # ignoring reservations does not change the verdict here: the queue is
    # physical, not informational
    blind = capacity_search(
        dataclasses.replace(cfg, mode="blind"),
        threshold_kph=60.0, target_p=0.01, grid=grid, net=net, dist=dist,
    )
    assert blind.found and blind.n_ev == 1

    # an impossible bar fails at one vehicle
    hopeless = capacity_search(
        cfg, threshold_kph=95.0, target_p=1e-4, grid=grid, net=net, dist=dist
    )
    assert not hopeless.found and hopeless.n_ev == 0


def test_capacity_search_starts_at_the_least_passable_fleet():
    # at 5 replicates 2 vehicles give 10 trials, too few to meet 0.25 even
    # with no failure; 3 give 15, enough
    assert wilson_upper(0, 10) > 0.25 >= wilson_upper(0, 15)
    grid, net, dist = capacity_fixture()
    cfg = ScenarioConfig(n_ev=8, seed=5, replicates=5, threads=1)
    res = capacity_search(cfg, threshold_kph=30.0, target_p=0.25, grid=grid, net=net, dist=dist)
    assert [p.n_ev for p in res.probes] == [3, 6, 7, 8]  # probed as 3, 6, 8, 7
    assert [p.failures for p in res.probes] == [0, 0, 0, 5]
    assert res.found and res.n_ev == 7


def test_capacity_search_probes_nothing_below_its_least_passable_fleet(monkeypatch):
    # 8 vehicles times 5 replicates are 40 trials; meeting 1e-4 takes 38,411
    def run_scenario(*args, **kwargs):
        raise AssertionError("probed a fleet that cannot pass")

    monkeypatch.setattr(experiment, "run_scenario", run_scenario)
    grid, net, dist = capacity_fixture()
    cfg = ScenarioConfig(n_ev=8, seed=5, replicates=5, threads=1)
    res = capacity_search(cfg, threshold_kph=60.0, target_p=1e-4, grid=grid, net=net, dist=dist)
    assert not res.found and res.n_ev == 0 and res.probes == ()
    assert wilson_upper(0, 38_410) > 1e-4 >= wilson_upper(0, 38_411)


def test_wilson_interval():
    assert wilson_interval(0, 100)[0] == 0.0
    assert wilson_interval(100, 100)[1] == 1.0
    assert wilson_interval(0, 0) == (0.0, 1.0)
    lo, hi = wilson_interval(5, 100)
    assert 0.0 < lo < 0.05 < hi < 1.0
    assert wilson_upper(0, 500) == pytest.approx(0.0076243, abs=1e-6)
    wide_lo, wide_hi = wilson_interval(5, 100, z=3.0)
    assert wide_lo < lo and hi < wide_hi
    assert Z_95 == pytest.approx(1.959963984540054, abs=1e-15)
    with pytest.raises(ValueError):
        wilson_interval(5, 4)
    with pytest.raises(ValueError):
        wilson_interval(-1, 4)
