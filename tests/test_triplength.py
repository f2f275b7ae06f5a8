import numpy as np
import pytest

from chargesim.triplength import TripLengthDistribution, default_trip_distribution


@pytest.fixture(scope="module")
def dist():
    return default_trip_distribution()


def test_normalization_constant(dist):
    assert dist.Z == pytest.approx(1.005078098931755, abs=1e-9)


def test_total_mass_is_one(dist):
    assert dist.tail_probability(0.0) == pytest.approx(1.0, abs=1e-6)


def test_mean_km(dist):
    assert dist.mean_km() == pytest.approx(16.733986042306608, abs=1e-6)


def test_median(dist):
    assert dist.quantile(0.5) == pytest.approx(9.019690049555422, abs=1e-4)


def test_tail_values(dist):
    assert dist.tail_probability(74.8) == pytest.approx(0.028872528263798537, abs=1e-9)
    assert dist.tail_probability(88.0) == pytest.approx(0.01951260083535866, abs=1e-9)
    assert dist.tail_probability(161.0) == pytest.approx(0.003343275063229623, abs=1e-9)
    assert dist.tail_probability(dist.upper_km) == 0.0
    assert dist.tail_probability(dist.upper_km + 10.0) == 0.0


def test_raw_density_spot_value(dist):
    assert dist.raw_density(1.0) == pytest.approx(0.07531516094492036, abs=1e-15)


def test_pdf_edges(dist):
    assert dist.pdf(0.0) == 0.0
    assert dist.pdf(dist.upper_km + 1.0) == 0.0
    assert dist.pdf(10.0) > 0.0


def test_cdf_shape(dist):
    assert dist.cdf(0.0) == 0.0
    assert dist.cdf(dist.upper_km) == pytest.approx(1.0, abs=1e-12)
    ys = np.linspace(0.0, dist.upper_km, 500)
    vals = dist.cdf(ys)
    assert np.all(np.diff(vals) >= 0.0)


def test_quantile_round_trip(dist):
    qs = np.linspace(0.01, 0.99, 25)
    ys = dist.quantile(qs)
    back = dist.cdf(ys)
    assert np.max(np.abs(back - qs)) < 1e-3


def test_quantile_domain(dist):
    with pytest.raises(ValueError):
        dist.quantile(-0.1)
    with pytest.raises(ValueError):
        dist.quantile(1.0001)


def test_sampling_bounds_and_reproducibility(dist):
    rng = np.random.default_rng(123)
    draws = dist.sample(rng, size=10_000)
    assert draws.shape == (10_000,)
    assert np.all(draws >= 0.0)
    assert np.all(draws <= dist.upper_km)
    again = dist.sample(np.random.default_rng(123), size=10_000)
    assert np.array_equal(draws, again)
    one = dist.sample(np.random.default_rng(9))
    assert np.isscalar(one) or np.asarray(one).ndim == 0


def test_negative_length_rejected(dist):
    with pytest.raises(ValueError):
        dist.raw_density(-1.0)
    with pytest.raises(ValueError):
        dist.tail_probability(-1.0)


def test_constructor_validation():
    with pytest.raises(ValueError):
        TripLengthDistribution(a=0.0)
    with pytest.raises(ValueError):
        TripLengthDistribution(b=-1.0)
    with pytest.raises(ValueError):
        TripLengthDistribution(c=0.0)
    with pytest.raises(ValueError):
        TripLengthDistribution(upper_km=0.0)
    with pytest.raises(ValueError):
        TripLengthDistribution(table_size=8)


def test_frozen_table_is_the_quadrature_build():
    # the default instance reads its table from package data; the
    # quadrature build must give the same floats, bit for bit
    frozen, fresh = default_trip_distribution(), TripLengthDistribution()
    regenerate = (
        "stale triplength_table.npy; regenerate it with PYTHONPATH=src python -c "
        "'from chargesim.triplength import freeze_default_table; freeze_default_table()'"
    )
    assert sorted(vars(frozen)) == sorted(vars(fresh))
    assert np.array_equal(frozen._y_knots, fresh._y_knots), regenerate
    assert np.array_equal(frozen._cdf_knots, fresh._cdf_knots), regenerate
    assert frozen.Z == fresh.Z, regenerate
    assert (frozen.a, frozen.b, frozen.c, frozen.upper_km) == (fresh.a, fresh.b, fresh.c, fresh.upper_km)


def test_default_instance_is_cached():
    assert default_trip_distribution() is default_trip_distribution()
