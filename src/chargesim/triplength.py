"""Empirical trip-length distribution and inverse-CDF sampling.

The density is a*y*exp(-b*y^c) on [0, upper_km]. As printed the
coefficients do not integrate to exactly 1, so the distribution is
renormalized by a numerically computed constant; the raw density stays
available for audits. The exponent c has no closed-form antiderivative, so
normalization, moments and tails all come from adaptive quadrature.

Sampling inverts a tabulated CDF on log-spaced knots with monotone linear
interpolation, which keeps draws cheap and vectorized. The table holds the
knots and the mass below each knot, one quadrature between consecutive
knots. For the default parameters it is stored as package data
(TABLE_FILE, written by freeze_default_table), so default_trip_distribution
runs no quadrature and a run that only samples never imports scipy; a test
rebuilds the table by quadrature and compares it bit for bit. Other
parameters build their table at construction.
"""

from __future__ import annotations

import functools
import math
from pathlib import Path

import numpy as np

from .errors import DataError

QUAD_REL_TOL = 1e-9

# the printed coefficients and truncation length
A, B, C, UPPER_KM = 1.2059, 2.7733, 0.33, 2000.0

TABLE_FILE = Path(__file__).with_name("triplength_table.npy")


def _integral(f, lo: float, hi: float, limit: int) -> float:
    """Adaptive quadrature of f over [lo, hi]. scipy is imported here, not
    with the module, because only building a table, tails and moments need
    it."""
    from scipy.integrate import quad

    return quad(f, lo, hi, epsrel=QUAD_REL_TOL, limit=limit)[0]


class TripLengthDistribution:
    def __init__(
        self,
        a: float = A,
        b: float = B,
        c: float = C,
        upper_km: float = UPPER_KM,
        table_size: int = 4096,
    ) -> None:
        if min(a, b, c) <= 0:
            raise ValueError("coefficients must be positive")
        if upper_km <= 0 or table_size < 16:
            raise ValueError("bad truncation length or table size")
        self.a = a
        self.b = b
        self.c = c
        self.upper_km = upper_km

        # knots: 0 plus a log-spaced grid; log spacing concentrates
        # resolution where nearly all of the mass sits
        knots = np.concatenate(
            [[0.0], np.logspace(math.log10(1e-3), math.log10(upper_km), table_size - 1)]
        )
        self._set_table(knots, self._mass_below(knots))

    def _mass_below(self, knots: np.ndarray) -> np.ndarray:
        """Unnormalized mass below each knot, by quadrature between knots."""
        masses = np.empty(len(knots) - 1)
        for i in range(len(knots) - 1):
            masses[i] = _integral(self.raw_density, knots[i], knots[i + 1], 200)
        return np.concatenate([[0.0], np.cumsum(masses)])

    def _set_table(self, knots: np.ndarray, mass_below: np.ndarray) -> None:
        self.Z = float(mass_below[-1])
        if self.Z <= 0:
            raise ValueError("density has no mass on the support")
        self._y_knots = knots
        self._cdf_knots = mass_below / self.Z
        if np.any(np.diff(self._cdf_knots) <= 0):
            raise AssertionError("CDF table is not strictly increasing")

    def raw_density(self, y: float) -> float:
        """Unnormalized density, exactly as the coefficients state it."""
        if y < 0:
            raise ValueError(f"negative trip length: {y}")
        return self.a * y * math.exp(-self.b * y**self.c)

    def pdf(self, y: float) -> float:
        if y > self.upper_km:
            return 0.0
        return self.raw_density(y) / self.Z

    def cdf(self, y) -> np.ndarray | float:
        """Table-interpolated CDF; accepts scalars or arrays."""
        return np.interp(y, self._y_knots, self._cdf_knots)

    def tail_probability(self, y0: float) -> float:
        """P(Y > y0), by quadrature on the renormalized density."""
        if y0 < 0:
            raise ValueError(f"negative trip length: {y0}")
        if y0 >= self.upper_km:
            return 0.0
        return _integral(self.raw_density, y0, self.upper_km, 400) / self.Z

    def mean_km(self) -> float:
        return _integral(lambda y: y * self.raw_density(y), 0.0, self.upper_km, 400) / self.Z

    def quantile(self, q) -> np.ndarray | float:
        """Inverse CDF by monotone linear interpolation on the table."""
        q = np.asarray(q, dtype=float)
        if np.any((q < 0) | (q > 1)):
            raise ValueError("quantile argument outside [0, 1]")
        out = np.interp(q, self._cdf_knots, self._y_knots)
        return float(out) if out.ndim == 0 else out

    def sample(self, rng: np.random.Generator, size: int | None = None):
        """Draw trip lengths; scalar when size is None, else an array."""
        if size is None:
            # one draw: quantile's array conversion and range check cost
            # more than the lookup, and random() is already in [0, 1)
            return float(np.interp(rng.random(), self._cdf_knots, self._y_knots))
        return self.quantile(rng.random(size))


@functools.lru_cache(maxsize=4)
def default_trip_distribution() -> TripLengthDistribution:
    """Shared default-parameter instance, its table read from TABLE_FILE."""
    try:
        table = np.load(TABLE_FILE)
    except (OSError, EOFError, ValueError) as exc:
        raise DataError(
            f"cannot read the trip-length table {TABLE_FILE}: {exc}; rebuild it with "
            "python -c 'from chargesim.triplength import freeze_default_table; freeze_default_table()'"
        ) from exc
    dist = TripLengthDistribution.__new__(TripLengthDistribution)
    dist.a, dist.b, dist.c, dist.upper_km = A, B, C, UPPER_KM
    dist._set_table(*table)
    return dist


def freeze_default_table() -> None:
    """Write TABLE_FILE: the knots and the mass below each knot that the
    quadrature build gives for the default parameters."""
    dist = TripLengthDistribution()
    np.save(TABLE_FILE, np.stack([dist._y_knots, dist._mass_below(dist._y_knots)]))
