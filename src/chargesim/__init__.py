"""chargesim: Monte Carlo simulation of a national EV public-charging network.

Trips are drawn from a population-weighted origin model and an empirical
trip-length distribution, routed through a charge-point network with
reservation bookkeeping, and scored for speed, routability, and resilience
to charge-point faults.
"""

from .errors import ConfigError, DataError
from .ev import EvParams, charge_duration_h, effective_speed_kph, max_leg_km, soc_drop
from .experiment import (
    InfraCostModel,
    ScenarioConfig,
    ScenarioMetrics,
    capacity_search,
    cost_per_user_eur,
    run_scenario,
    run_scenario_grid,
)
from .faults import run_fault_sweep, sample_fault_masks
from .geo import GeoPoint, distance_km, offset_km
from .network import ChargeNetwork, ChargePoint, add_colocated_redundancy, load_network_csv
from .population import PopulationGrid, load_population_csv
from .reservations import Booking, ReservationLedger, SlotConflict
from .router import (
    AWARE,
    BLIND,
    RoutePlan,
    RouterConfig,
    TripRequest,
    Unroutable,
    average_trip_speed,
    commit_route,
    plan_route,
)
from .triplength import TripLengthDistribution, default_trip_distribution

__version__ = "0.1.0"

__all__ = [
    "AWARE",
    "BLIND",
    "Booking",
    "ChargeNetwork",
    "ChargePoint",
    "ConfigError",
    "DataError",
    "EvParams",
    "GeoPoint",
    "InfraCostModel",
    "PopulationGrid",
    "ReservationLedger",
    "RoutePlan",
    "RouterConfig",
    "ScenarioConfig",
    "ScenarioMetrics",
    "SlotConflict",
    "TripLengthDistribution",
    "TripRequest",
    "Unroutable",
    "add_colocated_redundancy",
    "average_trip_speed",
    "capacity_search",
    "charge_duration_h",
    "commit_route",
    "cost_per_user_eur",
    "default_trip_distribution",
    "distance_km",
    "effective_speed_kph",
    "load_network_csv",
    "load_population_csv",
    "max_leg_km",
    "offset_km",
    "plan_route",
    "run_fault_sweep",
    "run_scenario",
    "run_scenario_grid",
    "sample_fault_masks",
    "soc_drop",
    "__version__",
]
