"""evchargelab: simulation and learning laboratory for online EV charging.

Core pieces: a quadratic-price cost model, an offline convex oracle,
rolling-horizon and eager baselines, a tabular Q-learning baseline, a
continuous-action actor-critic scheduler, and a two-stage aggregate
learning + projection scheduler, plus a config-driven benchmark harness.
"""

from .model import (
    ChargingSchedule,
    EVProfile,
    PriceModel,
    Scenario,
    ValidationReport,
    horizon_cost,
    slot_cost,
    validate_schedule,
)
from .scenario import (
    ArrivalDistribution,
    DwellDistribution,
    FleetConfig,
    SocDistribution,
    load_base_series,
    sample_fleet,
    synthetic_base_load,
)
from .solvers import (
    InfeasibleScenarioError,
    ProjectionResult,
    QpSolution,
    project_allocation,
    solve_offline,
    solve_rolling_step,
)
from .baselines import QLearnConfig, QTable, aem_schedule, aem_train, ec_schedule, oa_schedule

__version__ = "0.1.0"
