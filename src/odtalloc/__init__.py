"""Task allocation for transport agents via unequal-dimensional discrete
optimal transport: measures, trip costs, exact/entropic solvers, structural
condition verifiers, and scenario generation."""

__version__ = "0.1.0"

from .analysis import (
    ConditionReport,
    check_nestedness_1d,
    cross_difference,
    verify_monge,
    verify_nondegeneracy,
    verify_twist,
)
from .cost import (
    CostMatrix,
    DynamicsSpec,
    cost_matrix,
    factors,
    grad_x,
    grad_y,
    mixed_hessian,
    reduced_cost,
    reduced_cost_matrix,
    trip_cost,
    whiten,
    wpd_cost,
    wpd_gramian,
)
from .measures import (
    COORD_LIMIT,
    DiscreteMeasure,
    TaskSet,
    load_agents_csv,
    load_tasks_csv,
    normalize,
    project_lonlat,
    write_agents_csv,
    write_tasks_csv,
)
from .rng import RngStream, rng_stream
from .scenarios import ScenarioSpec, generate
from .solver import (
    METHODS,
    DualPotentials,
    Solution,
    StabilityReport,
    TransportPlan,
    check_stability,
    solve,
    solve_entropic,
    solve_exact,
    support_is_unique,
)

__all__ = [name for name in dir() if not name.startswith("_")]
