"""Task allocation for transport agents via unequal-dimensional discrete
optimal transport: measures, trip costs, exact/entropic solvers, structural
condition verifiers, and scenario generation."""

__version__ = "0.1.0"

from .analysis import (
    ConditionReport,
    check_nestedness_1d,
    cross_difference,
    indifference_set_distance,
    monotone_map_1d,
    verify_nondegeneracy,
    verify_twist,
)
from .cost import (
    CostMatrix,
    DynamicsSpec,
    cost_matrix,
    grad_x,
    grad_y,
    marginal_terms,
    mixed_hessian,
    reduced_cost,
    reduced_cost_matrix,
    reduction_constant,
    trip_cost,
    whiten,
    wpd_cost,
    wpd_gramian,
)
from .measures import (
    DiscreteMeasure,
    TaskSet,
    index_pushforward,
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
    brute_force_small,
    check_stability,
    purity,
    solve,
    solve_entropic,
    solve_exact,
    support_is_unique,
)

__all__ = [name for name in dir() if not name.startswith("_")]
