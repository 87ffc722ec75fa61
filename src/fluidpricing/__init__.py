"""Price-based revenue management: fluid solvers, re-solving heuristics, exact DP, regret benchmarks."""

from .demand import (
    AssumptionConstants,
    DemandModel,
    MultiDemandModel,
    model_from_dict,
    benchmark_model,
    validate_multi,
)
from .errors import (
    ConfigError,
    DegeneracyWarning,
    DomainError,
    KernelUnavailableError,
    ModelValidationError,
    ResourceGuardError,
    SolverError,
    UnsupportedModelError,
)
from .fluid import (
    FluidSolution,
    PartialOptimum,
    active_partition,
    partial_optimum,
    solve_fluid_multi,
    solve_fluid_single,
)
from .policies import (
    DpPolicy,
    MultiResolvingPolicy,
    PolicyDecision,
    ValueTable,
    dp_value,
    exact_policy_values,
    exact_values,
    multi_values,
    resolving_policy,
    solve_dp,
    solve_dp_multi,
    static_policy,
)
from .sim import (
    BatchResult,
    RegretReport,
    SimTrace,
    constant_bound,
    estimate_regret,
    fluid_value,
    gamma,
    simulate,
    simulate_batch,
    simulate_batch_multi,
    simulate_multi,
)

__version__ = "0.1.0"
