"""stocomb: two-stage stochastic combinatorial optimization at desk scale.

Client-element problems with deterministic approximation solvers, the
boosted-sampling policies, a sample-average pipeline over stochastic LPs,
and a correlation-gap laboratory, all cross-checked against exhaustive
brute-force oracles on small instances.
"""

from .boosting import (
    BoostPolicyBuilder,
    IndBoostPolicyBuilder,
    PolicyEvaluation,
    TwoStagePolicy,
    boost_and_sample,
    evaluate_policy,
    exact_two_stage_opt,
    ind_boost,
)
from .errors import (
    CapExceeded,
    DegenerateInstance,
    Disconnected,
    Infeasible,
    NotMonotone,
    NotSubmodular,
    NumericalFailure,
    SchemaError,
    StocombError,
    Unbounded,
    UncertifiedScheme,
)
from .gap import (
    GapInstance,
    GapReport,
    SplitMap,
    check_split_invariants,
    correlation_gap,
    independent_expectation,
    split,
    split_scheme,
    verify_gap_bound,
    worst_case_expectation,
)
from .lp import LinearProgram, LPResult, solve_lp
from .model import (
    Explicit,
    IndependentBernoulli,
    KPartition,
    ProblemInstance,
    ScenarioDistribution,
    Solution,
    check_monotone_feasibility,
    check_subadditive,
    exact_opt,
)
from .problems import (
    set_cover_problem,
    steiner_problem,
    ufl_problem,
    vertex_cover_problem,
)
from .saa import (
    GridSpec,
    Polytope,
    ScenarioBlock,
    StochasticLPInstance,
    TwoStageUFL,
    build_sample_average,
    check_omega_subgradient,
    encode_ufl,
    extended_grid,
    h_exact,
    minimize,
    recourse_value,
    sample_size,
    solve_deterministic_equivalent,
    subgradient_at,
)
from .sharing import (
    OrderedCostShareScheme,
    check_fairness,
    check_scheme,
    equal_split_shares,
    marginal_scheme,
    measure_strictness,
    measure_unistrictness,
)
from .solvers import (
    ApproxAlgorithm,
    algorithm_for,
    augment,
    empirical_alpha,
    set_cover_solve,
    steiner_solve,
    ufl_solve,
    vertex_cover_solve,
)

__version__ = "0.1.0"
