"""Fast robust action selection for multi-agent systems: maximize the worst
agent's objective under a matroid constraint via a truncated-average
surrogate, descending-threshold greedy, and bisection on the saturation
level, with baselines, exact small-instance oracles, and a seeded Monte
Carlo benchmark harness."""

from .bench import (
    BenchConfig,
    SummaryRow,
    TrialResult,
    aggregate,
    generate_scenario,
    read_results_csv,
    run_benchmark,
    trial_seed,
    write_results_csv,
    write_summary_csv,
)
from .matroid import (
    Matroid,
    PartitionMatroid,
    UniformMatroid,
    check_matroid_axioms,
    matroid_from_dict,
    matroid_to_dict,
)
from .scenario import (
    EvaluationCounter,
    Scenario,
    agent_values,
    load_scenario,
    min_objective,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from .solvers import (
    SOLVERS,
    GreedyStep,
    Solution,
    SolverParams,
    brute_force_max,
    brute_force_maxmin,
    iter_independent_sets,
    ratio_greedy_baseline,
    saturate_robust,
    simple_greedy,
    threshold_greedy,
)
from .surrogate import SurrogateOracle, compute_curvature

__version__ = "0.1.0"

__all__ = [
    "SOLVERS",
    "BenchConfig",
    "EvaluationCounter",
    "GreedyStep",
    "Matroid",
    "PartitionMatroid",
    "Scenario",
    "Solution",
    "SolverParams",
    "SummaryRow",
    "SurrogateOracle",
    "TrialResult",
    "UniformMatroid",
    "agent_values",
    "aggregate",
    "brute_force_max",
    "brute_force_maxmin",
    "check_matroid_axioms",
    "compute_curvature",
    "generate_scenario",
    "iter_independent_sets",
    "load_scenario",
    "matroid_from_dict",
    "matroid_to_dict",
    "min_objective",
    "ratio_greedy_baseline",
    "read_results_csv",
    "run_benchmark",
    "saturate_robust",
    "save_scenario",
    "scenario_from_dict",
    "scenario_to_dict",
    "simple_greedy",
    "threshold_greedy",
    "trial_seed",
    "write_results_csv",
    "write_summary_csv",
    "__version__",
]
