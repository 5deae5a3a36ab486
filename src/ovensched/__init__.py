"""Solver toolkit for oven batch scheduling.

Computes fast problem-specific lower bounds on the optimal cost, builds
feasible schedules with a greedy dispatching rule and simulated annealing,
certifies solution quality via bound gaps, and verifies everything against
an exhaustive oracle on small instances.
"""

from .anneal import (
    AnnealParams,
    AnnealResult,
    Move,
    MoveJob,
    MoveJobNewBatch,
    ReinsertBatch,
    SwapBatches,
    run_annealing,
    sample_move,
)
from .bounds import (
    AttributeBoundDetail,
    BoundReport,
    NoFeasiblePlacement,
    attribute_bounds,
    classify_large_small,
    eligibility_lb,
    gac_plus,
    objective_lb,
    setup_cost_lb,
    tardy_lb,
)
from .fileio import (
    GeneratorConfig,
    ParseError,
    ResultRow,
    ValidationError,
    generate_instance,
    parse_instance,
    parse_solution,
    write_instance,
    write_results,
    write_solution,
)
from .greedy import Unschedulable, construct
from .model import (
    Batch,
    CostBreakdown,
    Instance,
    Job,
    Machine,
    ObjectiveWeights,
    Solution,
    Violation,
    validate_instance,
)
from .oracle import (
    BudgetExceeded,
    Infeasible,
    OracleLimits,
    OracleResult,
    exact_solve,
)
from .schedule import (
    InfeasibleBatch,
    InfeasibleSolution,
    build_schedule,
    check_feasibility,
    evaluate,
    relative_gap,
)

__version__ = "0.1.0"
