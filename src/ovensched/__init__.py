"""Solver toolkit for oven batch scheduling.

Computes fast problem-specific lower bounds on the optimal cost, builds
feasible schedules with a greedy dispatching rule and simulated annealing,
certifies solution quality via bound gaps, and verifies everything against
an exhaustive oracle on small instances.

The names below load on first use (PEP 562): ``import ovensched`` imports no
submodule, and ``ovensched.X`` or ``from ovensched import X`` imports only
the module that defines X, so a command that never anneals never loads the
annealer.
"""

import importlib

# the names each submodule exports
_MODULE_EXPORTS = {
    "anneal": ("AnnealParams", "AnnealResult", "Move", "MoveJob", "MoveJobNewBatch",
               "ReinsertBatch", "SwapBatches", "run_annealing", "sample_move"),
    "bounds": ("AttributeBoundDetail", "BoundReport", "NoFeasiblePlacement",
               "attribute_bounds", "classify_large_small", "eligibility_lb", "gac_plus",
               "objective_lb", "setup_cost_lb", "tardy_lb"),
    "experiment": ("GeneratorConfig", "ResultRow", "generate_instance", "write_results"),
    "fileio": ("ParseError", "ValidationError", "parse_instance", "parse_solution",
               "write_instance", "write_solution"),
    "greedy": ("Unschedulable", "construct"),
    "model": ("Batch", "CostBreakdown", "InputError", "Instance", "Job", "Machine",
              "ObjectiveWeights", "Solution", "Violation", "validate_instance"),
    "oracle": ("BudgetExceeded", "Infeasible", "OracleLimits", "OracleResult", "exact_solve"),
    "schedule": ("InfeasibleBatch", "InfeasibleSolution", "build_schedule",
                 "check_feasibility", "evaluate", "relative_gap"),
}
# exported name -> the submodule that defines it
_EXPORTS = {name: module for module, names in _MODULE_EXPORTS.items() for name in names}

__all__ = sorted(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _MODULE_EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_EXPORTS, *_EXPORTS})
