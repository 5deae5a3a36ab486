"""Command-line front end for batch experimentation.

Subcommands: bounds, greedy, anneal, oracle, evaluate, generate, bench.
Exit codes: 0 success, 1 usage error, 2 instance/solution infeasibility,
3 exhausted search budget. Timing goes to stderr so stdout stays byte-identical
across repeated runs of deterministic commands.

Start-up is most of a bounds, greedy or evaluate command, so each command
imports only the modules it runs, beyond the model and the text formats
that every command reads: bounds loads the bounds module, greedy the
construction and the scheduler, evaluate the scheduler. The annealer is
imported by anneal and bench, the oracle by the oracle command, and the
generator and the results table (ovensched.experiment) by generate, bench
and --results. The annealer's and the oracle's parameter flags default to
"not given", so the defaults live only in AnnealParams and OracleLimits.
The model's types are slotted records, not dataclasses, so of the three
certificate commands bounds alone loads dataclasses, through BoundReport.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path
from typing import Callable, Sequence

# only for the annotations: the package resolves its names on first use, so
# naming them through it loads no module
import ovensched

from .fileio import ParseError, parse_instance, parse_solution, write_instance, write_solution
from .model import CostBreakdown, InputError, Instance, ObjectiveWeights

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_BUDGET = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _map_ordered(fn: Callable, items: Sequence, workers: int) -> list:
    """fn over items in order, on a pool of at most one worker per item."""
    workers = min(workers, len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    # imported here: the pool module is a sizeable share of the CLI's start-up
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _read_document(path: str) -> str:
    """An instance or solution file's text; bytes that are not UTF-8 are a
    ParseError on their line. Lines are numbered with splitlines, as the
    parsers do, which also ends a line at a bare '\\r' or '\\r\\n'."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # "x" stands for the bad byte, so a line break just before it counts
        line = len((data[: exc.start].decode("utf-8") + "x").splitlines())
        raise ParseError(line, "UTF-8 text") from None


def _load_instance(path: str) -> Instance:
    return parse_instance(_read_document(path))


def _cost_text(cost: CostBreakdown) -> str:
    return (
        f"proc {cost.proc_time} tardy {cost.tardy} setup {cost.setup_cost} "
        f"objective {cost.objective:.6f}"
    )


def _print_bound_report(path: str, instance: Instance, report: ovensched.BoundReport) -> None:
    print(f"instance {path}")
    print(
        f"jobs {instance.n_jobs} machines {instance.n_machines} "
        f"attributes {instance.attribute_count}"
    )
    for d in report.per_attribute:
        print(
            f"attribute {d.attribute} large {len(d.large_jobs)} small {len(d.small_jobs)} "
            f"b_best {d.b_best} p_best {d.p_best}"
        )
    print(f"batches_lb {report.batches_lb}")
    print(f"proc_lb {report.proc_lb}")
    print(f"setup_lb {report.setup_lb} before {report.setup_lb_before} after {report.setup_lb_after}")
    tardy_ids = " ".join(str(j) for j in sorted(report.tardy_jobs))
    print(f"tardy_lb {report.tardy_lb} jobs {tardy_ids}".rstrip())
    print(f"objective_lb {report.objective_lb:.6f}")


def _bounds_row(instance: str, report: ovensched.BoundReport) -> ovensched.ResultRow:
    from .experiment import ResultRow

    return ResultRow(
        instance=instance,
        method="bounds",
        objective=None,
        proc_time=report.proc_lb,
        tardy=report.tardy_lb,
        setup_cost=report.setup_lb,
        objective_lb=report.objective_lb,
        gap_pct=None,
        seed=None,
        elapsed_s=report.wall_time,
    )


def _solution_row(
    instance: str,
    method: str,
    cost: CostBreakdown,
    report: ovensched.BoundReport,
    seed: int | None,
    elapsed: float,
) -> ovensched.ResultRow:
    from .experiment import ResultRow
    from .schedule import relative_gap

    return ResultRow(
        instance=instance,
        method=method,
        objective=cost.objective,
        proc_time=cost.proc_time,
        tardy=cost.tardy,
        setup_cost=cost.setup_cost,
        objective_lb=report.objective_lb,
        gap_pct=relative_gap(cost.objective, report.objective_lb),
        seed=seed,
        elapsed_s=elapsed,
    )


def _anneal_rows(
    instance: str, outcomes: list[tuple[int, ovensched.AnnealResult]], report: ovensched.BoundReport
) -> list[ovensched.ResultRow]:
    return [
        _solution_row(
            instance, "anneal", result.cost, report, seed, result.trace[-1].elapsed
        )
        for seed, result in outcomes
    ]


def _write_results_file(path: str, rows: list[ovensched.ResultRow]) -> None:
    from .experiment import write_results

    Path(path).write_text(write_results(rows), encoding="utf-8")


def _cmd_bounds(args: argparse.Namespace) -> int:
    from .bounds import objective_lb

    instance = _load_instance(args.instance)
    report = objective_lb(instance, include_min_setup=not args.no_min_setup)
    _print_bound_report(args.instance, instance, report)
    print(f"computed in {report.wall_time:.3f}s", file=sys.stderr)
    if args.results:
        _write_results_file(args.results, [_bounds_row(args.instance, report)])
    return EXIT_OK


def _cmd_greedy(args: argparse.Namespace) -> int:
    from .greedy import construct

    instance = _load_instance(args.instance)
    started = time.perf_counter()
    solution, cost = construct(instance)
    elapsed = time.perf_counter() - started
    print(f"instance {args.instance}")
    print(write_solution(solution), end="")
    print(f"cost {_cost_text(cost)}")
    print(f"constructed in {elapsed:.3f}s", file=sys.stderr)
    if args.solution:
        Path(args.solution).write_text(write_solution(solution), encoding="utf-8")
    if args.results:
        from .bounds import objective_lb

        row = _solution_row(args.instance, "greedy", cost, objective_lb(instance), None, elapsed)
        _write_results_file(args.results, [row])
    return EXIT_OK


def _anneal_task(
    payload: tuple[Instance, ovensched.AnnealParams, ovensched.BoundReport | None],
) -> ovensched.AnnealResult:
    from .anneal import run_annealing

    instance, params, lb = payload
    return run_annealing(instance, params, lb=lb)


def _check_counts(args: argparse.Namespace) -> None:
    if args.replicates < 1:
        raise _UsageError("--replicates must be at least 1")
    if args.workers < 1:
        raise _UsageError("--workers must be at least 1")


def _given(**flags: object) -> dict[str, object]:
    """The flags given on the command line; argparse leaves the others None."""
    return {field: value for field, value in flags.items() if value is not None}


def _anneal_params(args: argparse.Namespace) -> ovensched.AnnealParams:
    """AnnealParams from the given flags; the others keep the dataclass defaults."""
    from .anneal import AnnealParams

    return AnnealParams(**_given(
        rng_seed=args.seed,
        time_limit=args.time_limit,
        lb_gap_stop=args.lb_gap_stop,
        moves_per_level=args.moves_per_level,
        max_moves=args.max_moves,
    ))


def _cmd_anneal(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from .bounds import objective_lb
    from .schedule import relative_gap

    _check_counts(args)
    instance = _load_instance(args.instance)
    lb = objective_lb(instance)
    params = _anneal_params(args)
    seeds = [params.rng_seed + i for i in range(args.replicates)]
    started = time.perf_counter()
    payloads = [(instance, replace(params, rng_seed=seed), lb) for seed in seeds]
    outcomes = list(zip(seeds, _map_ordered(_anneal_task, payloads, args.workers)))
    elapsed = time.perf_counter() - started

    print(f"instance {args.instance}")
    best_seed, best = None, None
    for seed, result in outcomes:
        print(f"replicate seed {seed} stop {result.stop_reason} cost {_cost_text(result.cost)}")
        if best is None or result.cost.objective < best.cost.objective:
            best_seed, best = seed, result
    assert best is not None
    gap = relative_gap(best.cost.objective, lb.objective_lb)
    print(f"best seed {best_seed} cost {_cost_text(best.cost)}")
    print(f"objective_lb {lb.objective_lb:.6f} gap {gap:.2f}")
    print(write_solution(best.solution), end="")
    print(f"{len(seeds)} replicates in {elapsed:.3f}s", file=sys.stderr)

    if args.trace:
        lines = ["seed,elapsed_s,objective,proc_time,tardy,setup_cost"]
        for seed, result in outcomes:
            for point in result.trace:
                c = point.cost
                lines.append(
                    f"{seed},{point.elapsed!r},{c.objective!r},{c.proc_time},{c.tardy},{c.setup_cost}"
                )
        Path(args.trace).write_text("\n".join(lines) + "\n", encoding="utf-8")
    if args.results:
        _write_results_file(args.results, _anneal_rows(args.instance, outcomes, lb))
    return EXIT_OK


def _cmd_oracle(args: argparse.Namespace) -> int:
    from .oracle import BudgetExceeded, OracleLimits, exact_solve

    instance = _load_instance(args.instance)
    limits = OracleLimits(**_given(max_jobs=args.max_jobs, node_budget=args.node_budget))
    started = time.perf_counter()
    try:
        result = exact_solve(instance, limits=limits, prune_with_lb=not args.no_prune)
    except BudgetExceeded as exc:
        print(f"budget: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    elapsed = time.perf_counter() - started
    print(f"instance {args.instance}")
    print(f"optimal {_cost_text(result.cost)}")
    print(f"nodes {result.nodes}")
    print(write_solution(result.solution), end="")
    print(f"solved in {elapsed:.3f}s", file=sys.stderr)
    return EXIT_OK


def _cmd_evaluate(args: argparse.Namespace) -> int:
    from .schedule import check_feasibility, evaluate

    instance = _load_instance(args.instance)
    solution = parse_solution(_read_document(args.solution), instance)
    violations = check_feasibility(instance, solution)
    if violations:
        for violation in violations:
            print(str(violation), file=sys.stderr)
        return EXIT_INFEASIBLE
    weights = ObjectiveWeights.for_instance(instance)
    cost = evaluate(instance, solution, weights, check=False)
    print(f"instance {args.instance} solution {args.solution}")
    print(f"cost {_cost_text(cost)}")
    return EXIT_OK


def _cmd_generate(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from .experiment import GeneratorConfig, generate_instance

    given = _given(n_jobs=args.n, n_machines=args.k, n_attributes=args.a, seed=args.seed)
    if args.config:
        base = GeneratorConfig.from_json(Path(args.config).read_text(encoding="utf-8"))
        config = replace(base, **given)
    elif args.n is None:
        raise _UsageError("generate requires --n or --config")
    else:
        config = GeneratorConfig(**given)
    instance = generate_instance(config)
    Path(args.output).write_text(write_instance(instance), encoding="utf-8")
    if args.save_config:
        Path(args.save_config).write_text(config.to_json(), encoding="utf-8")
    print(
        f"wrote {args.output} jobs {instance.n_jobs} machines {instance.n_machines} "
        f"attributes {instance.attribute_count} seed {config.seed}"
    )
    return EXIT_OK


def _cmd_bench(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from .bounds import objective_lb
    from .experiment import write_results
    from .greedy import construct

    _check_counts(args)
    directory = Path(args.directory)
    if not directory.is_dir():
        raise _UsageError(f"not a directory: {args.directory}")
    paths = sorted(str(p) for p in directory.glob("*.osp"))
    if not paths:
        raise _UsageError(f"no *.osp instances under {args.directory}")
    params = _anneal_params(args)
    seeds = [params.rng_seed + i for i in range(args.replicates)]
    # bounds and greedy run here; the SA runs of every instance share one pool
    instances, payloads = [], []
    for path in paths:
        instance = _load_instance(path)
        report = objective_lb(instance)
        started = time.perf_counter()
        _, greedy_cost = construct(instance)
        instances.append((Path(path).name, report, greedy_cost, time.perf_counter() - started))
        payloads += [(instance, replace(params, rng_seed=seed), report) for seed in seeds]
    results = iter(_map_ordered(_anneal_task, payloads, args.workers))
    all_rows = []
    for name, report, greedy_cost, greedy_elapsed in instances:
        outcomes = [(seed, next(results)) for seed in seeds]
        all_rows += [
            _bounds_row(name, report),
            _solution_row(name, "greedy", greedy_cost, report, None, greedy_elapsed),
            *_anneal_rows(name, outcomes, report),
        ]
    table = write_results(all_rows)
    if args.out:
        Path(args.out).write_text(table, encoding="utf-8")
        print(f"wrote {args.out} rows {len(all_rows)}")
    else:
        print(table, end="")
    return EXIT_OK


def _add_anneal_flags(p: argparse.ArgumentParser) -> None:
    """The flags that anneal and bench share."""
    p.add_argument("--seed", type=int)
    p.add_argument("--time-limit", type=float)
    p.add_argument("--lb-gap-stop", type=float,
                   help="stop when the gap to the lower bound reaches this percentage")
    p.add_argument("--replicates", type=int, default=10)
    p.add_argument("--moves-per-level", type=int,
                   help="moves per temperature level (0 = 50 per job)")
    p.add_argument("--max-moves", type=int,
                   help="stop a run after drawing this many moves, warm-up included")
    p.add_argument("--workers", type=int, default=os.cpu_count() or 1,
                   help="worker processes, at most one per task (default: CPU count)")


def _build_parser() -> _Parser:
    # the docstring's last paragraph is about start-up, not usage
    parser = _Parser(prog="ovensched", description=__doc__.rpartition("\n\n")[0])
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("bounds", help="compute lower bounds for an instance")
    p.add_argument("instance")
    p.add_argument("--results", help="write a results CSV here")
    p.add_argument("--no-min-setup", action="store_true",
                   help="drop the minimal-setup term from the tardiness bound")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("greedy", help="run the construction heuristic")
    p.add_argument("instance")
    p.add_argument("--solution", help="write the schedule here")
    p.add_argument("--results", help="write a results CSV here")
    p.set_defaults(func=_cmd_greedy)

    p = sub.add_parser("anneal", help="run simulated annealing replicates")
    p.add_argument("instance")
    _add_anneal_flags(p)
    p.add_argument("--trace",
                   help="write a trace CSV here: per seed, the greedy start, each "
                        "improvement of the best cost and the best cost at the stop")
    p.add_argument("--results", help="write a results CSV here")
    p.set_defaults(func=_cmd_anneal)

    p = sub.add_parser("oracle", help="solve a tiny instance exactly")
    p.add_argument("instance")
    p.add_argument("--no-prune", action="store_true", help="disable lower-bound pruning")
    p.add_argument("--max-jobs", type=int)
    p.add_argument("--node-budget", type=int)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("evaluate", help="check and price a solution file")
    p.add_argument("instance")
    p.add_argument("solution")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("generate", help="generate a random instance")
    p.add_argument("--n", type=int, default=None, help="number of jobs")
    p.add_argument("--k", type=int, default=None, help="number of machines")
    p.add_argument("--a", type=int, default=None, help="number of attributes")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--config", help="JSON GeneratorConfig to start from")
    p.add_argument("--save-config", help="write the effective config JSON here")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("bench", help="run bounds+greedy+anneal over a directory")
    p.add_argument("directory")
    _add_anneal_flags(p)
    p.add_argument("--out", help="write the results CSV here instead of stdout")
    p.set_defaults(func=_cmd_bench)

    return parser


def dispatch(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    if not getattr(args, "command", None):
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except (_UsageError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InputError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
