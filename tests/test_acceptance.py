"""Acceptance criteria, one test per criterion.

Each test prints a single [PASS]/[FAIL] line (run with -s or -rA to see
them all) and asserts the criterion at its stated tolerance.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import replace

import pytest

from ovensched import (
    AnnealParams,
    GeneratorConfig,
    construct,
    exact_solve,
    gac_plus,
    generate_instance,
    objective_lb,
    parse_instance,
    relative_gap,
    run_annealing,
)
from ovensched.cli import dispatch
from ovensched.oracle import BudgetExceeded, OracleLimits

from clique_cover import min_clique_cover
from conftest import EXAMPLE_PATH, tiny_config


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")


def _completions(solution) -> dict[int, int]:
    """Completion time per scheduled job id."""
    return {j: batch.end for row in solution.batches for batch in row for j in batch.jobs}


def _trunc1(value: float) -> float:
    """Percentage truncated to one decimal, as gap tables print it."""
    return math.floor(value * 10 + 1e-9) / 10


@pytest.fixture(scope="module")
def golden():
    return parse_instance(EXAMPLE_PATH.read_text())


def test_criterion_1_golden_bounds(golden):
    report = objective_lb(golden)
    checks = {
        "batches": report.batches_lb == 8,
        "proc": report.proc_lb == 158,
        "setup": report.setup_lb == 68,
        "setup-before": report.setup_lb_before == 60,
        "setup-after": report.setup_lb_after == 68,
        "tardy": report.tardy_lb == 7,
        "tardy-set": report.tardy_jobs == frozenset({1, 2, 3, 4, 6, 9, 10}),
        "objective": abs(report.objective_lb - 0.7066) <= 0.001,
        "runtime": report.wall_time < 0.1,
    }
    ok = all(checks.values())
    _report(1, ok, f"bounds 8/158/68(60,68)/7, objective_lb {report.objective_lb:.4f}, "
                   f"{report.wall_time * 1000:.1f} ms")
    assert checks == {k: True for k in checks}


def test_criterion_2_golden_optimum(golden):
    lb = objective_lb(golden)
    started = time.perf_counter()
    result = exact_solve(golden, limits=OracleLimits(max_jobs=10), prune_with_lb=True)
    elapsed = time.perf_counter() - started
    cost = result.cost
    gap_proc = _trunc1(relative_gap(cost.proc_time, lb.proc_lb))
    gap_tardy = _trunc1(relative_gap(cost.tardy, lb.tardy_lb))
    gap_setup = _trunc1(relative_gap(cost.setup_cost, lb.setup_lb))
    gap_objective = relative_gap(cost.objective, lb.objective_lb)
    checks = {
        "components": (cost.proc_time, cost.tardy, cost.setup_cost) == (158, 8, 72),
        "gap-proc": abs(gap_proc - 0.0) <= 0.05,
        "gap-tardy": abs(gap_tardy - 12.5) <= 0.05,
        "gap-setup": abs(gap_setup - 5.5) <= 0.05,
        "gap-objective": abs(gap_objective - 11.9) <= 0.5,
        "runtime": elapsed <= 60.0,
    }
    ok = all(checks.values())
    _report(2, ok, f"optimum 158/8/72, gaps {gap_proc}/{gap_tardy}/{gap_setup}%, "
                   f"objective gap {gap_objective:.2f}%, {elapsed:.2f} s")
    assert checks == {k: True for k in checks}


def test_criterion_3_cover_equivalence():
    rng = random.Random(31)
    started = time.perf_counter()
    cases = 0
    agreements = 0
    while cases < 500:
        n = rng.randint(1, 8)
        units = []
        for _ in range(n):
            lo = rng.randint(1, 10)
            units.append((lo, rng.randint(lo, 10)))
        capacity = rng.randint(1, 4)
        cases += 1
        if gac_plus(units, capacity) == min_clique_cover(units, capacity):
            agreements += 1
    elapsed = time.perf_counter() - started
    ok = agreements == cases and elapsed <= 60.0
    _report(3, ok, f"greedy cover equals brute-force cover on {agreements}/{cases} "
                   f"unit-job sets, {elapsed:.1f} s")
    assert agreements == cases
    assert elapsed <= 60.0


def test_criterion_4_bound_soundness(golden):
    solved = 0
    seed = 20000
    sound = True
    eps = 1e-12
    while solved < 200:
        seed += 1
        n = 5 + seed % 5
        instance = generate_instance(tiny_config(n, seed))
        try:
            optimum = exact_solve(instance)
        except BudgetExceeded:
            continue
        solved += 1
        report = objective_lb(instance)
        _, greedy_cost = construct(instance)
        cost = optimum.cost
        sound &= report.batches_lb <= optimum.solution.batch_count
        sound &= report.proc_lb <= cost.proc_time
        sound &= report.setup_lb <= cost.setup_cost
        sound &= report.tardy_lb <= cost.tardy
        sound &= report.objective_lb <= cost.objective + eps
        sound &= greedy_cost.objective >= report.objective_lb - eps
        # every provably-tardy job is tardy in the optimal schedule
        completions = _completions(optimum.solution)
        sound &= all(
            completions[j] > instance.job(j).due for j in report.tardy_jobs
        )
        assert sound, f"unsound bound on seed {seed}"
    # greedy stays above the bound on the golden and benchmark-scale instances
    _, golden_greedy = construct(golden)
    sound &= golden_greedy.objective >= objective_lb(golden).objective_lb - eps
    big = generate_instance(GeneratorConfig(n_jobs=500, n_machines=5, n_attributes=5, seed=3))
    _, big_greedy = construct(big)
    sound &= big_greedy.objective >= objective_lb(big).objective_lb - eps
    _report(4, sound, f"all component and aggregated bounds sound on {solved} "
                      f"oracle-solved instances; greedy above the bound everywhere")
    assert sound


def test_criterion_5_monotonicity():
    rng = random.Random(47)
    pairs = 0
    monotone = True
    while pairs < 100:
        n = rng.randint(2, 7)
        units = []
        for _ in range(n):
            lo = rng.randint(1, 10)
            units.append((lo, rng.randint(lo, 10)))
        capacity = rng.randint(1, 4)
        count, proc = min_clique_cover(units, capacity)
        drop = rng.randrange(n)
        sub = units[:drop] + units[drop + 1 :]
        sub_count, sub_proc = min_clique_cover(sub, capacity)
        pairs += 1
        monotone &= sub_count <= count and sub_proc <= proc
        assert monotone, f"removal increased the cover on {units} minus {drop}"
    _report(5, monotone, f"batch count and processing time never increased over "
                         f"{pairs} job-removal pairs")
    assert monotone


def test_criterion_6_scale_performance():
    instance = generate_instance(
        GeneratorConfig(n_jobs=500, n_machines=5, n_attributes=5, seed=3)
    )
    report = objective_lb(instance)
    started = time.perf_counter()
    solution, cost = construct(instance)
    greedy_elapsed = time.perf_counter() - started
    checks = {
        "bounds": report.wall_time <= 10.0,
        "greedy": greedy_elapsed <= 1.0,
        "greedy-sound": cost.objective >= report.objective_lb - 1e-12,
    }
    ok = all(checks.values())
    _report(6, ok, f"500-job instance: bounds {report.wall_time * 1000:.0f} ms, "
                   f"greedy {greedy_elapsed * 1000:.0f} ms")
    assert checks == {k: True for k in checks}


def test_criterion_7_sa_quality():
    instances = []
    for i in range(20):
        n = 6 + i % 4
        instance = generate_instance(tiny_config(n, 30000 + i))
        instances.append((instance, exact_solve(instance), objective_lb(instance)))

    matches = 0
    runs = 0
    sound = True
    for instance, optimum, lb in instances:
        # stopping at the known optimum truncates post-optimum iterations
        # only, so the match rate equals the default-parameter rate
        stop_at_optimum = replace(lb, objective_lb=optimum.cost.objective)
        for seed in range(10):
            params = AnnealParams(rng_seed=seed, time_limit=30.0, lb_gap_stop=0.0)
            result = run_annealing(instance, params, lb=stop_at_optimum)
            runs += 1
            if result.cost.objective <= optimum.cost.objective + 1e-12:
                matches += 1
            sound &= result.cost.objective >= lb.objective_lb - 1e-12

    # gap-stop clause with the real computed bound
    gap_fires = 0
    gap_ok = True
    candidates = [
        (instance, lb)
        for instance, optimum, lb in instances
        if relative_gap(optimum.cost.objective, lb.objective_lb) <= 1.0
    ]
    for instance, lb in candidates[:5]:
        params = AnnealParams(rng_seed=1, time_limit=30.0, lb_gap_stop=1.0)
        result = run_annealing(instance, params, lb=lb)
        if result.stop_reason == "gap":
            gap_fires += 1
            gap_ok &= relative_gap(result.cost.objective, lb.objective_lb) <= 1.0

    rate = matches / runs
    checks = {
        "rate": rate >= 0.8,
        "sound": sound,
        "gap-implication": gap_ok,
        "gap-exercised": gap_fires >= 1 or not candidates,
    }
    ok = all(checks.values())
    _report(7, ok, f"SA matched the oracle in {matches}/{runs} runs ({rate:.0%}); "
                   f"gap-stop fired {gap_fires}x, always within 1%")
    assert checks == {k: True for k in checks}


def test_criterion_8_pruning_neutrality():
    neutral = True
    solved = 0
    seed = 40000
    while solved < 50:
        seed += 1
        n = 4 + seed % 3
        instance = generate_instance(tiny_config(n, seed))
        pruned = exact_solve(instance, prune_with_lb=True)
        unpruned = exact_solve(instance, prune_with_lb=False)
        solved += 1
        neutral &= pruned.cost == unpruned.cost
        neutral &= pruned.solution == unpruned.solution
        neutral &= pruned.nodes <= unpruned.nodes
        assert neutral, f"pruning changed the result on seed {seed}"
    _report(8, neutral, f"pruned and unpruned oracle agree on {solved} instances, "
                        f"pruned node counts never larger")
    assert neutral


def test_criterion_9_determinism(capsys):
    example = str(EXAMPLE_PATH)
    commands = [
        ["bounds", example],
        ["greedy", example],
        ["anneal", example, "--seed", "5", "--replicates", "2",
         "--moves-per-level", "60", "--workers", "1"],
    ]
    identical = True
    for argv in commands:
        outputs = []
        for _ in range(2):
            code = dispatch(list(argv))
            captured = capsys.readouterr()
            assert code == 0
            outputs.append(captured.out)
        identical &= outputs[0] == outputs[1] and outputs[0] != ""
    _report(9, identical, "bounds, greedy and seeded anneal print byte-identical "
                          "stdout across consecutive runs")
    assert identical
