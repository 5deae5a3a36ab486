from __future__ import annotations

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from ovensched import (
    AnnealParams,
    CostBreakdown,
    GeneratorConfig,
    InfeasibleBatch,
    MoveJob,
    MoveJobNewBatch,
    ObjectiveWeights,
    SwapBatches,
    apply_move,
    build_schedule,
    check_feasibility,
    construct,
    evaluate,
    generate_instance,
    objective_lb,
    run_annealing,
    sample_move,
)
from ovensched.anneal import NoMoveAvailable, _locate, _Search
from ovensched.schedule import machine_cost, schedule_machine

from conftest import EXAMPLE_OBJECTIVE_LB, tiny_config

FAST = AnnealParams(rng_seed=3, warmup_moves=100, moves_per_level=60, time_limit=20.0)


def layout_of(instance):
    solution, _ = construct(instance)
    return solution.layout()


def partition_ids(layout):
    ids = [j for row in layout for batch in row for j in batch]
    return sorted(ids)


def test_forced_swap_on_two_batch_machine():
    layout = [[[1], [2]], []]
    rng = random.Random(0)
    move = None
    inst = generate_instance(tiny_config(2, 99))
    # force the swap kind: other kinds get probability zero
    for _ in range(5):
        move = sample_move(inst, layout, rng, probs=(1.0, 0.0, 0.0, 0.0))
        assert move == SwapBatches(machine=0, position=0)
    new_layout = apply_move(inst, layout, move)
    assert new_layout[0] == [[2], [1]]


def test_moves_preserve_partition(example):
    rng = random.Random(11)
    layout = layout_of(example)
    expected = partition_ids(layout)
    applied = 0
    for _ in range(600):
        move = sample_move(example, layout, rng)
        new_layout = apply_move(example, layout, move)
        if new_layout is None:
            continue
        applied += 1
        assert partition_ids(new_layout) == expected
        layout = new_layout
    assert applied > 100


def test_move_job_new_batch_keeps_partition(example):
    layout = layout_of(example)
    move = MoveJobNewBatch(job=5, machine=1, position=0)
    new_layout = apply_move(example, layout, move)
    assert partition_ids(new_layout) == partition_ids(layout)
    assert [5] in new_layout[1]


def test_move_job_cheap_rejections(example):
    layout = [[[1]], [[3], [9]]]  # partial layout is fine for apply_move
    # job 1 into job 9's batch: attribute 2 vs 1 -> rejected
    assert apply_move(example, layout, MoveJob(job=1, machine=1, batch=1)) is None
    # job 9 onto machine 1 (not eligible)
    m0 = _locate(layout, 9)
    assert m0 == (1, 1)
    assert apply_move(example, layout, MoveJob(job=9, machine=0, batch=0)) is None
    # capacity: job 1 (18) into job 3's batch (17) on machine 2 (cap 20)
    assert apply_move(example, layout, MoveJob(job=1, machine=1, batch=0)) is None


def test_move_job_passes_cheap_checks_and_reschedules(example):
    # job 5 into job 8's batch: combined size 17 <= 18 and the processing
    # windows meet at 50, so the move survives the cheap checks and the
    # machine reschedules cleanly
    from ovensched import build_schedule

    layout = layout_of(example)
    target = next(
        (m, b) for m, row in enumerate(layout) for b, batch in enumerate(row) if batch == [8]
    )
    new_layout = apply_move(example, layout, MoveJob(job=5, machine=target[0], batch=target[1]))
    assert new_layout is not None
    assert sorted(new_layout[target[0]][-1]) == [5, 8]
    build_schedule(example, new_layout)  # must not raise


def test_no_move_available():
    inst = generate_instance(tiny_config(1, 5))
    with pytest.raises(NoMoveAvailable):
        sample_move(inst, [[], []], random.Random(0))


def test_run_annealing_improves_example(example):
    lb = objective_lb(example)
    result = run_annealing(example, replace(FAST, rng_seed=7), lb=lb)
    _, greedy_cost = construct(example)
    assert result.stop_reason == "final_temp"
    assert check_feasibility(example, result.solution) == []
    assert result.cost.objective <= greedy_cost.objective
    assert result.cost.objective >= EXAMPLE_OBJECTIVE_LB - 1e-12


def test_run_annealing_deterministic(example):
    a = run_annealing(example, replace(FAST, rng_seed=5))
    b = run_annealing(example, replace(FAST, rng_seed=5))
    assert a.solution == b.solution
    assert a.cost == b.cost
    assert a.stop_reason == b.stop_reason
    assert [p.cost for p in a.trace.points] == [p.cost for p in b.trace.points]


def test_zero_time_limit_returns_greedy(example):
    result = run_annealing(example, AnnealParams(rng_seed=1, time_limit=0.0))
    _, greedy_cost = construct(example)
    assert result.stop_reason == "time"
    assert result.cost == greedy_cost


def test_gap_stop_fires(example):
    # a bound equal to the greedy cost makes the start solution good enough
    _, greedy_cost = construct(example)
    fake_lb = replace(objective_lb(example), objective_lb=greedy_cost.objective)
    result = run_annealing(example, replace(FAST, lb_gap_stop=0.0), lb=fake_lb)
    assert result.stop_reason == "gap"
    assert result.cost == greedy_cost


def test_best_objective_non_increasing_in_trace(example):
    result = run_annealing(example, replace(FAST, rng_seed=13, trace_period=0.0))
    objectives = [p.cost.objective for p in result.trace.points]
    assert all(a >= b - 1e-15 for a, b in zip(objectives, objectives[1:]))


def test_anneal_random_instances_feasible_and_sound():
    for seed in range(6):
        inst = generate_instance(tiny_config(8, 7000 + seed))
        lb = objective_lb(inst)
        result = run_annealing(
            inst, AnnealParams(rng_seed=seed, warmup_moves=50, moves_per_level=40), lb=lb
        )
        assert check_feasibility(inst, result.solution) == []
        assert result.cost.objective >= lb.objective_lb - 1e-12


def _any_move(instance, layout, rng):
    """A job move with arbitrary arguments, ineligible machines included."""
    job = rng.randrange(instance.n_jobs) + 1
    machine = rng.randrange(instance.n_machines)
    if layout[machine] and rng.random() < 0.5:
        return MoveJob(job, machine, rng.randrange(len(layout[machine])))
    return MoveJobNewBatch(job, machine, rng.randrange(len(layout[machine]) + 2))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 24),
    st.integers(1, 3),
    st.integers(0, 10**6),
    st.integers(0, 10**6),
)
def test_incremental_evaluation_matches_full_reschedule(n_jobs, n_machines, instance_seed, walk_seed):
    instance = generate_instance(tiny_config(n_jobs, instance_seed, n_machines=n_machines))
    weights = ObjectiveWeights.for_instance(instance)
    search = _Search(instance, layout_of(instance))
    rng = random.Random(walk_seed)
    for _ in range(80):
        if rng.random() < 0.8:
            move = sample_move(instance, search.layout, rng)
        else:
            move = _any_move(instance, search.layout, rng)
        new_layout = apply_move(instance, search.layout, move)
        outcome = search.evaluate(move)
        if new_layout is None:
            assert outcome is None
            continue
        changed = [m for m, row in enumerate(new_layout) if row is not search.layout[m]]
        try:
            rebuilt = {
                m: schedule_machine(instance, instance.machines[m], new_layout[m]) for m in changed
            }
        except InfeasibleBatch:
            assert outcome is None
            continue
        assert outcome is not None
        rows, totals = outcome
        assert sorted(rows) == changed
        for m, batches in rebuilt.items():
            assert rows[m].batches == new_layout[m]
            assert [state[1] for state in rows[m].states[1:]] == [b.end for b in batches]
            assert rows[m].cost == machine_cost(instance, instance.machines[m], batches)
        if rng.random() < 0.5:
            search.accept(move, rows, totals)
            full = evaluate(instance, build_schedule(instance, search.layout), weights, check=True)
            assert totals == (full.proc_time, full.tardy, full.setup_cost)


# The benchmark's 500-job instance and move budget (3 cooling levels). These
# are the results of rescheduling whole rows after every move; the
# incremental evaluation must reproduce that search exactly.
@pytest.mark.parametrize(
    "rng_seed, expected",
    [
        (1, CostBreakdown(18922, 465, 2194, 0.9135480272108845)),
        (2, CostBreakdown(19094, 463, 2172, 0.9099515646258504)),
    ],
)
def test_pinned_results_at_benchmark_scale(rng_seed, expected):
    instance = generate_instance(GeneratorConfig(n_jobs=500, n_machines=5, n_attributes=5, seed=3))
    params = AnnealParams(
        final_temp=4e-6,
        cooling_rate=0.2,
        moves_per_level=1000,
        warmup_moves=1000,
        time_limit=120,
        rng_seed=rng_seed,
    )
    result = run_annealing(instance, params)
    assert result.stop_reason == "final_temp"
    assert result.cost == expected
    weights = ObjectiveWeights.for_instance(instance)
    assert evaluate(instance, result.solution, weights, check=True) == expected
