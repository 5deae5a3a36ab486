from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from ovensched import (
    Batch,
    InfeasibleBatch,
    InfeasibleSolution,
    Instance,
    Job,
    Machine,
    ObjectiveWeights,
    Solution,
    build_schedule,
    check_feasibility,
    evaluate,
    generate_instance,
    relative_gap,
)
from ovensched.schedule import BatchSummary, summarize

from conftest import (
    EXAMPLE_OPTIMAL,
    EXAMPLE_OPTIMAL_LAYOUT,
    EXAMPLE_OBJECTIVE,
    tiny_config,
)


def weights_for(instance):
    return ObjectiveWeights.for_instance(instance)


def test_build_schedule_optimal_layout(example):
    solution = build_schedule(example, EXAMPLE_OPTIMAL_LAYOUT)
    assert check_feasibility(example, solution) == []
    cost = evaluate(example, solution, weights_for(example))
    assert (cost.proc_time, cost.tardy, cost.setup_cost) == EXAMPLE_OPTIMAL
    assert cost.objective == pytest.approx(EXAMPLE_OBJECTIVE, abs=1e-12)


def test_build_schedule_single_job(example):
    solution = build_schedule(example, [[[8]], []])
    batch = solution.batches[0][0]
    # release 31 dominates the window start 21 plus zero setup
    assert batch.start == 31
    assert batch.end == 81


def test_build_schedule_empty_layout(example):
    solution = build_schedule(example, [[], []])
    assert solution.batch_count == 0
    cost = evaluate(example, solution, weights_for(example), check=False)
    assert (cost.proc_time, cost.tardy, cost.setup_cost) == (0, 0, 0)


def test_evaluate_zero_job_instance(example):
    from ovensched import Instance, ObjectiveWeights, Solution

    empty = Instance(example.machines, (), 2, example.setup_times, example.setup_costs)
    cost = evaluate(empty, Solution(((), ())), ObjectiveWeights.for_instance(empty))
    assert cost == type(cost)(0, 0, 0, 0.0)


def test_build_schedule_rejections(example):
    with pytest.raises(InfeasibleBatch, match="capacity"):
        build_schedule(example, [[[1, 2]], []])  # sizes 18+16 > 18
    with pytest.raises(InfeasibleBatch, match="eligible"):
        build_schedule(example, [[[3]], []])  # job 3 only allows machine 2
    with pytest.raises(InfeasibleBatch, match="attributes"):
        build_schedule(example, [[[4, 2]], []])  # attributes 1 and 2 mixed
    with pytest.raises(InfeasibleBatch, match="empty"):
        build_schedule(example, [[[]], []])

    # disjoint processing windows: shrink job 1 so capacity is not the blocker
    from ovensched import Instance, Job

    jobs = list(example.jobs)
    jobs[0] = Job(1, 2, 2, 2, 16, 11, 11, frozenset({1, 2}))
    small = Instance(example.machines, jobs, 2, example.setup_times, example.setup_costs)
    with pytest.raises(InfeasibleBatch, match="incompatible"):
        build_schedule(small, [[[1, 8]], []])  # [11,11] vs [50,50]


def test_build_schedule_no_window():
    from ovensched import Instance, Job, Machine

    # the lone window fits one 10-unit batch, never two
    inst = Instance(
        machines=(Machine(1, 4, 1, ((0, 15),)),),
        jobs=(
            Job(1, 1, 3, 0, 99, 10, 10, frozenset({1})),
            Job(2, 1, 3, 0, 99, 10, 10, frozenset({1})),
        ),
        attribute_count=1,
        setup_times=((0,),),
        setup_costs=((0,),),
    )
    with pytest.raises(InfeasibleBatch, match="window"):
        build_schedule(inst, [[[1], [2]]])


def test_check_feasibility_flags_mutations(example):
    solution = build_schedule(example, EXAMPLE_OPTIMAL_LAYOUT)

    def with_batch(machine_idx, batch_idx, new_batch):
        rows = [list(bs) for bs in solution.batches]
        rows[machine_idx][batch_idx] = new_batch
        return Solution(tuple(tuple(r) for r in rows))

    # start one earlier than job 5/7 release
    b = solution.batches[0][1]
    mutated = with_batch(0, 1, Batch(b.jobs, b.start - 1, b.processing_time))
    assert any(v.rule == "release" for v in check_feasibility(example, mutated))

    # attribute mixing
    b0 = solution.batches[0][0]  # jobs 4, 10 (attribute 1)
    mutated = with_batch(0, 0, Batch(b0.jobs | {2}, b0.start, b0.processing_time))
    found = check_feasibility(example, mutated)
    assert any(v.rule == "attribute" for v in found)

    # processing time outside the member window
    mutated = with_batch(0, 0, Batch(b0.jobs, b0.start, 99))
    assert any(v.rule == "processing-window" for v in check_feasibility(example, mutated))

    # overlap: start the second batch before the first ends
    mutated = with_batch(0, 1, Batch(b.jobs, solution.batches[0][0].start, b.processing_time))
    found = check_feasibility(example, mutated)
    assert any(v.rule in ("setup-overlap", "release") for v in found)

    # availability: shift a batch before the machine opens
    b2 = solution.batches[1][0]
    mutated = with_batch(1, 0, Batch(b2.jobs, 50, b2.processing_time))
    assert any(v.rule == "availability" for v in check_feasibility(example, mutated))


def test_check_feasibility_assignment(example):
    solution = build_schedule(example, EXAMPLE_OPTIMAL_LAYOUT)
    rows = [list(bs) for bs in solution.batches]
    del rows[1][0]  # drop the batch holding job 9
    partial = Solution(tuple(tuple(r) for r in rows))
    found = check_feasibility(example, partial)
    assert any(v.rule == "assignment" and "job 9" in v.entity for v in found)


def test_evaluate_checks_by_default(example):
    solution = build_schedule(example, [[[8]], []])
    with pytest.raises(InfeasibleSolution):
        evaluate(example, solution, weights_for(example))
    cost = evaluate(example, solution, weights_for(example), check=False)
    assert cost.proc_time == 50


def test_evaluate_is_order_independent(example):
    w = weights_for(example)
    base = build_schedule(example, EXAMPLE_OPTIMAL_LAYOUT)
    shuffled_layout = [[list(reversed(b)) for b in row] for row in EXAMPLE_OPTIMAL_LAYOUT]
    other = build_schedule(example, shuffled_layout)
    assert evaluate(example, base, w) == evaluate(example, other, w)


def test_relative_gap():
    assert relative_gap(72, 68) == pytest.approx(100 * 4 / 72)
    assert relative_gap(8, 7) == pytest.approx(12.5)
    assert relative_gap(5, 5) == 0.0
    assert relative_gap(0, 0) == 0.0
    with pytest.raises(ZeroDivisionError):
        relative_gap(0, 1)
    # antitone in the bound
    assert relative_gap(10, 9) < relative_gap(10, 8) < relative_gap(10, 0)


def random_layout(instance, rng):
    """Random machine assignment and grouping; often unschedulable, that is fine."""
    per_machine = [[] for _ in instance.machines]
    jobs = list(instance.jobs)
    rng.shuffle(jobs)
    for job in jobs:
        machine_id = rng.choice(sorted(job.eligible))
        row = per_machine[machine_id - 1]
        if row and rng.random() < 0.5:
            row[-1].append(job.id)
        else:
            row.append([job.id])
    return per_machine


def test_built_schedules_are_always_feasible():
    rng = random.Random(42)
    attempts = 0
    built = 0
    while attempts < 1500:
        seed = rng.randint(0, 10**6)
        instance = generate_instance(tiny_config(rng.randint(3, 15), seed))
        w = weights_for(instance)
        for _ in range(10):
            attempts += 1
            layout = random_layout(instance, rng)
            try:
                solution = build_schedule(instance, layout)
            except InfeasibleBatch:
                continue
            built += 1
            assert check_feasibility(instance, solution) == []
            # the builder always emits the shortest feasible processing time
            for machine_batches in solution.batches:
                for batch in machine_batches:
                    assert batch.processing_time == max(
                        instance.job(j).min_time for j in batch.jobs
                    )
            evaluate(instance, solution, w)  # must not raise
    assert built > 100  # sanity: the property was actually exercised


def _reference_summary(instance, job_ids):
    """summarize as one generator per field."""
    jobs = [instance.job(j) for j in job_ids]
    attribute = jobs[0].attribute
    return BatchSummary(
        attribute if all(j.attribute == attribute for j in jobs) else None,
        sum(j.size for j in jobs),
        max(j.min_time for j in jobs),
        min(j.max_time for j in jobs),
        max(j.release for j in jobs),
        tuple(sorted(j.due for j in jobs)),
        frozenset.intersection(*(j.eligible for j in jobs)),
    )


@st.composite
def _batches(draw):
    """An instance of 1-4 jobs (attributes 1-3, any eligibility over three
    machines, min_time above max_time allowed) and a batch of its jobs in
    any order."""
    n = draw(st.integers(1, 4))
    value = st.integers(0, 30)
    jobs = tuple(
        Job(
            i + 1,
            draw(st.integers(1, 3)),
            draw(st.integers(1, 10)),
            draw(value),
            draw(value),
            draw(value),
            draw(value),
            frozenset(draw(st.sets(st.integers(1, 3), min_size=1))),
        )
        for i in range(n)
    )
    machines = tuple(Machine(m, 20, 1, ((0, 100),)) for m in (1, 2, 3))
    zeros = ((0,) * 3,) * 3
    instance = Instance(machines, jobs, 3, zeros, zeros)
    ids = draw(st.permutations(range(1, n + 1)))
    return instance, ids[: draw(st.integers(1, n))]


@given(_batches())
def test_summarize_matches_field_by_field_reference(case):
    instance, job_ids = case
    summary = summarize(instance, job_ids)
    assert summary == _reference_summary(instance, job_ids)
    assert type(summary.dues) is tuple and type(summary.eligible) is frozenset
