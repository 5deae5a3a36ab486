from __future__ import annotations

import pytest

from ovensched import (
    Instance,
    Job,
    Machine,
    Solution,
    check_feasibility,
    construct,
    generate_instance,
    objective_lb,
)
from ovensched.greedy import Unschedulable, _MachineState, _open_batch, _pick_machine

from conftest import tiny_config

# frozen after the first verified run of the dispatching rule on the
# example instance (feasible, and above the 0.7066 lower bound)
EXAMPLE_GREEDY = (158, 10, 74)
EXAMPLE_GREEDY_OBJECTIVE = (4 * 158 / 18 + 74 / 10 + 100 * 10) / (10 * 105)


def test_example_instance_golden(example):
    solution, cost = construct(example)
    assert check_feasibility(example, solution) == []
    assert (cost.proc_time, cost.tardy, cost.setup_cost) == EXAMPLE_GREEDY
    assert cost.objective == pytest.approx(EXAMPLE_GREEDY_OBJECTIVE, abs=1e-12)
    assert cost.objective >= objective_lb(example).objective_lb


def test_determinism(example):
    first = construct(example)
    second = construct(example)
    assert first == second


def test_single_job_instance():
    inst = Instance(
        machines=(Machine(1, 10, 2, ((5, 100),)),),
        jobs=(Job(1, 1, 4, 2, 60, 7, 9, frozenset({1})),),
        attribute_count=2,
        setup_times=((0, 0), (3, 0)),
        setup_costs=((1, 1), (1, 1)),
    )
    solution, cost = construct(inst)
    batch = solution.batches[0][0]
    # window opens at 5, setup from initial attribute 2 into 1 takes 3
    assert batch.start == max(2, 5 + 3)
    assert batch.processing_time == 7
    assert cost.tardy == 0


def test_identical_jobs_chunk_by_capacity():
    jobs = tuple(
        Job(i + 1, 1, 1, 0, 1000, 10, 10, frozenset({1})) for i in range(7)
    )
    inst = Instance(
        machines=(Machine(1, 3, 1, ((0, 1000),)),),
        jobs=jobs,
        attribute_count=1,
        setup_times=((0,),),
        setup_costs=((0,),),
    )
    solution, cost = construct(inst)
    assert solution.batch_count == 3  # ceil(7 / 3)
    assert cost.proc_time == 30


def _unit_stepping_schedule(instance: Instance) -> Solution:
    """The dispatching rule simulated literally, one time unit at a time.

    construct jumps straight to the next time at which some job can start;
    this reference visits every time up to the last window end instead.
    """
    states = [_MachineState(m) for m in instance.machines]
    unscheduled = {j.id: j for j in instance.jobs}
    by_due = sorted(instance.jobs, key=lambda j: (j.due, j.id))
    horizon = max((end for m in instance.machines for _, end in m.availability), default=0)
    now = 0
    while unscheduled and now <= horizon:
        placed = True
        while placed:
            placed = False
            for job in by_due:
                if job.id not in unscheduled:
                    continue
                state = _pick_machine(instance, states, job, now)
                if state is not None:
                    _open_batch(instance, state, job, now, unscheduled)
                    placed = True
                    break
        now += 1
    return Solution(tuple(tuple(s.batches) for s in states))


def test_unit_stepping_equivalence(example):
    assert construct(example)[0] == _unit_stepping_schedule(example)
    for seed in range(15):
        inst = generate_instance(tiny_config(7, 3000 + seed))
        assert construct(inst)[0] == _unit_stepping_schedule(inst)


def test_feasible_and_above_lb_on_random_instances():
    for seed in range(25):
        inst = generate_instance(tiny_config(10, 4000 + seed))
        solution, cost = construct(inst)
        assert check_feasibility(inst, solution) == []
        assert cost.objective >= objective_lb(inst).objective_lb - 1e-12


def test_unschedulable_raises():
    # the only machine's windows cannot host the job at all; bypasses the
    # generator so the validator is not consulted
    inst = Instance(
        machines=(Machine(1, 10, 1, ((0, 5),)),),
        jobs=(Job(1, 1, 4, 0, 60, 7, 9, frozenset({1})),),
        attribute_count=1,
        setup_times=((0,),),
        setup_costs=((0,),),
    )
    with pytest.raises(Unschedulable):
        construct(inst)
