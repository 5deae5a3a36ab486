from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from ovensched import (
    Batch,
    GeneratorConfig,
    Instance,
    Job,
    Machine,
    Solution,
    check_feasibility,
    construct,
    generate_instance,
    objective_lb,
)
from ovensched.greedy import Unschedulable

from conftest import examples, schedule_digest, tiny_config

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


class _ReferenceMachine:
    __slots__ = ("machine", "prev_attribute", "prev_end", "batches")

    def __init__(self, machine):
        self.machine = machine
        self.prev_attribute = machine.initial_attribute
        self.prev_end = 0
        self.batches = []


def _reference_can_start_now(instance, state, job, now):
    if job.release > now:
        return False
    machine = state.machine
    if machine.id not in job.eligible or machine.capacity < job.size:
        return False
    setup = instance.setup_time(state.prev_attribute, job.attribute)
    if state.prev_end + setup > now:
        return False
    return machine.earliest_start(now, setup, job.min_time) == now


def _reference_open_batch(instance, state, lead, now, unscheduled):
    machine = state.machine
    setup = instance.setup_time(state.prev_attribute, lead.attribute)
    members = [lead]
    total_size = lead.size
    proc = lead.min_time
    max_cap = lead.max_time
    candidates = sorted(
        (
            j
            for j in unscheduled.values()
            if j.id != lead.id
            and j.attribute == lead.attribute
            and machine.id in j.eligible
            and j.release <= now
        ),
        key=lambda j: (j.due, j.id),
    )
    for job in candidates:
        if total_size + job.size > machine.capacity:
            continue
        new_proc = max(proc, job.min_time)
        new_cap = min(max_cap, job.max_time)
        if new_proc > new_cap or machine.earliest_start(now, setup, new_proc) != now:
            continue
        members.append(job)
        total_size += job.size
        proc = new_proc
        max_cap = new_cap
    state.batches.append(Batch(frozenset(j.id for j in members), now, proc))
    state.prev_attribute = lead.attribute
    state.prev_end = now + proc
    for job in members:
        del unscheduled[job.id]


def _unit_stepping_schedule(instance: Instance) -> Solution:
    """The dispatching rule simulated literally, one time unit at a time.

    At every time up to the last window end, the earliest-due job that can
    start opens a batch on the largest (then lowest-id) machine that can
    start it, and the scan starts again from the first job. Raises
    Unschedulable with the earliest-due job left over, as construct does.
    """
    states = [_ReferenceMachine(m) for m in instance.machines]
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
                available = [s for s in states if _reference_can_start_now(instance, s, job, now)]
                if available:
                    state = min(available, key=lambda s: (-s.machine.capacity, s.machine.id))
                    _reference_open_batch(instance, state, job, now, unscheduled)
                    placed = True
                    break
        now += 1
    if unscheduled:
        raise Unschedulable(next(j.id for j in by_due if j.id in unscheduled))
    return Solution(tuple(tuple(s.batches) for s in states))


def _outcome(schedule, instance):
    """The schedule, or the job id of the Unschedulable it raises."""
    try:
        return schedule(instance)
    except Unschedulable as exc:
        return exc.job_id


def _greedy_schedule(instance):
    return construct(instance)[0]


def test_unit_stepping_equivalence(example):
    assert construct(example)[0] == _unit_stepping_schedule(example)
    for seed in range(15):
        inst = generate_instance(tiny_config(7, 3000 + seed))
        assert construct(inst)[0] == _unit_stepping_schedule(inst)


@st.composite
def _small_instances(draw):
    """Instances on a short, dense time scale, so that batches often end
    exactly at a window end and jobs often wait for each other. Some are
    invalid: windows may be too short for a job, and a min_time may be 0."""
    n_machines = draw(st.integers(1, 3))
    n_attributes = draw(st.integers(1, 3))
    gap = draw(st.integers(0, 12))
    spread = draw(st.sampled_from([0, 4, 15, 40]))
    machines = []
    for machine_id in range(1, n_machines + 1):
        windows, t = [], draw(st.integers(0, gap))
        for _ in range(draw(st.integers(1, 4))):
            end = t + draw(st.integers(0, 25))
            windows.append((t, end))
            t = end + 1 + draw(st.integers(0, gap))
        initial = draw(st.integers(1, n_attributes))
        machines.append(Machine(machine_id, draw(st.integers(2, 8)), initial, tuple(windows)))
    jobs = []
    for job_id in range(1, draw(st.integers(1, 8)) + 1):
        min_time = draw(st.integers(0, 8))
        release = draw(st.integers(0, spread))
        eligible = draw(st.sets(st.integers(1, n_machines), min_size=1))
        jobs.append(
            Job(
                job_id,
                draw(st.integers(1, n_attributes)),
                draw(st.integers(1, 6)),
                release,
                release + draw(st.integers(0, 20)),
                min_time,
                min_time + draw(st.integers(0, 4)),
                frozenset(eligible),
            )
        )
    square = st.lists(st.integers(0, 4), min_size=n_attributes, max_size=n_attributes)
    setup_times = draw(st.lists(square, min_size=n_attributes, max_size=n_attributes))
    return Instance(
        machines=tuple(machines),
        jobs=tuple(jobs),
        attribute_count=n_attributes,
        setup_times=setup_times,
        setup_costs=setup_times,
    )


@settings(max_examples=examples(300), deadline=None)
@given(_small_instances())
def test_event_simulation_matches_unit_stepping(inst):
    assert _outcome(_greedy_schedule, inst) == _outcome(_unit_stepping_schedule, inst)


def _one_machine(windows, jobs, attribute_count=1, setup_times=((0,),)):
    return Instance(
        machines=(Machine(1, 10, 1, windows),),
        jobs=jobs,
        attribute_count=attribute_count,
        setup_times=setup_times,
        setup_costs=tuple((0,) * attribute_count for _ in range(attribute_count)),
    )


def test_unschedulable_names_the_reference_job():
    # job 2 is due first and fits nowhere; jobs 1 and 3 are placed around it
    inst = _one_machine(
        ((0, 20), (30, 50)),
        (
            Job(1, 1, 4, 0, 50, 10, 10, frozenset({1})),
            Job(2, 1, 4, 0, 20, 25, 25, frozenset({1})),
            Job(3, 1, 4, 5, 60, 10, 10, frozenset({1})),
        ),
    )
    with pytest.raises(Unschedulable) as raised:
        construct(inst)
    assert raised.value.job_id == 2
    assert _outcome(_unit_stepping_schedule, inst) == 2


def test_zero_processing_time_leaves_the_machine_free():
    # not a valid instance (min_time 0): after job 2's empty batch the
    # machine is still free at time 0, now with a zero setup into job 1
    jobs = (
        Job(1, 2, 4, 0, 10, 5, 5, frozenset({1})),
        Job(2, 3, 4, 0, 11, 0, 0, frozenset({1})),
        Job(3, 1, 4, 0, 12, 0, 0, frozenset({1})),
    )
    setup_times = ((0, 3, 0), (0, 0, 0), (0, 0, 0))
    inst = _one_machine(((0, 100),), jobs, 3, setup_times)
    solution = construct(inst)[0]
    assert solution == _unit_stepping_schedule(inst)
    assert [(sorted(b.jobs), b.start) for b in solution.batches[0]] == [([2], 0), ([1], 0), ([3], 5)]


# The benchmark's instance shape (k=5, a=5) and a one-attribute shape
# (k=3, a=1), where every waiting job may join the lead's batch. The k=5
# n=500/1000 entries were recorded from the former implementation, which
# rescanned every job from the first after each placement and probed every
# job on every machine to find the next time; the n=250 and a=1 entries
# from the one that still walked every released job to fill a batch.
@pytest.mark.parametrize(
    "n_jobs, n_machines, n_attributes, seed, expected, objective, batch_count, digest",
    [
        (
            500, 5, 5, 3, (12106, 487, 2149), 0.946136462585034, 181,
            "980fdfaa24a39f5813053961057beb2877268b5413f436b9cc5e63c187c96c96",
        ),
        (
            1000, 5, 5, 3, (23703, 991, 4286), 0.9622681385281385, 357,
            "74ed093c6cb7bd594f8fd5d53e29d824e89439d2b9959753eccd2e629dc8d85b",
        ),
        (
            1000, 5, 5, 110000, (23719, 985, 3998), 0.9567320282186949, 365,
            "750f8edee40d0a4a33121acd397da7e057cbe7dde4551e1c47881c7934781075",
        ),
        (
            250, 5, 5, 3, (6127, 229, 1122), 0.8914933333333334, 97,
            "378be5a9d6af8765ce9dc3aa4d854bbb7350c09a34236bc80063860a2e19a3e4",
        ),
        (
            300, 3, 1, 3, (7866, 296, 2124), 0.961265306122449, 118,
            "c316ccf64cadc6657fbef9c83b2ddcef28e6f1cad5485cc0d0816ce2430f4976",
        ),
    ],
    ids=["n500-s3", "n1000-s3", "n1000-s110000", "n250-s3", "n300-k3-a1-s3"],
)
def test_pinned_greedy_at_benchmark_scale(
    n_jobs, n_machines, n_attributes, seed, expected, objective, batch_count, digest
):
    config = GeneratorConfig(
        n_jobs=n_jobs, n_machines=n_machines, n_attributes=n_attributes, seed=seed
    )
    solution, cost = construct(generate_instance(config))
    assert (cost.proc_time, cost.tardy, cost.setup_cost) == expected
    assert cost.objective == objective
    assert solution.batch_count == batch_count
    assert schedule_digest(solution) == digest


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
