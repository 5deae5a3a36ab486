"""Deterministic construction heuristic (earliest-due-date dispatching).

Simulates time from 0. At each step the released, unscheduled jobs that can
start on some eligible machine right now are considered; the one with the
earliest due date opens a batch on the machine that can start it earliest
(ties: larger capacity, then smaller machine id), and compatible released
jobs join in due-date order while capacity and the availability window
allow. When nothing can start, time advances.

The implementation jumps straight to the next time at which any job can
start; this is provably the same schedule the unit-step simulation
produces, because nothing in the machine state changes between placements.
tests/test_greedy.py keeps the literal unit stepper as a cross-check.
Window placement goes through Machine.earliest_start.
"""

from __future__ import annotations

from .model import Batch, CostBreakdown, Instance, Job, ObjectiveWeights, Solution
from .schedule import evaluate


class Unschedulable(Exception):
    """A job could not be placed before all availability windows ran out."""

    def __init__(self, job_id: int):
        self.job_id = job_id
        super().__init__(f"job {job_id} cannot be scheduled")


class _MachineState:
    __slots__ = ("machine", "prev_attribute", "prev_end", "batches")

    def __init__(self, machine):
        self.machine = machine
        self.prev_attribute = machine.initial_attribute
        self.prev_end = 0
        self.batches: list[Batch] = []


def _earliest_start(instance: Instance, state: _MachineState, job: Job, now: int) -> int | None:
    """Earliest time >= now at which the job could open a batch on the machine."""
    machine = state.machine
    if machine.id not in job.eligible or machine.capacity < job.size:
        return None
    setup = instance.setup_time(state.prev_attribute, job.attribute)
    lower = max(job.release, state.prev_end + setup, now)
    return machine.earliest_start(lower, setup, job.min_time)


def _can_start_now(instance: Instance, state: _MachineState, job: Job, now: int) -> bool:
    # the cheap exits come first: this runs about a million times at n=1000
    if job.release > now:
        return False
    machine = state.machine
    if machine.id not in job.eligible or machine.capacity < job.size:
        return False
    setup = instance.setup_time(state.prev_attribute, job.attribute)
    if state.prev_end + setup > now:
        return False
    return machine.earliest_start(now, setup, job.min_time) == now


def _open_batch(
    instance: Instance,
    state: _MachineState,
    lead: Job,
    now: int,
    unscheduled: dict[int, Job],
) -> None:
    """Start a batch with the lead job and fill it in due-date order."""
    machine = state.machine
    setup = instance.setup_time(state.prev_attribute, lead.attribute)
    members = [lead]
    total_size = lead.size
    proc = lead.min_time
    max_cap = min(j.max_time for j in members)
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
    batch = Batch(frozenset(j.id for j in members), now, proc)
    state.batches.append(batch)
    state.prev_attribute = lead.attribute
    state.prev_end = batch.end
    for job in members:
        del unscheduled[job.id]


def _pick_machine(
    instance: Instance, states: list[_MachineState], job: Job, now: int
) -> _MachineState | None:
    """Among machines that can start the job now: larger capacity, smaller id."""
    available = [s for s in states if _can_start_now(instance, s, job, now)]
    if not available:
        return None
    return min(available, key=lambda s: (-s.machine.capacity, s.machine.id))


def construct(
    instance: Instance, weights: ObjectiveWeights | None = None
) -> tuple[Solution, CostBreakdown]:
    """Build a feasible schedule with the dispatching rule; also an upper bound.

    Raises Unschedulable when some job can never start (the instance
    validator flags such jobs up front, so this only occurs on invalid
    input).
    """
    if weights is None:
        weights = ObjectiveWeights.for_instance(instance)
    states = [_MachineState(m) for m in instance.machines]
    unscheduled = {j.id: j for j in instance.jobs}
    by_due = sorted(instance.jobs, key=lambda j: (j.due, j.id))

    now = 0
    while unscheduled:
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
        if not unscheduled:
            break
        upcoming = [
            start
            for job in unscheduled.values()
            for state in states
            if (start := _earliest_start(instance, state, job, now + 1)) is not None
        ]
        if not upcoming:
            remaining = next(j for j in by_due if j.id in unscheduled)
            raise Unschedulable(remaining.id)
        now = min(upcoming)

    solution = Solution(tuple(tuple(s.batches) for s in states))
    return solution, evaluate(instance, solution, weights, check=False)
