"""Deterministic schedule construction, feasibility checking and evaluation.

A *layout* is the compact solution representation: for every machine, an
ordered list of job-id batches. build_schedule turns a layout into concrete
start and processing times (always the earliest feasible start and the
shortest feasible processing time, which never hurts any objective
component). The earliest start comes from Machine.earliest_start, the one
place the availability-window rule lives; check_feasibility verifies given
start times against the windows on its own.

The batch rules that do not depend on a batch's position (one attribute,
eligibility, capacity, compatible processing times) live here once:
summarize reads a batch's jobs in one pass into a BatchSummary, the one
value per batch that the annealer and the oracle hold, its job ids with
it, and batch_fault tests the rules on it. schedule_machine, the oracle and
the annealer's move into a new batch test a whole batch with batch_fault.
Two places test one job against a batch being grown inline instead: the
annealer's job move (anneal._Search.edit_rows) on the kept summary of its
target batch, before the merged summary is built, and greedy's fill
(greedy._open_batch) on its running totals, which it keeps for speed (see
there). Every batch is placed with Machine.earliest_start, after the
previous batch's end plus setup and the batch's latest release.
check_feasibility, which reports
every rule that given batches break, is the one independent reading, and
stays independent on purpose: it is the reference that evaluate(check=True)
and the benchmark's checks hold the annealer's and the oracle's output to,
so routing it through batch_fault would let a batch_fault bug pass unseen.
"""

from __future__ import annotations

from typing import Collection, NamedTuple, Sequence

from .model import (
    Batch,
    CostBreakdown,
    InputError,
    Instance,
    Machine,
    ObjectiveWeights,
    Solution,
    Violation,
    errors_only,
)

Layout = Sequence[Sequence[Collection[int]]]


class InfeasibleBatch(InputError):
    """A batch of a layout cannot be scheduled on its machine."""

    def __init__(self, machine_id: int, position: int, reason: str):
        self.machine_id = machine_id
        self.position = position
        self.reason = reason
        super().__init__(f"machine {machine_id}, batch {position}: {reason}")


class InfeasibleSolution(Exception):
    """A solution failed feasibility checking during evaluation."""

    def __init__(self, violations: list[Violation]):
        self.violations = violations
        super().__init__("; ".join(str(v) for v in violations))


class BatchSummary(NamedTuple):
    """A batch's job ids and what scheduling needs from its jobs, read once."""

    jobs: tuple[int, ...]  # in the order summarize was given them
    attribute: int | None  # None when the jobs mix attributes
    size: int
    proc: int  # largest min_time: the shortest feasible processing time
    max_time: int  # smallest max_time
    release: int  # latest release
    dues: tuple[int, ...]  # sorted, so tardy jobs are a bisect away
    eligible: frozenset[int]  # machines every job of the batch may use


def summarize(instance: Instance, job_ids: Collection[int]) -> BatchSummary:
    """Summary of a batch of job ids in one pass; the batch must be non-empty."""
    job = instance.job
    jobs = tuple(job_ids)
    ids = iter(jobs)
    first = job(next(ids))
    attribute = first.attribute
    size = first.size
    proc = first.min_time
    max_time = first.max_time
    release = first.release
    dues = [first.due]
    eligible = first.eligible
    for job_id in ids:
        j = job(job_id)
        if j.attribute != attribute:
            attribute = None
        size += j.size
        if j.min_time > proc:
            proc = j.min_time
        if j.max_time < max_time:
            max_time = j.max_time
        if j.release > release:
            release = j.release
        dues.append(j.due)
        eligible = eligible & j.eligible
    dues.sort()
    return BatchSummary(jobs, attribute, size, proc, max_time, release, tuple(dues), eligible)


def batch_fault(instance: Instance, machine: Machine, summary: BatchSummary) -> str | None:
    """The first batch rule the summarized batch breaks on the machine, or None.

    These rules do not depend on the batch's position in the row; the
    availability windows are Machine.earliest_start's part.
    """
    if summary.attribute is None:
        return "jobs mix attributes"
    if machine.id not in summary.eligible:
        job_id = next(j for j in summary.jobs if machine.id not in instance.job(j).eligible)
        return f"job {job_id} not eligible"
    if summary.size > machine.capacity:
        return "capacity exceeded"
    if summary.proc > summary.max_time:
        return "incompatible processing times"
    return None


def schedule_machine(
    instance: Instance, machine: Machine, batch_jobs: Sequence[Collection[int]]
) -> tuple[Batch, ...]:
    """Schedule the given job-id batches on one machine, left to right.

    Each batch starts as early as possible after its release dates, the
    previous batch plus setup, and inside a single availability window that
    also hosts the setup. Raises InfeasibleBatch when a batch cannot be
    placed.
    """
    batches: list[Batch] = []
    prev_attribute = machine.initial_attribute
    prev_end = 0
    for position, job_ids in enumerate(batch_jobs):
        if not job_ids:
            raise InfeasibleBatch(machine.id, position, "empty batch")
        summary = summarize(instance, job_ids)
        fault = batch_fault(instance, machine, summary)
        if fault is not None:
            raise InfeasibleBatch(machine.id, position, fault)
        setup = instance.setup_times[prev_attribute - 1][summary.attribute - 1]
        start = machine.earliest_start(max(summary.release, prev_end + setup), setup, summary.proc)
        if start is None:
            raise InfeasibleBatch(machine.id, position, "no availability window fits")
        batches.append(Batch(frozenset(job_ids), start, summary.proc))
        prev_attribute = summary.attribute
        prev_end = start + summary.proc
    return tuple(batches)


def build_schedule(instance: Instance, layout: Layout) -> Solution:
    """Deterministically schedule a full layout; raises InfeasibleBatch."""
    if len(layout) != instance.n_machines:
        raise ValueError(
            f"layout has {len(layout)} machine rows, instance has {instance.n_machines}"
        )
    return Solution(
        tuple(
            schedule_machine(instance, machine, machine_layout)
            for machine, machine_layout in zip(instance.machines, layout)
        )
    )


def check_feasibility(instance: Instance, solution: Solution) -> list[Violation]:
    """Check every scheduling rule; an empty result means a feasible solution.

    Rules: attribute homogeneity, release dates, processing-time windows,
    setup separation and non-overlap, machine eligibility, machine
    availability, machine capacity, and that every job is scheduled exactly
    once.
    """
    if len(solution.batches) != instance.n_machines:
        raise ValueError("solution and instance machine counts differ")
    violations: list[Violation] = []

    seen: dict[int, int] = {}
    for machine, machine_batches in zip(instance.machines, solution.batches):
        prev_attribute = machine.initial_attribute
        prev_end = 0
        for position, batch in enumerate(machine_batches):
            entity = f"machine {machine.id} batch {position}"
            if not batch.jobs:
                violations.append(Violation(entity, "assignment", "empty batch"))
                continue
            unknown = sorted(j for j in batch.jobs if not instance.has_job(j))
            if unknown:
                violations.append(
                    Violation(entity, "assignment", f"unknown job ids {unknown}")
                )
                continue
            jobs = [instance.job(j) for j in batch.jobs]
            for j in jobs:
                seen[j.id] = seen.get(j.id, 0) + 1

            attributes = {j.attribute for j in jobs}
            if len(attributes) > 1:
                violations.append(
                    Violation(entity, "attribute", f"mixed attributes {sorted(attributes)}")
                )
            attribute = jobs[0].attribute

            late_release = max(j.release for j in jobs)
            if batch.start < late_release:
                violations.append(
                    Violation(entity, "release", f"start {batch.start} before release {late_release}")
                )

            lo = max(j.min_time for j in jobs)
            hi = min(j.max_time for j in jobs)
            if not lo <= batch.processing_time <= hi:
                violations.append(
                    Violation(
                        entity,
                        "processing-window",
                        f"processing time {batch.processing_time} outside [{lo}, {hi}]",
                    )
                )

            if sum(j.size for j in jobs) > machine.capacity:
                violations.append(
                    Violation(entity, "capacity", f"total size exceeds capacity {machine.capacity}")
                )

            ineligible = [j.id for j in jobs if machine.id not in j.eligible]
            if ineligible:
                violations.append(
                    Violation(entity, "eligibility", f"jobs {ineligible} not eligible")
                )

            setup = instance.setup_time(prev_attribute, attribute)
            if batch.start - setup < prev_end:
                violations.append(
                    Violation(
                        entity,
                        "setup-overlap",
                        f"start {batch.start} leaves no room for setup {setup} after {prev_end}",
                    )
                )
            window_ok = any(
                w_start <= batch.start - setup and batch.end <= w_end
                for w_start, w_end in machine.availability
            )
            if not window_ok:
                violations.append(
                    Violation(
                        entity,
                        "availability",
                        f"setup+processing span [{batch.start - setup}, {batch.end}] fits no window",
                    )
                )
            prev_attribute = attribute
            prev_end = batch.end

    for j in instance.jobs:
        count = seen.get(j.id, 0)
        if count != 1:
            violations.append(Violation(f"job {j.id}", "assignment", f"scheduled {count} times"))

    return violations


def machine_cost(
    instance: Instance, machine: Machine, batches: Sequence[Batch]
) -> tuple[int, int, int]:
    """(processing time, tardy count, setup cost) of one machine's schedule."""
    proc = 0
    tardy = 0
    setup_cost = 0
    prev_attribute = machine.initial_attribute
    for batch in batches:
        proc += batch.processing_time
        attribute = instance.job(next(iter(batch.jobs))).attribute
        setup_cost += instance.setup_cost(prev_attribute, attribute)
        for job_id in batch.jobs:
            if batch.end > instance.job(job_id).due:
                tardy += 1
        prev_attribute = attribute
    return proc, tardy, setup_cost


def evaluate(
    instance: Instance,
    solution: Solution,
    weights: ObjectiveWeights,
    check: bool = True,
) -> CostBreakdown:
    """Compute the cost breakdown of a solution.

    With check=True (the default) the solution is verified first and
    InfeasibleSolution is raised on any error-level violation.
    """
    if check:
        violations = errors_only(check_feasibility(instance, solution))
        if violations:
            raise InfeasibleSolution(violations)
    proc = 0
    tardy = 0
    setup_cost = 0
    for machine, machine_batches in zip(instance.machines, solution.batches):
        p, t, sc = machine_cost(instance, machine, machine_batches)
        proc += p
        tardy += t
        setup_cost += sc
    return CostBreakdown(
        proc_time=proc,
        tardy=tardy,
        setup_cost=setup_cost,
        objective=weights.objective(proc, tardy, setup_cost, instance.n_jobs),
    )


def relative_gap(value: float, bound: float) -> float:
    """Percentage gap 100*(value - bound)/value; 0 when both are zero."""
    if value == 0 and bound == 0:
        return 0.0
    return 100.0 * (value - bound) / value
