"""Fast problem-specific lower bounds on the optimal schedule cost.

Per attribute, the number of batches and their cumulative processing time
are bounded along two independent routes, each one function that returns
both numbers: eligibility_lb, a machine-eligibility argument (jobs tied to
a single machine force batches there), and gac_plus, a processing-time
compatibility argument (a greedy clique cover of the unit-size relaxation).
The better of the two is kept per number and attribute. Setup-cost and
tardy-job bounds build on top, and everything is aggregated into a bound on
the normalized objective.

late_floor is the package's one "late wherever it runs" floor: tardy_lb
applies it to each job alone, and the oracle to each candidate batch.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence

from .model import InputError, Instance, Job, Machine, ObjectiveWeights


class NoFeasiblePlacement(InputError):
    """A job fits in no availability window of any eligible machine."""

    def __init__(self, job_id: int):
        self.job_id = job_id
        super().__init__(f"job {job_id} fits in no availability window")


@dataclass(frozen=True)
class AttributeBoundDetail:
    """Batch-count and processing-time bounds for one attribute."""

    attribute: int
    large_jobs: frozenset[int]
    small_jobs: frozenset[int]
    b_elig_small: int
    b_gac_small: int
    p_large: int
    p_elig_small: int
    p_gac_small: int

    @property
    def b_best(self) -> int:
        return len(self.large_jobs) + max(self.b_elig_small, self.b_gac_small)

    @property
    def p_best(self) -> int:
        return self.p_large + max(self.p_elig_small, self.p_gac_small)


@dataclass(frozen=True)
class BoundReport:
    """All lower bounds of an instance plus the aggregated objective bound."""

    per_attribute: tuple[AttributeBoundDetail, ...]
    batches_lb: int
    proc_lb: int
    setup_lb: int
    setup_lb_before: int
    setup_lb_after: int
    tardy_lb: int
    tardy_jobs: frozenset[int]
    objective_lb: float
    wall_time: float


class SetupCostBound(NamedTuple):
    best: int
    before: int
    after: int


def classify_large_small(
    instance: Instance, attribute: int
) -> tuple[frozenset[int], frozenset[int]]:
    """Split the attribute's jobs into large (can never share a batch) and small.

    A job is large when, on every machine it may use, adding any other job of
    the same attribute would exceed the capacity. A lone job of an attribute
    counts as large (the condition is vacuous).
    """
    jobs = instance.jobs_with_attribute(attribute)
    sizes = sorted(j.size for j in jobs)
    large = set()
    for j in jobs:
        cap = max(instance.machine(m).capacity for m in j.eligible)
        if len(jobs) == 1:
            large.add(j.id)
            continue
        # smallest size among the *other* jobs of the attribute
        smallest_other = sizes[1] if j.size == sizes[0] else sizes[0]
        if j.size + smallest_other > cap:
            large.add(j.id)
    small = {j.id for j in jobs} - large
    return frozenset(large), frozenset(small)


def eligibility_lb(instance: Instance, small_jobs: Sequence[Job]) -> tuple[int, int]:
    """Batch-count and processing-time bounds for small jobs from single-machine eligibility.

    Jobs eligible on exactly one machine force ceil(size/capacity) batches
    there, which run at least as long as that many of their smallest minimal
    processing times; multi-eligible jobs first fill the leftover room in
    those batches and any remainder is packed into spill batches of the
    largest machine, with the smallest multi-eligible minimal processing
    times. Some batch runs as long as the small job with the largest minimal
    processing time, so the largest term is lifted to it.

    Returns (batch count, sum of batch processing times).
    """
    batches = 0
    room = 0
    terms: list[int] = []
    for machine in instance.machines:
        pinned = [j for j in small_jobs if j.eligible == {machine.id}]
        if pinned:
            size = sum(j.size for j in pinned)
            count = -(-size // machine.capacity)
            batches += count
            room += count * machine.capacity - size
            terms += sorted(j.min_time for j in pinned)[:count]
    multi = [j for j in small_jobs if len(j.eligible) > 1]
    overflow = sum(j.size for j in multi) - room
    spill = -(-overflow // instance.max_capacity) if overflow > 0 else 0
    terms += sorted(j.min_time for j in multi)[:spill]
    if not terms:
        return batches + spill, 0
    longest = max(j.min_time for j in small_jobs)
    return batches + spill, sum(terms) + max(0, longest - max(terms))


def gac_plus(units: Sequence[tuple[int, int, int]], capacity: int) -> tuple[int, int]:
    """Greedy clique cover of unit jobs, longest minimal processing time first.

    units holds (min_time, max_time, multiplicity) entries; a multiplicity
    of s stands for s identical unit-size copies.
    Opens a batch labeled with the first unplaced unit and fills it with the
    first `capacity` unplaced units whose interval contains the label. For
    unit jobs on a single machine this minimizes both the batch count and
    the cumulative batch processing time. Ties in min_time keep input order.

    Returns (batch count, sum of batch processing times).
    """
    if capacity < 1:
        raise ValueError("capacity must be >= 1")
    # an inverted interval never takes its own label, so its units never leave
    if any(lo > hi or count < 0 for lo, hi, count in units):
        raise ValueError("every unit needs min_time <= max_time and a non-negative multiplicity")
    items = sorted(units, key=lambda unit: -unit[0])  # stable
    remaining = [count for _, _, count in items]
    batches = 0
    total_time = 0
    for first, (label, _, _) in enumerate(items):
        while remaining[first]:
            batches += 1
            total_time += label
            room = capacity
            for pos in range(first, len(items)):
                count = remaining[pos]
                lo, hi, _ = items[pos]
                if count and lo <= label <= hi:
                    take = count if count < room else room
                    remaining[pos] = count - take
                    room -= take
                    if room == 0:
                        break
    return batches, total_time


def attribute_bounds(instance: Instance, attribute: int) -> AttributeBoundDetail:
    """Assemble every per-attribute bound on one large/small split."""
    large, small = classify_large_small(instance, attribute)
    small_jobs = [instance.job(j) for j in sorted(small)]
    b_elig, p_elig = eligibility_lb(instance, small_jobs)
    units = [(j.min_time, j.max_time, j.size) for j in small_jobs]
    b_gac, p_gac = gac_plus(units, instance.max_capacity) if units else (0, 0)
    return AttributeBoundDetail(
        attribute=attribute,
        large_jobs=large,
        small_jobs=small,
        b_elig_small=b_elig,
        b_gac_small=b_gac,
        p_large=sum(instance.job(j).min_time for j in large),
        p_elig_small=p_elig,
        p_gac_small=p_gac,
    )


def setup_cost_lb(instance: Instance, batches_per_attribute: Mapping[int, int]) -> SetupCostBound:
    """Setup-cost bound given per-attribute batch counts.

    before: every batch is preceded by the cheapest setup into its attribute.
    after: every non-final batch is followed by the cheapest setup out of its
    attribute and every used machine pays the cheapest setup out of its
    initial state; there is one setup per batch, so the sum of as many of
    the smallest such entries as there are batches bounds the cost from below.
    """
    a = instance.attribute_count
    before = 0
    pool: list[int] = []
    for attribute, count in sorted(batches_per_attribute.items()):
        if count == 0:
            continue
        cheapest_in = min(instance.setup_cost(q, attribute) for q in range(1, a + 1))
        cheapest_out = min(instance.setup_cost(attribute, q) for q in range(1, a + 1))
        before += count * cheapest_in
        pool.extend([cheapest_out] * count)
    for machine in instance.machines:
        pool.append(
            min(instance.setup_cost(machine.initial_attribute, q) for q in range(1, a + 1))
        )
    pool.sort()
    after = sum(pool[: sum(batches_per_attribute.values())])
    return SetupCostBound(max(before, after), before, after)


def late_floor(
    release: int, proc: int, dues: Sequence[int], machines: Iterable[Machine], setup: int
) -> int | None:
    """How many of the sorted dues lie before the batch's earliest end.

    The batch starts no earlier than release and runs for proc, with the
    setup before it, on whichever of the machines lets it end first
    (Machine.earliest_start). Returns None when it fits on none of them.
    """
    starts = (machine.earliest_start(release, setup, proc) for machine in machines)
    first = min((start for start in starts if start is not None), default=None)
    if first is None:
        return None
    return bisect_left(dues, first + proc)


def tardy_lb(
    instance: Instance, include_min_setup: bool = True
) -> tuple[int, frozenset[int]]:
    """Jobs that finish late in every feasible solution.

    Runs each job alone on its eligible machines that can hold it, after the
    smallest conceivable setup into its attribute (none with
    include_min_setup=False, the weaker variant), and flags it when
    late_floor finds it late on all of them. Raises NoFeasiblePlacement
    when a job fits nowhere at all.
    """
    flagged = set()
    for job in instance.jobs:
        machines = [m for m in map(instance.machine, job.eligible) if m.capacity >= job.size]
        setup = instance.min_setup_time_into(job.attribute) if include_min_setup else 0
        late = late_floor(job.release, job.min_time, (job.due,), machines, setup)
        if late is None:
            raise NoFeasiblePlacement(job.id)
        if late:
            flagged.add(job.id)
    return len(flagged), frozenset(flagged)


def objective_lb(instance: Instance, include_min_setup: bool = True) -> BoundReport:
    """Compute all component bounds and the aggregated objective bound."""
    start = time.perf_counter()
    details = tuple(
        attribute_bounds(instance, r) for r in range(1, instance.attribute_count + 1)
    )
    batches = sum(d.b_best for d in details)
    proc = sum(d.p_best for d in details)
    setup = setup_cost_lb(instance, {d.attribute: d.b_best for d in details})
    tardy_count, tardy_jobs = tardy_lb(instance, include_min_setup)
    weights = ObjectiveWeights.for_instance(instance)
    objective = weights.objective(proc, tardy_count, setup.best, instance.n_jobs)
    return BoundReport(
        per_attribute=details,
        batches_lb=batches,
        proc_lb=proc,
        setup_lb=setup.best,
        setup_lb_before=setup.before,
        setup_lb_after=setup.after,
        tardy_lb=tardy_count,
        tardy_jobs=tardy_jobs,
        objective_lb=objective,
        wall_time=time.perf_counter() - start,
    )
