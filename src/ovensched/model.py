"""Domain model for the oven batch scheduling problem.

An instance consists of ovens (machines) with capacities, initial states and
availability windows, plus jobs carrying an attribute (job family), a size,
release/due dates, a feasible processing-time interval and a set of eligible
machines. Setup times and costs between consecutive batches on a machine
depend on the (previous attribute, next attribute) matrix entries.

All ids (machines, jobs, attributes) are 1-based.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Iterable


class InputError(Exception):
    """An instance or solution that cannot be read or cannot be scheduled.

    The base of every error the CLI reports with exit code 2; it lives here
    because every command loads this module.
    """


_set = object.__setattr__


class _Record:
    """A frozen value: equal and hashed by its type and field values.

    A subclass names its fields in _fields, holds them in __slots__ and sets
    them once in __init__ through object.__setattr__; assigning or deleting
    an attribute afterwards raises AttributeError. The repr is a dataclass's,
    and pickling rebuilds a record through its __init__. These are plain
    classes, not dataclasses, because importing dataclasses and generating
    their methods was a sizeable share of a short command's start-up.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), self._values()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Machine(_Record):
    """An oven: capacity in size units, initial attribute, availability windows.

    Availability windows are closed integer intervals [start, end]; a batch's
    setup plus processing span must fit entirely inside one window.
    """

    __slots__ = _fields = ("id", "capacity", "initial_attribute", "availability")
    id: int
    capacity: int
    initial_attribute: int
    availability: tuple[tuple[int, int], ...]

    def __init__(
        self, id: int, capacity: int, initial_attribute: int,
        availability: Iterable[tuple[int, int]],
    ) -> None:
        _set(self, "id", id)
        _set(self, "capacity", capacity)
        _set(self, "initial_attribute", initial_attribute)
        _set(self, "availability", tuple((int(s), int(e)) for s, e in availability))

    def earliest_start(self, lower: int, setup: int, proc: int) -> int | None:
        """Earliest start >= lower of a batch with the given setup and processing time.

        The setup plus processing span [start - setup, start + proc] must fit
        inside one availability window; this is the package's only search of
        the windows for a start time. Windows are sorted and disjoint
        (validate_instance), so the first fit is the earliest. Returns None
        when no window can host the span.
        """
        for win_start, win_end in self.availability:
            start = lower if lower > win_start + setup else win_start + setup
            if start + proc <= win_end:
                return start
        return None


class Job(_Record):
    __slots__ = _fields = (
        "id", "attribute", "size", "release", "due", "min_time", "max_time", "eligible"
    )
    id: int
    attribute: int
    size: int
    release: int
    due: int
    min_time: int
    max_time: int
    eligible: frozenset[int]

    def __init__(
        self, id: int, attribute: int, size: int, release: int, due: int,
        min_time: int, max_time: int, eligible: Iterable[int],
    ) -> None:
        _set(self, "id", id)
        _set(self, "attribute", attribute)
        _set(self, "size", size)
        _set(self, "release", release)
        _set(self, "due", due)
        _set(self, "min_time", min_time)
        _set(self, "max_time", max_time)
        _set(self, "eligible", frozenset(int(m) for m in eligible))


class Instance(_Record):
    """Immutable problem input; safe to share across concurrent readers."""

    _fields = ("machines", "jobs", "attribute_count", "setup_times", "setup_costs")
    # __dict__ holds the cached properties
    __slots__ = (*_fields, "__dict__")
    machines: tuple[Machine, ...]
    jobs: tuple[Job, ...]
    attribute_count: int
    setup_times: tuple[tuple[int, ...], ...]
    setup_costs: tuple[tuple[int, ...], ...]

    def __init__(
        self, machines: Iterable[Machine], jobs: Iterable[Job], attribute_count: int,
        setup_times: Iterable[Iterable[int]], setup_costs: Iterable[Iterable[int]],
    ) -> None:
        _set(self, "machines", tuple(machines))
        _set(self, "jobs", tuple(jobs))
        _set(self, "attribute_count", attribute_count)
        _set(self, "setup_times", tuple(tuple(row) for row in setup_times))
        _set(self, "setup_costs", tuple(tuple(row) for row in setup_costs))

    @property
    def n_jobs(self) -> int:
        return len(self.jobs)

    @property
    def n_machines(self) -> int:
        return len(self.machines)

    @cached_property
    def _machines_by_id(self) -> dict[int, Machine]:
        return {m.id: m for m in self.machines}

    @cached_property
    def _jobs_by_id(self) -> dict[int, Job]:
        return {j.id: j for j in self.jobs}

    def machine(self, machine_id: int) -> Machine:
        return self._machines_by_id[machine_id]

    def job(self, job_id: int) -> Job:
        return self._jobs_by_id[job_id]

    def has_job(self, job_id: int) -> bool:
        return job_id in self._jobs_by_id

    @cached_property
    def max_capacity(self) -> int:
        """Largest machine capacity, 0 if there are no machines."""
        return max((m.capacity for m in self.machines), default=0)

    def jobs_with_attribute(self, attribute: int) -> tuple[Job, ...]:
        return tuple(j for j in self.jobs if j.attribute == attribute)

    def setup_time(self, prev_attribute: int, next_attribute: int) -> int:
        return self.setup_times[prev_attribute - 1][next_attribute - 1]

    def setup_cost(self, prev_attribute: int, next_attribute: int) -> int:
        return self.setup_costs[prev_attribute - 1][next_attribute - 1]

    @cached_property
    def _min_setup_times_into(self) -> tuple[int, ...]:
        """Per attribute, the smallest entry of its setup-time column."""
        return tuple(min(column) for column in zip(*self.setup_times))

    def min_setup_time_into(self, attribute: int) -> int:
        """Smallest setup time that can precede a batch of the given attribute."""
        return self._min_setup_times_into[attribute - 1]


class Batch(_Record):
    """Jobs processed together: shared start time and processing time."""

    __slots__ = _fields = ("jobs", "start", "processing_time")
    jobs: frozenset[int]
    start: int
    processing_time: int

    def __init__(self, jobs: Iterable[int], start: int, processing_time: int) -> None:
        _set(self, "jobs", frozenset(int(j) for j in jobs))
        _set(self, "start", start)
        _set(self, "processing_time", processing_time)

    @property
    def end(self) -> int:
        return self.start + self.processing_time


class Solution(_Record):
    """Per-machine ordered batch lists, aligned with Instance.machines."""

    __slots__ = _fields = ("batches",)
    batches: tuple[tuple[Batch, ...], ...]

    def __init__(self, batches: Iterable[Iterable[Batch]]) -> None:
        _set(self, "batches", tuple(tuple(bs) for bs in batches))

    @property
    def batch_count(self) -> int:
        return sum(len(bs) for bs in self.batches)

    def layout(self) -> list[list[list[int]]]:
        """Job-id layout (sorted within batches) matching the batch order."""
        return [[sorted(b.jobs) for b in machine_batches] for machine_batches in self.batches]


class ObjectiveWeights(_Record):
    """The fixed weights and the per-instance normalizers of the objective.

    objective = (w_proc*p/proc_norm + w_setup*sc/setup_norm + w_tardy*t)
                / (n * (w_proc + w_tardy + w_setup))

    The weights are class constants; only the normalizers vary, and
    for_instance derives them.
    """

    w_proc = 4
    w_tardy = 100
    w_setup = 1
    weight_sum = w_proc + w_tardy + w_setup

    __slots__ = _fields = ("proc_norm", "setup_norm")
    proc_norm: int
    setup_norm: int

    def __init__(self, proc_norm: int = 1, setup_norm: int = 1) -> None:
        if proc_norm < 1 or setup_norm < 1:
            raise ValueError("normalizers must be positive")
        _set(self, "proc_norm", proc_norm)
        _set(self, "setup_norm", setup_norm)

    @classmethod
    def for_instance(cls, instance: Instance) -> "ObjectiveWeights":
        """The objective of the instance: the fixed weights with its normalizers.

        proc_norm is the mean minimal processing time rounded up; setup_norm is
        the largest setup-cost entry (1 when the matrix is all zero).
        """
        if instance.n_jobs:
            proc_norm = math.ceil(sum(j.min_time for j in instance.jobs) / instance.n_jobs)
        else:
            proc_norm = 1
        setup_norm = max((c for row in instance.setup_costs for c in row), default=0)
        return cls(proc_norm=max(1, proc_norm), setup_norm=max(1, setup_norm))

    def score(self, proc_time: int, tardy: int, setup_cost: int) -> int:
        """The objective's weighted sum times proc_norm*setup_norm, as an integer.

        Orders schedules of one instance exactly as objective does, with no
        rounding, so comparisons and ties on it are exact.
        """
        return (
            self.w_proc * proc_time * self.setup_norm
            + self.w_setup * setup_cost * self.proc_norm
            + self.w_tardy * tardy * self.proc_norm * self.setup_norm
        )

    def objective(self, proc_time: int, tardy: int, setup_cost: int, n_jobs: int) -> float:
        if n_jobs == 0:
            return 0.0
        weighted = (
            self.w_proc * proc_time / self.proc_norm
            + self.w_setup * setup_cost / self.setup_norm
            + self.w_tardy * tardy
        )
        return weighted / (n_jobs * self.weight_sum)


class CostBreakdown(_Record):
    """Objective components of a schedule plus the normalized aggregate."""

    __slots__ = _fields = ("proc_time", "tardy", "setup_cost", "objective")
    proc_time: int
    tardy: int
    setup_cost: int
    objective: float

    def __init__(self, proc_time: int, tardy: int, setup_cost: int, objective: float) -> None:
        _set(self, "proc_time", proc_time)
        _set(self, "tardy", tardy)
        _set(self, "setup_cost", setup_cost)
        _set(self, "objective", objective)


class Violation(_Record):
    """One broken rule, naming the offending entity."""

    __slots__ = _fields = ("entity", "rule", "detail", "severity")
    entity: str
    rule: str
    detail: str
    severity: str

    def __init__(self, entity: str, rule: str, detail: str, severity: str = "error") -> None:
        _set(self, "entity", entity)
        _set(self, "rule", rule)
        _set(self, "detail", detail)
        _set(self, "severity", severity)

    def __str__(self) -> str:
        return f"{self.severity}: {self.entity}: {self.rule}: {self.detail}"


def errors_only(violations: Iterable[Violation]) -> list[Violation]:
    return [v for v in violations if v.severity == "error"]


def validate_instance(instance: Instance) -> list[Violation]:
    """Check all structural invariants; empty result means a usable instance.

    Warnings (severity "warning") do not make the instance invalid; use
    errors_only() to test validity.
    """
    violations: list[Violation] = []
    a = instance.attribute_count

    def err(entity: str, rule: str, detail: str) -> None:
        violations.append(Violation(entity, rule, detail))

    if a < 1:
        err("instance", "attributes", f"attribute_count must be >= 1, got {a}")

    for name, matrix in (("setup_times", instance.setup_times), ("setup_costs", instance.setup_costs)):
        if len(matrix) != a or any(len(row) != a for row in matrix):
            shape = f"{len(matrix)}x{len(matrix[0]) if matrix else 0}"
            err("instance", "matrix-shape", f"{name} must be {a}x{a}, got {shape}")
        elif any(v < 0 for row in matrix for v in row):
            err("instance", "matrix-value", f"{name} entries must be non-negative")

    matrices_ok = not any(v.rule.startswith("matrix") for v in violations)

    machine_ids = set()
    for pos, m in enumerate(instance.machines):
        entity = f"machine {m.id}"
        if m.id != pos + 1:
            err(entity, "id", f"expected id {pos + 1} at position {pos}")
        machine_ids.add(m.id)
        if m.capacity < 1:
            err(entity, "capacity", f"capacity must be >= 1, got {m.capacity}")
        if not 1 <= m.initial_attribute <= a:
            err(entity, "initial-attribute", f"{m.initial_attribute} not in [1, {a}]")
        prev_end = None
        for w_start, w_end in m.availability:
            if w_start < 0 or w_end < w_start:
                err(entity, "availability", f"bad window [{w_start}, {w_end}]")
            if prev_end is not None and w_start <= prev_end:
                err(entity, "availability", f"window [{w_start}, {w_end}] overlaps or is unsorted")
            prev_end = w_end

    for pos, j in enumerate(instance.jobs):
        entity = f"job {j.id}"
        if j.id != pos + 1:
            err(entity, "id", f"expected id {pos + 1} at position {pos}")
        if j.size < 1:
            err(entity, "size", f"size must be >= 1, got {j.size}")
        if j.release < 0 or j.due < 0:
            err(entity, "dates", "release and due dates must be non-negative")
        if not 1 <= j.min_time:
            err(entity, "processing-time", f"min_time must be >= 1, got {j.min_time}")
        if j.min_time > j.max_time:
            err(entity, "processing-time", f"min_time {j.min_time} > max_time {j.max_time}")
        if not 1 <= j.attribute <= a:
            err(entity, "attribute", f"{j.attribute} not in [1, {a}]")
        if not j.eligible:
            err(entity, "eligibility", "no eligible machine")
            continue
        unknown = j.eligible - machine_ids
        if unknown:
            err(entity, "eligibility", f"unknown machine ids {sorted(unknown)}")
            continue
        if j.due < j.release:
            violations.append(
                Violation(entity, "dates", f"due {j.due} before release {j.release}", "warning")
            )
        eligible = [instance.machine(m) for m in sorted(j.eligible)]
        if j.size > max(m.capacity for m in eligible):
            err(entity, "capacity", f"size {j.size} exceeds every eligible capacity")
        elif matrices_ok and j.min_time <= j.max_time and 1 <= j.attribute <= a:
            st_min = instance.min_setup_time_into(j.attribute)
            fits = any(
                m.capacity >= j.size
                and m.earliest_start(j.release, st_min, j.min_time) is not None
                for m in eligible
            )
            if not fits:
                err(entity, "availability", "fits in no availability window of any eligible machine")

    return violations
