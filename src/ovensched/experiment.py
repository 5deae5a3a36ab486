"""The random instance generator and the experiment results table.

Kept apart from the text formats in fileio: only the generate and bench
commands and --results load this module, so the certificate commands
(bounds, greedy, evaluate) import neither it nor the json and csv it needs.
"""

from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import asdict, dataclass, fields
from typing import Iterable

from .fileio import _checked
from .model import Instance, Job, Machine


@dataclass(frozen=True)
class GeneratorConfig:
    """Dimensions, value ranges and the seed of the random instance generator.

    All ranges are inclusive (lo, hi) integer pairs, each starting at or
    above its floor in _FLOORS. eligibility_density is the probability of
    each (job, machine) pair being eligible; empty draws are repeated.
    """

    n_jobs: int
    n_machines: int = 2
    n_attributes: int = 2
    seed: int = 1
    size_range: tuple[int, int] = (1, 10)
    capacity_range: tuple[int, int] = (10, 20)
    min_time_range: tuple[int, int] = (10, 100)
    extra_time_range: tuple[int, int] = (0, 100)
    release_range: tuple[int, int] = (0, 100)
    due_slack_range: tuple[int, int] = (0, 150)
    window_count_range: tuple[int, int] = (1, 3)
    window_length_range: tuple[int, int] = (50, 400)
    window_gap_range: tuple[int, int] = (0, 30)
    setup_time_range: tuple[int, int] = (0, 20)
    setup_cost_range: tuple[int, int] = (0, 20)
    eligibility_density: float = 0.75

    # The least value of each range. Within these floors every draw of
    # generate_instance is a valid instance: sizes are clipped to an eligible
    # capacity, windows come out sorted and disjoint, and the stretched last
    # window fits every job after its smallest setup.
    _FLOORS = {
        "size_range": 1,
        "capacity_range": 1,
        "min_time_range": 1,
        "window_count_range": 1,
        "extra_time_range": 0,
        "release_range": 0,
        "due_slack_range": 0,
        "window_length_range": 0,
        "window_gap_range": 0,
        "setup_time_range": 0,
        "setup_cost_range": 0,
    }

    def __post_init__(self) -> None:
        if min(self.n_jobs, self.n_machines, self.n_attributes) < 1:
            raise ValueError("dimensions must be positive")
        for name, floor in self._FLOORS.items():
            lo, hi = getattr(self, name)
            if lo < floor:
                raise ValueError(f"{name} starts below {floor}: ({lo}, {hi})")
            if lo > hi:
                raise ValueError(f"{name} is empty: ({lo}, {hi})")
        if not 0 < self.eligibility_density <= 1:
            raise ValueError("eligibility_density must be in (0, 1]")

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "GeneratorConfig":
        """The config of a to_json text; ValueError unless it is a JSON object
        of known fields, n_jobs among them, each with a value of its type."""
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("generator config must be a JSON object")
        types = {f.name: f.type for f in fields(cls)}
        if "n_jobs" not in data:
            raise ValueError("generator config lacks n_jobs")
        for key, value in data.items():
            if key not in types:
                raise ValueError(f"generator config has an unknown field: {key!r}")
            if types[key] == "float":
                ok = type(value) in (int, float)
            elif types[key] == "int":
                ok = type(value) is int
            else:
                ok = type(value) is list and len(value) == 2 and all(type(v) is int for v in value)
            if not ok:
                raise ValueError(f"generator config field {key} is {types[key]}, got {value!r}")
        return cls(**{key: tuple(v) if type(v) is list else v for key, v in data.items()})


def generate_instance(config: GeneratorConfig) -> Instance:
    """Generate a random instance, deterministically in the seed.

    The config's floors make every draw valid, so there is one draw;
    ValidationError should it break an invariant all the same.
    """
    rng = random.Random(config.seed)
    a = config.n_attributes
    setup_times = tuple(
        tuple(rng.randint(*config.setup_time_range) for _ in range(a)) for _ in range(a)
    )
    setup_costs = tuple(
        tuple(rng.randint(*config.setup_cost_range) for _ in range(a)) for _ in range(a)
    )

    capacities = [rng.randint(*config.capacity_range) for _ in range(config.n_machines)]

    jobs = []
    for job_id in range(1, config.n_jobs + 1):
        attribute = rng.randint(1, a)
        size = rng.randint(*config.size_range)
        min_time = rng.randint(*config.min_time_range)
        max_time = min_time + rng.randint(*config.extra_time_range)
        release = rng.randint(*config.release_range)
        due = release + min_time + rng.randint(*config.due_slack_range)
        eligible: set[int] = set()
        while not eligible:
            eligible = {
                m + 1
                for m in range(config.n_machines)
                if rng.random() < config.eligibility_density
            }
        size = min(size, max(capacities[m - 1] for m in eligible))
        jobs.append(Job(job_id, attribute, size, release, due, min_time, max_time, frozenset(eligible)))

    # every machine's final window is stretched so that all jobs fit after
    # any backlog; this keeps generated instances schedulable
    max_setup = max(v for row in setup_times for v in row)
    latest_release = max((j.release for j in jobs), default=0)
    backlog = sum(j.min_time + max_setup for j in jobs)
    horizon = latest_release + backlog + max((j.min_time for j in jobs), default=0) + 1

    machines = []
    for machine_id in range(1, config.n_machines + 1):
        windows = []
        t = 0
        for _ in range(rng.randint(*config.window_count_range)):
            t += rng.randint(*config.window_gap_range)
            end = t + rng.randint(*config.window_length_range)
            windows.append((t, end))
            t = end + 1
        last_start, last_end = windows[-1]
        windows[-1] = (last_start, max(last_end, last_start + max_setup + backlog, horizon))
        machines.append(
            Machine(machine_id, capacities[machine_id - 1], rng.randint(1, a), tuple(windows))
        )

    return _checked(Instance(machines, jobs, a, setup_times, setup_costs))


@dataclass(frozen=True)
class ResultRow:
    """One line of the experiment results table; the field order is the
    column order."""

    instance: str
    method: str
    objective: float | None
    proc_time: int | None
    tardy: int | None
    setup_cost: int | None
    objective_lb: float | None
    gap_pct: float | None
    seed: int | None
    elapsed_s: float | None


RESULT_COLUMNS = tuple(f.name for f in fields(ResultRow))


def write_results(rows: Iterable[ResultRow]) -> str:
    """Render rows as CSV with the fixed column order and full precision."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(RESULT_COLUMNS)
    for row in rows:
        values = (getattr(row, column) for column in RESULT_COLUMNS)
        writer.writerow(["" if value is None else value for value in values])
    return buffer.getvalue()
