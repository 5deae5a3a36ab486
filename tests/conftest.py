from __future__ import annotations

import hashlib
import os
from pathlib import Path

import pytest
from hypothesis import settings

from ovensched import GeneratorConfig, Instance, Job, Machine, Solution

# HYPOTHESIS_PROFILE=ci runs every property test five times deeper (CI sets
# it); a test that sets its own example count scales it with examples().
settings.register_profile("ci", max_examples=500)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def examples(count: int) -> int:
    """count under the default profile, scaled like max_examples under another."""
    return count * settings.default.max_examples // settings.get_profile("default").max_examples


FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
EXAMPLE_PATH = FIXTURES / "example_10jobs.osp"


def make_example_instance() -> Instance:
    """The 10-job, 2-machine, 2-attribute demonstration instance."""
    machines = (
        Machine(1, 18, 1, ((21, 250),)),
        Machine(2, 20, 2, ((103, 259),)),
    )
    eligible = [{1, 2}, {1, 2}, {2}, {1}, {1, 2}, {2}, {1, 2}, {1}, {2}, {1, 2}]
    release = [2, 3, 8, 1, 39, 41, 40, 31, 27, 16]
    due = [16, 20, 43, 24, 55, 64, 56, 89, 58, 27]
    min_time = [11, 10, 19, 19, 10, 19, 11, 50, 19, 11]
    max_time = [11, 50, 19, 19, 50, 50, 50, 50, 19, 50]
    size = [18, 16, 17, 2, 6, 19, 11, 11, 4, 14]
    attribute = [2, 2, 2, 1, 2, 2, 2, 2, 1, 1]
    jobs = tuple(
        Job(
            id=i + 1,
            attribute=attribute[i],
            size=size[i],
            release=release[i],
            due=due[i],
            min_time=min_time[i],
            max_time=max_time[i],
            eligible=frozenset(eligible[i]),
        )
        for i in range(10)
    )
    return Instance(
        machines=machines,
        jobs=jobs,
        attribute_count=2,
        setup_times=((0, 0), (3, 8)),
        setup_costs=((6, 8), (10, 10)),
    )


# a feasible layout of the example instance with the optimal cost
# (p=158, t=8, sc=72): checked by hand and against the oracle
EXAMPLE_OPTIMAL_LAYOUT = [
    [[4, 10], [5, 7], [2], [8]],
    [[9], [1], [3], [6]],
]

EXAMPLE_OPTIMAL = (158, 8, 72)
EXAMPLE_OBJECTIVE = (4 * 158 / 18 + 72 / 10 + 100 * 8) / (10 * 105)
EXAMPLE_OBJECTIVE_LB = (4 * 158 / 18 + 68 / 10 + 100 * 7) / (10 * 105)


@pytest.fixture(scope="session")
def example() -> Instance:
    return make_example_instance()


def tiny_config(n_jobs: int, seed: int, **overrides) -> GeneratorConfig:
    """Generator config sized so the exact oracle stays fast (small batches,
    short horizons)."""
    settings = dict(
        n_jobs=n_jobs,
        n_machines=2,
        n_attributes=2,
        seed=seed,
        size_range=(4, 10),
        capacity_range=(8, 12),
        min_time_range=(5, 30),
        extra_time_range=(0, 25),
        release_range=(0, 40),
        due_slack_range=(0, 60),
        window_count_range=(1, 2),
        window_length_range=(30, 120),
        window_gap_range=(0, 15),
        setup_time_range=(0, 8),
        setup_cost_range=(0, 12),
        eligibility_density=0.7,
    )
    settings.update(overrides)
    return GeneratorConfig(**settings)


def schedule_digest(solution: Solution) -> str:
    """sha256 of a solution's layout and start times, for pinning results."""
    starts = [[b.start for b in row] for row in solution.batches]
    return hashlib.sha256(repr((solution.layout(), starts)).encode()).hexdigest()
