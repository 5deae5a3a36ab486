from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, strategies as st

from ovensched import (
    Instance,
    Job,
    Machine,
    ObjectiveWeights,
    generate_instance,
    validate_instance,
)
from ovensched.model import errors_only

from conftest import tiny_config


def test_example_instance_is_valid(example):
    assert validate_instance(example) == []


def test_oversized_job_is_a_capacity_violation(example):
    jobs = list(example.jobs)
    jobs[7] = Job(8, 2, 25, 31, 89, 50, 50, frozenset({1}))  # size 25, caps <= 20
    bad = Instance(example.machines, jobs, 2, example.setup_times, example.setup_costs)
    found = validate_instance(bad)
    assert [v.rule for v in found] == ["capacity"]
    assert "job 8" in found[0].entity


def test_matrix_shape_violation(example):
    bad = Instance(example.machines, example.jobs, 3, example.setup_times, example.setup_costs)
    rules = {v.rule for v in validate_instance(bad)}
    assert "matrix-shape" in rules


def test_due_before_release_is_only_a_warning(example):
    jobs = list(example.jobs)
    jobs[0] = Job(1, 2, 18, 30, 16, 11, 11, frozenset({1, 2}))  # release 30 > due 16
    inst = Instance(example.machines, jobs, 2, example.setup_times, example.setup_costs)
    found = validate_instance(inst)
    assert errors_only(found) == []
    assert any(v.severity == "warning" and v.rule == "dates" for v in found)


def test_job_fitting_no_window_is_an_error(example):
    machines = (
        Machine(1, 18, 1, ((21, 30),)),  # too short for job 8 (min_time 50)
        example.machines[1],
    )
    inst = Instance(machines, example.jobs, 2, example.setup_times, example.setup_costs)
    assert any(
        v.rule == "availability" and v.entity == "job 8" for v in validate_instance(inst)
    )


@st.composite
def _windows(draw) -> tuple[tuple[int, int], ...]:
    """Sorted, disjoint closed windows, as validate_instance requires."""
    windows = []
    prev_end = -1
    spans = draw(st.lists(st.tuples(st.integers(0, 20), st.integers(0, 30)), max_size=4))
    for gap, length in spans:
        start = prev_end + 1 + gap
        windows.append((start, start + length))
        prev_end = start + length
    return tuple(windows)


def _brute_earliest_start(availability, lower, setup, proc):
    """First integer start >= lower whose [start - setup, start + proc] fits a window."""
    horizon = max((end for _, end in availability), default=0)
    for start in range(lower, horizon + 1):
        if any(ws <= start - setup and start + proc <= we for ws, we in availability):
            return start
    return None


@given(_windows(), st.integers(0, 150), st.integers(0, 15), st.integers(0, 40))
def test_earliest_start_matches_brute_force(windows, lower, setup, proc):
    machine = Machine(1, 10, 1, windows)
    assert machine.earliest_start(lower, setup, proc) == _brute_earliest_start(
        windows, lower, setup, proc
    )


def test_weights_derivation(example):
    w = ObjectiveWeights.for_instance(example)
    assert (w.w_proc, w.w_tardy, w.w_setup) == (4, 100, 1)
    assert w.proc_norm == 18  # ceil(179 / 10)
    assert w.setup_norm == 10  # max setup-cost entry


def test_weights_zero_setup_matrix_gets_norm_one(example):
    inst = Instance(example.machines, example.jobs, 2, example.setup_times, ((0, 0), (0, 0)))
    assert ObjectiveWeights.for_instance(inst).setup_norm == 1


def test_weights_validation():
    with pytest.raises(ValueError):
        ObjectiveWeights(proc_norm=0)


def test_only_the_normalizers_vary():
    # the weights are constants of the objective, not settable fields
    assert {f.name for f in dataclasses.fields(ObjectiveWeights)} == {"proc_norm", "setup_norm"}


def test_objective_formula(example):
    w = ObjectiveWeights.for_instance(example)
    assert w.objective(158, 8, 72, 10) == pytest.approx(0.8022010582010582, abs=1e-12)
    assert w.objective(0, 0, 0, 0) == 0.0


@given(st.integers(0, 10**4), st.integers(0, 100), st.integers(0, 10**4))
def test_score_is_the_objective_rescaled(proc, tardy, setup):
    w = ObjectiveWeights(proc_norm=18, setup_norm=10)
    scale = w.weight_sum * w.proc_norm * w.setup_norm
    assert w.score(proc, tardy, setup) == pytest.approx(
        w.objective(proc, tardy, setup, 1) * scale, rel=1e-12
    )


def test_generated_instances_are_valid():
    for seed in range(8):
        inst = generate_instance(tiny_config(8, seed))
        assert errors_only(validate_instance(inst)) == []


def test_instance_helpers(example):
    assert example.max_capacity == 20
    assert example.setup_time(2, 1) == 3
    assert example.setup_cost(1, 2) == 8
    assert {j.id for j in example.jobs_with_attribute(1)} == {4, 9, 10}
    assert example.min_setup_time_into(2) == 0
    assert example.min_setup_time_into(1) == 0


def test_example_matches_fixture_file(example):
    from conftest import EXAMPLE_PATH
    from ovensched import parse_instance

    assert parse_instance(EXAMPLE_PATH.read_text()) == example
