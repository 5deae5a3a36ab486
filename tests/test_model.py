from __future__ import annotations

import pickle

import pytest
from hypothesis import given, strategies as st

from ovensched import (
    Batch,
    CostBreakdown,
    Instance,
    Job,
    Machine,
    ObjectiveWeights,
    Solution,
    Violation,
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
    assert set(ObjectiveWeights._fields) == {"proc_norm", "setup_norm"}


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


def test_min_setup_time_into_is_the_column_minimum():
    inst = Instance((), (), 3, ((4, 5, 9), (2, 0, 7), (6, 3, 8)), ((0,) * 3,) * 3)
    assert [inst.min_setup_time_into(a) for a in (1, 2, 3)] == [2, 0, 7]
    for seed in range(4):
        inst = generate_instance(tiny_config(8, seed))
        for a in range(1, inst.attribute_count + 1):
            column = [inst.setup_times[q][a - 1] for q in range(inst.attribute_count)]
            assert inst.min_setup_time_into(a) == min(column)


def test_example_matches_fixture_file(example):
    from conftest import EXAMPLE_PATH
    from ovensched import parse_instance

    assert parse_instance(EXAMPLE_PATH.read_text()) == example


_MACHINE = Machine(1, 20, 1, ((0, 100),))
_JOB = Job(1, 1, 5, 0, 50, 5, 10, frozenset({1}))
_BATCH = Batch(frozenset({1}), 0, 5)

# per record type: the arguments of one value and of a value that differs
# from it in one field
RECORDS = [
    (Machine, (1, 20, 1, ((0, 100),)), (1, 18, 1, ((0, 100),))),
    (Job, (1, 1, 5, 0, 50, 5, 10, frozenset({1})), (1, 1, 5, 0, 50, 5, 10, frozenset({1, 2}))),
    (Instance, ((_MACHINE,), (_JOB,), 1, ((0,),), ((0,),)), ((_MACHINE,), (_JOB,), 1, ((0,),), ((1,),))),
    (Batch, (frozenset({1, 2}), 0, 5), (frozenset({1, 2}), 1, 5)),
    (Solution, (((_BATCH,), ()),), (((), (_BATCH,)),)),
    (ObjectiveWeights, (18, 10), (18, 11)),
    (CostBreakdown, (158, 8, 72, 0.8), (158, 8, 72, 0.9)),
    (Violation, ("job 1", "size", "too big"), ("job 1", "size", "too big", "warning")),
]


@pytest.mark.parametrize("cls, args, changed", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_records_are_frozen_values(cls, args, changed):
    value, same, other = cls(*args), cls(*args), cls(*changed)
    assert value == same and hash(value) == hash(same)
    assert value != other
    assert value != tuple(getattr(value, name) for name in cls._fields)
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(other, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.no_such_field = 1
    assert value == same
    copy = pickle.loads(pickle.dumps(value))
    assert type(copy) is cls and copy == value
    fields = ", ".join(f"{name}={getattr(value, name)!r}" for name in cls._fields)
    assert repr(value) == f"{cls.__name__}({fields})"


def test_record_repr_is_the_dataclass_form():
    assert repr(Batch([2, 1], 0, 5)) == "Batch(jobs=frozenset({1, 2}), start=0, processing_time=5)"
    assert repr(Violation("job 1", "size", "too big")) == (
        "Violation(entity='job 1', rule='size', detail='too big', severity='error')"
    )
    assert repr(ObjectiveWeights()) == "ObjectiveWeights(proc_norm=1, setup_norm=1)"


def test_records_of_two_types_differ():
    assert CostBreakdown(1, 2, 3, 4) != Violation(1, 2, 3, 4)


def test_records_normalise_their_fields():
    machine = Machine(1, 20, 1, [[0, 100], (150.0, 300)])
    assert machine.availability == ((0, 100), (150, 300))
    assert all(type(t) is int for window in machine.availability for t in window)
    job = Job(1, 1, 5, 0, 50, 5, 10, [2, 1, 2])
    assert job.eligible == frozenset({1, 2}) and isinstance(job.eligible, frozenset)
    assert Batch([2, 1], 0, 5).jobs == frozenset({1, 2})
    inst = Instance([_MACHINE], [_JOB], 1, [[0]], [[3]])
    assert (inst.machines, inst.jobs) == ((_MACHINE,), (_JOB,))
    assert (inst.setup_times, inst.setup_costs) == (((0,),), ((3,),))
    assert inst == Instance((_MACHINE,), (_JOB,), 1, ((0,),), ((3,),))
    solution = Solution([[_BATCH], []])
    assert solution.batches == ((_BATCH,), ())
    assert Violation("job 1", "size", "too big").severity == "error"
    with pytest.raises(ValueError, match="positive"):
        ObjectiveWeights(18, 0)


def test_instance_caches_stay_out_of_equality_and_pickles(example):
    fresh = Instance(example.machines, example.jobs, example.attribute_count,
                     example.setup_times, example.setup_costs)
    assert example.job(3).id == 3 and example.max_capacity == 20
    assert fresh == example and hash(fresh) == hash(example)
    copy = pickle.loads(pickle.dumps(example))
    assert copy == example
    assert copy.job(3) == example.job(3) and copy.min_setup_time_into(1) == 0
