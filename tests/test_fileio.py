from __future__ import annotations

import re
import time
from dataclasses import fields

import pytest
from hypothesis import example, given, settings, strategies as st

from ovensched import (
    GeneratorConfig,
    ParseError,
    ResultRow,
    ValidationError,
    build_schedule,
    generate_instance,
    objective_lb,
    parse_instance,
    parse_solution,
    relative_gap,
    write_instance,
    write_results,
    write_solution,
)
from ovensched.fileio import RESULT_COLUMNS, _int
from ovensched.model import errors_only, validate_instance

from conftest import (
    EXAMPLE_OBJECTIVE,
    EXAMPLE_OBJECTIVE_LB,
    EXAMPLE_OPTIMAL_LAYOUT,
    EXAMPLE_PATH,
    tiny_config,
)


def test_fixture_file_parses(example):
    inst = parse_instance(EXAMPLE_PATH.read_text())
    assert inst == example
    assert inst.n_jobs == 10 and inst.n_machines == 2 and inst.attribute_count == 2


def test_instance_round_trip(example):
    assert parse_instance(write_instance(example)) == example
    for seed in (1, 2, 3):
        inst = generate_instance(tiny_config(9, seed))
        assert parse_instance(write_instance(inst)) == inst


def test_solution_round_trip(example):
    solution = build_schedule(example, EXAMPLE_OPTIMAL_LAYOUT)
    text = write_solution(solution)
    assert parse_solution(text, example) == solution
    for line, bad in (("machine 2", "machine +2"), ("jobs ", "jobs +"), ("start ", "start 0_")):
        with pytest.raises(ParseError):
            parse_solution(text.replace(line, bad, 1), example)
    # a job listed twice in a batch is not read as listed once
    first = next(line for line in text.splitlines() if line.startswith("batch "))
    with pytest.raises(ParseError, match="repeated"):
        parse_solution(text.replace(first, f"{first} {first.split()[-1]}", 1), example)


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_instance("")
    with pytest.raises(ParseError, match="header"):
        parse_instance("not-a-header\n")
    good = EXAMPLE_PATH.read_text()
    with pytest.raises(ParseError, match="min-time"):
        parse_instance(good.replace("min-time", "mint"))
    truncated = "\n".join(good.splitlines()[:8])
    with pytest.raises(ParseError):
        parse_instance(truncated)
    # negative or non-ASCII-integer header counts are malformed, not empty
    for line, bad in (
        ("jobs 10", "jobs -3"),
        ("machines 2", "machines -1"),
        ("attributes 2", "attributes -1"),
        ("machines 2", "machines \u00b2"),
    ):
        key = line.split()[0]
        with pytest.raises(ParseError, match=f"'{key} <count>'"):
            parse_instance(good.replace(line, bad, 1))
    # every integer token is ASCII digits after an optional '-': int() alone
    # would read these as 18, 2, 250, 8, 6, 2 and 10
    for line, bad in (
        ("capacity 18", "capacity 1_8"),
        ("release 2 ", "release +2 "),
        ("21..250", "21..2_50"),
        ("\n3 8\n", "\n3 +8\n"),
        ("size 6 ", "size \uff16 "),
        ("eligible 2\njob 4", "eligible +2\njob 4"),
        ("jobs 10", "jobs +10"),
    ):
        assert good.count(line) == 1
        with pytest.raises(ParseError):
            parse_instance(good.replace(line, bad))
    # each key of a machine or job line exactly once, in any order, and no
    # other key: the first would otherwise read as attribute 1
    for line, bad, message in (
        ("job 1 attribute 2", "job 1 attribute 1 attribute 2", "'attribute' once"),
        ("capacity 18 ", "capacity 18 colour 3 ", "got 'colour'"),
    ):
        with pytest.raises(ParseError, match=message):
            parse_instance(good.replace(line, bad, 1))
    # a machine id listed twice is not read as listed once
    with pytest.raises(ParseError, match="repeated"):
        parse_instance(good.replace("eligible 1 2\n", "eligible 1 2 2\n", 1))
    reordered = good.replace("attribute 2 size 18 release 2", "release 2 size 18 attribute 2")
    assert reordered != good
    assert parse_instance(reordered) == parse_instance(good)


def _int_reference(token: str, signed: bool) -> int:
    """fileio._int's rule stated directly: ASCII digits after one '-' when signed."""
    digits = token[1:] if signed and token.startswith("-") else token
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an integer: {token!r}")
    return int(token)


@given(st.text(alphabet="0129-+_ ²６٣a", max_size=5), st.booleans())
@example("-", True)
@example("--1", True)
@example("-12", False)
def test_integer_tokens_follow_one_rule(token, signed):
    try:
        expected = _int_reference(token, signed)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            _int(token, signed)
    else:
        assert _int(token, signed) == expected


def test_parse_error_carries_location():
    text = "osp-instance v1\nmachines x\n"
    with pytest.raises(ParseError) as info:
        parse_instance(text)
    assert info.value.line_no == 2
    assert "machines" in info.value.expected


def test_negative_capacity_is_a_validation_error(example):
    text = write_instance(example).replace("capacity 18", "capacity -1")
    with pytest.raises(ValidationError) as info:
        parse_instance(text)
    assert any(v.rule == "capacity" for v in info.value.violations)


def test_generator_deterministic_and_valid():
    cfg = tiny_config(10, 1)
    first = generate_instance(cfg)
    second = generate_instance(cfg)
    assert first == second
    assert errors_only(validate_instance(first)) == []
    # bound computation works on any generated instance
    assert objective_lb(first).objective_lb >= 0


def test_generator_scale():
    cfg = GeneratorConfig(n_jobs=500, n_machines=5, n_attributes=5, seed=3)
    started = time.perf_counter()
    inst = generate_instance(cfg)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    assert inst.n_jobs == 500
    assert errors_only(validate_instance(inst)) == []


# The least value of each generator range; within these every draw is valid.
RANGE_FLOORS = {
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


@st.composite
def _floor_configs(draw) -> GeneratorConfig:
    """Configs whose ranges start at or just above their floors."""
    ranges = {}
    for name, floor in RANGE_FLOORS.items():
        lo = draw(st.integers(floor, floor + 2))
        ranges[name] = (lo, lo + draw(st.integers(0, 20)))
    return GeneratorConfig(
        n_jobs=draw(st.integers(1, 30)),
        n_machines=draw(st.integers(1, 4)),
        n_attributes=draw(st.integers(1, 4)),
        seed=draw(st.integers(0, 10_000)),
        eligibility_density=draw(st.floats(0.05, 1.0)),
        **ranges,
    )


@settings(deadline=None)
@given(_floor_configs())
@example(GeneratorConfig(n_jobs=30, n_machines=4, n_attributes=4,
                         **{name: (floor, floor) for name, floor in RANGE_FLOORS.items()}))
def test_generator_draws_valid_instances_at_the_floors(config):
    # one draw: generate_instance raises ValidationError on an invalid one
    instance = generate_instance(config)
    assert errors_only(validate_instance(instance)) == []
    assert (instance.n_jobs, instance.n_machines) == (config.n_jobs, config.n_machines)


def test_generator_config_json_round_trip():
    cfg = tiny_config(12, 9)
    assert GeneratorConfig.from_json(cfg.to_json()) == cfg


def test_generator_config_validation():
    with pytest.raises(ValueError):
        GeneratorConfig(n_jobs=0)
    with pytest.raises(ValueError):
        GeneratorConfig(n_jobs=5, size_range=(3, 2))
    with pytest.raises(ValueError):
        GeneratorConfig(n_jobs=5, eligibility_density=0.0)
    # each range starts at or above its floor; below it a draw can be invalid
    # (window_count_range (0, 0) draws no window, release_range (-3, 3)
    # negative releases)
    assert set(RANGE_FLOORS) == {f.name for f in fields(GeneratorConfig) if f.name.endswith("_range")}
    for name, floor in RANGE_FLOORS.items():
        with pytest.raises(ValueError, match=name):
            GeneratorConfig(n_jobs=5, **{name: (floor - 1, floor + 3)})
        GeneratorConfig(n_jobs=5, **{name: (floor, floor)})
    # a config file names known fields, n_jobs among them, with values of
    # their types
    for text, message in (
        ('{"n_jobs": 5, "bogus": 1}', "bogus"),
        ('{"n_machines": 3}', "n_jobs"),
        ('{"n_jobs": "5"}', "n_jobs"),
        ("[1, 2]", "object"),
    ):
        with pytest.raises(ValueError, match=message):
            GeneratorConfig.from_json(text)
    config = GeneratorConfig(n_jobs=7, seed=3, size_range=(2, 4), eligibility_density=0.5)
    assert GeneratorConfig.from_json(config.to_json()) == config


def test_write_results_shapes():
    header = ",".join(RESULT_COLUMNS)
    assert write_results([]) == header + "\n"
    row = ResultRow("x.osp", "greedy", 0.5, 10, 1, 3, 0.4, 20.0, 7, 0.01)
    text = write_results([row])
    lines = text.splitlines()
    assert lines[0] == header
    assert lines[1] == "x.osp,greedy,0.5,10,1,3,0.4,20.0,7,0.01"


def test_write_results_none_fields_and_precision():
    row = ResultRow("y.osp", "bounds", None, 158, 7, 68, EXAMPLE_OBJECTIVE_LB, None, None, None)
    line = write_results([row]).splitlines()[1]
    assert line.startswith("y.osp,bounds,,158,7,68,0.7065820105820106,")


def test_oracle_row_gap(example):
    # gap between the optimal cost and the computed bound, as written to a row
    gap = relative_gap(EXAMPLE_OBJECTIVE, EXAMPLE_OBJECTIVE_LB)
    row = ResultRow(
        "example_10jobs.osp", "oracle", EXAMPLE_OBJECTIVE, 158, 8, 72,
        EXAMPLE_OBJECTIVE_LB, gap, None, None,
    )
    value = float(write_results([row]).splitlines()[1].split(",")[7])
    assert value == pytest.approx(11.9, abs=0.5)
