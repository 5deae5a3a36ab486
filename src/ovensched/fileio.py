"""Serialization of instances, solutions and result tables, plus a random
instance generator.

Instance files are line oriented and mirror the tabular form the problem is
usually presented in::

    osp-instance v1
    machines 2
    jobs 10
    attributes 2
    setup-times
    0 0
    3 8
    setup-costs
    6 8
    10 10
    machine 1 capacity 18 initial-attribute 1 windows 21..250
    machine 2 capacity 20 initial-attribute 2 windows 103..259
    job 1 attribute 2 size 18 release 2 due 16 min-time 11 max-time 11 eligible 1 2
    ...

Solution files list scheduled batches per machine::

    osp-solution v1
    machine 1
    batch start 21 processing 11 jobs 1
    machine 2
    ...

Blank lines and lines starting with '#' are ignored in both formats.
Writing then parsing either format reproduces the original object exactly.
"""

from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import asdict, dataclass, fields
from typing import Iterable

from .model import (
    Batch,
    Instance,
    Job,
    Machine,
    Solution,
    Violation,
    errors_only,
    validate_instance,
)

INSTANCE_HEADER = "osp-instance v1"
SOLUTION_HEADER = "osp-solution v1"


class ParseError(Exception):
    """Malformed input text; carries the line number and what was expected."""

    def __init__(self, line_no: int, expected: str):
        self.line_no = line_no
        self.expected = expected
        super().__init__(f"line {line_no}: expected {expected}")


class ValidationError(Exception):
    """A parsed instance violates structural invariants."""

    def __init__(self, violations: list[Violation]):
        self.violations = violations
        super().__init__("; ".join(str(v) for v in violations))


class _LineReader:
    """The content lines of a document with their 1-based numbers; blank
    lines and '#' comments are skipped."""

    def __init__(self, text: str):
        stripped = (raw.strip() for raw in text.splitlines())
        self.lines = [
            (no, line) for no, line in enumerate(stripped, start=1)
            if line and not line.startswith("#")
        ]
        self.pos = 0

    def next(self, expected: str) -> tuple[int, str]:
        if self.pos >= len(self.lines):
            raise ParseError(self.lines[-1][0] + 1 if self.lines else 1, expected)
        line = self.lines[self.pos]
        self.pos += 1
        return line

    @property
    def done(self) -> bool:
        return self.pos >= len(self.lines)


def _int(token: str, signed: bool = True) -> int:
    """An integer token: ASCII digits, after one leading '-' when signed.

    Raises ValueError on anything else; int() alone would also accept '_'
    separators, a '+' sign and non-ASCII digits.
    """
    digits = token[1:] if signed and token.startswith("-") else token
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an integer: {token!r}")
    return int(token)


def _int_fields(tokens: list[str], keys: tuple[str, ...], line_no: int) -> list[int]:
    """The values of '<key> <integer>' pairs, in the order of keys. Each key
    must appear exactly once, in any order, and no other key may appear."""
    values: dict[str, int] = {}
    for i in range(0, len(tokens), 2):
        key = tokens[i]
        if key not in keys:
            raise ParseError(line_no, f"one of {', '.join(keys)}, got '{key}'")
        if key in values:
            raise ParseError(line_no, f"'{key}' once")
        try:
            values[key] = _int(tokens[i + 1])
        except (ValueError, IndexError):
            raise ParseError(line_no, f"'{key} <integer>'") from None
    missing = [key for key in keys if key not in values]
    if missing:
        raise ParseError(line_no, f"'{missing[0]} <integer>'")
    return [values[key] for key in keys]


def _record(
    line_no: int, line: str, kind: str, keys: tuple[str, ...], list_word: str, numbered: bool = True
) -> tuple[int | None, list[int], list[str]]:
    """Read a '<kind> <id> <key> <integer> ... <list_word> <token> ...' line.

    Returns the id (None on a line that is not numbered, as batch lines
    are), the integers of keys in their order (see _int_fields) and the
    tokens after list_word.
    """
    tokens = line.split()
    head = 2 if numbered else 1
    try:
        if tokens[0] != kind:
            raise ValueError(line)
        record_id = _int(tokens[1]) if numbered else None
    except (IndexError, ValueError):
        raise ParseError(line_no, f"'{kind} <id> ...'" if numbered else f"'{kind} ...'") from None
    try:
        end = tokens.index(list_word, head)
    except ValueError:
        raise ParseError(line_no, f"'{list_word} ...'") from None
    return record_id, _int_fields(tokens[head:end], keys, line_no), tokens[end + 1 :]


def _ids(tokens: list[str], form: str, line_no: int) -> frozenset[int]:
    """The integer ids of a list in which no id repeats."""
    try:
        ids = [_int(t) for t in tokens]
    except ValueError:
        raise ParseError(line_no, form) from None
    unique = frozenset(ids)
    if len(unique) != len(ids):
        raise ParseError(line_no, f"{form} with no id repeated")
    return unique


def _checked(instance: Instance) -> Instance:
    """The instance itself; ValidationError if it breaks a structural invariant."""
    problems = errors_only(validate_instance(instance))
    if problems:
        raise ValidationError(problems)
    return instance


def parse_instance(text: str) -> Instance:
    """Parse and validate an instance document.

    Raises ParseError on malformed text and ValidationError when the parsed
    instance breaks a structural invariant.
    """
    reader = _LineReader(text)
    no, line = reader.next(f"header '{INSTANCE_HEADER}'")
    if line != INSTANCE_HEADER:
        raise ParseError(no, f"header '{INSTANCE_HEADER}'")

    counts = {}
    for key in ("machines", "jobs", "attributes"):
        no, line = reader.next(f"'{key} <count>'")
        tokens = line.split()
        try:
            if len(tokens) != 2 or tokens[0] != key:
                raise ValueError(line)
            counts[key] = _int(tokens[1], signed=False)
        except ValueError:
            raise ParseError(no, f"'{key} <count>'") from None

    def read_matrix(name: str) -> list[list[int]]:
        no, line = reader.next(f"'{name}' section")
        if line != name:
            raise ParseError(no, f"'{name}' section")
        rows = []
        for _ in range(counts["attributes"]):
            no, line = reader.next(f"{name} row of {counts['attributes']} integers")
            try:
                row = [_int(t) for t in line.split()]
            except ValueError:
                raise ParseError(no, f"{name} row of integers") from None
            if len(row) != counts["attributes"]:
                raise ParseError(no, f"{name} row of {counts['attributes']} integers")
            rows.append(row)
        return rows

    setup_times = read_matrix("setup-times")
    setup_costs = read_matrix("setup-costs")

    machines = []
    for i in range(counts["machines"]):
        no, line = reader.next(f"'machine {i + 1} ...'")
        machine_id, (capacity, initial), listed = _record(
            no, line, "machine", ("capacity", "initial-attribute"), "windows"
        )
        windows = []
        for token in listed:
            try:
                start, end = token.split("..")
                windows.append((_int(start), _int(end)))
            except ValueError:
                raise ParseError(no, f"window '<start>..<end>', got '{token}'") from None
        machines.append(Machine(machine_id, capacity, initial, tuple(windows)))

    jobs = []
    keys = ("attribute", "size", "release", "due", "min-time", "max-time")
    for i in range(counts["jobs"]):
        no, line = reader.next(f"'job {i + 1} ...'")
        job_id, values, listed = _record(no, line, "job", keys, "eligible")
        eligible = _ids(listed, "'eligible <machine ids>'", no)
        jobs.append(Job(job_id, *values, eligible))

    if not reader.done:
        no, line = reader.next("")
        raise ParseError(no, "end of document")

    return _checked(Instance(machines, jobs, counts["attributes"], setup_times, setup_costs))


def write_instance(instance: Instance) -> str:
    out = [INSTANCE_HEADER]
    out.append(f"machines {instance.n_machines}")
    out.append(f"jobs {instance.n_jobs}")
    out.append(f"attributes {instance.attribute_count}")
    out.append("setup-times")
    out.extend(" ".join(str(v) for v in row) for row in instance.setup_times)
    out.append("setup-costs")
    out.extend(" ".join(str(v) for v in row) for row in instance.setup_costs)
    for m in instance.machines:
        windows = " ".join(f"{s}..{e}" for s, e in m.availability)
        out.append(
            f"machine {m.id} capacity {m.capacity} initial-attribute {m.initial_attribute} windows {windows}"
        )
    for j in instance.jobs:
        eligible = " ".join(str(e) for e in sorted(j.eligible))
        out.append(
            f"job {j.id} attribute {j.attribute} size {j.size} release {j.release} "
            f"due {j.due} min-time {j.min_time} max-time {j.max_time} eligible {eligible}"
        )
    return "\n".join(out) + "\n"


def parse_solution(text: str, instance: Instance) -> Solution:
    """Parse a solution document against its instance."""
    reader = _LineReader(text)
    no, line = reader.next(f"header '{SOLUTION_HEADER}'")
    if line != SOLUTION_HEADER:
        raise ParseError(no, f"header '{SOLUTION_HEADER}'")
    rows: list[list[Batch]] = []
    current: list[Batch] | None = None
    while not reader.done:
        no, line = reader.next("'machine <id>' or 'batch ...'")
        tokens = line.split()
        if tokens[0] == "machine":
            try:
                if len(tokens) != 2 or _int(tokens[1], signed=False) != len(rows) + 1:
                    raise ValueError(line)
            except ValueError:
                raise ParseError(no, f"'machine {len(rows) + 1}'") from None
            current = []
            rows.append(current)
        elif tokens[0] == "batch":
            if current is None:
                raise ParseError(no, "'machine <id>' before any batch")
            _, (start, processing), listed = _record(
                no, line, "batch", ("start", "processing"), "jobs", numbered=False
            )
            job_ids = _ids(listed, "'jobs <job ids>'", no)
            if not job_ids:
                raise ParseError(no, "'jobs <job ids>' with at least one id")
            unknown = sorted(j for j in job_ids if not instance.has_job(j))
            if unknown:
                raise ParseError(no, f"job ids of the instance, got {unknown}")
            current.append(Batch(job_ids, start, processing))
        else:
            raise ParseError(no, "'machine <id>' or 'batch ...'")
    if len(rows) != instance.n_machines:
        raise ParseError(
            reader.lines[-1][0] if reader.lines else 1,
            f"{instance.n_machines} machine sections, got {len(rows)}",
        )
    return Solution(rows)


def write_solution(solution: Solution) -> str:
    out = [SOLUTION_HEADER]
    for idx, machine_batches in enumerate(solution.batches, start=1):
        out.append(f"machine {idx}")
        for batch in machine_batches:
            ids = " ".join(str(j) for j in sorted(batch.jobs))
            out.append(f"batch start {batch.start} processing {batch.processing_time} jobs {ids}")
    return "\n".join(out) + "\n"


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
