"""Serialization of instances and solutions.

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

The random instance generator and the results table live in
ovensched.experiment, which only the generate and bench commands and
--results load; their names still resolve here, on first use.
"""

from __future__ import annotations

from .model import (
    Batch,
    InputError,
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

# the names that moved to ovensched.experiment; callers may still import them
# from here
_EXPERIMENT_NAMES = frozenset(
    ("GeneratorConfig", "RESULT_COLUMNS", "ResultRow", "generate_instance", "write_results")
)


def __getattr__(name: str):
    if name not in _EXPERIMENT_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import experiment

    return getattr(experiment, name)


class ParseError(InputError):
    """Malformed input text; carries the line number and what was expected."""

    def __init__(self, line_no: int, expected: str):
        self.line_no = line_no
        self.expected = expected
        super().__init__(f"line {line_no}: expected {expected}")


class ValidationError(InputError):
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
    if token.isdigit() and token.isascii():
        return int(token)
    if signed and token[:1] == "-":
        digits = token[1:]
        if digits.isdigit() and digits.isascii():
            return int(token)
    raise ValueError(f"not an integer: {token!r}")


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
