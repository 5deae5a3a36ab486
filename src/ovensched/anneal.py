"""Simulated annealing over batch layouts.

Four neighborhood moves (swap consecutive batches, reinsert a batch, move a
job into an existing batch, move a job into a new batch), geometric cooling,
Metropolis acceptance on the normalized objective, and stopping on final
temperature, wall-clock limit, a relative gap to a supplied lower bound, or
a move budget.
The move mix (MOVE_PROBS) and the start temperature's target acceptance
ratio (ACCEPTED_RATIO) are tuned constants. Starts from the greedy
construction; a job-less instance has no move and stops there. Moves are
evaluated incrementally:
each batch of the current layout carries a summary of its jobs
(schedule.summarize), made once when a move creates the batch, and each
machine row keeps its schedule state per position. The edit that makes a
batch summarizes it and tests it against the batch rules
(schedule.batch_fault), so a job move into a batch it cannot join is
discarded before any rescheduling; a job move into a kept batch is tested
on the kept summary and the job, which says the same, and builds the
merged batch only when it passes. The jobs a move leaves behind in a
batch obey the rules as the batch did. A move reschedules an edited row
only from its first changed batch and skips the rest of each stretch of
old batches (the run between its two edit points, the tail after the last)
once it is those batches slid in time; the cost change is the new entries
minus the replaced ones. Moves whose rows cannot be scheduled are
discarded. Batch objects are built only for the returned best solution.
What sample_move draws from is kept with the layout as tables (MoveSpace:
jobs per row and per batch prefix of each row, the layout-order index of
each row's first batch, the rows of two batches or more, the job count,
each job's eligible machine indices, and the move-kind thresholds), counted
again only for the rows an accepted move changed, so a draw picks its kind
by comparing with the thresholds and finds its job and its target batch by
bisects, without a scan of the layout; a job move carries the machine and
batch the draw found the job in, so the edit takes it out there, and a
move into a new batch reads the job's kept one-job summary. The warm-up
that calibrates the start temperature leaves the layout as it is, so a
warm-up move drawn again reuses the delta of its first draw; every move is
still drawn, so the random stream is that of a run without reuse.

The rejoin rule. A batch is rigid when it starts exactly at its
predecessor's end plus the setup time. If the predecessor of a rigid batch
ends d time units later (d > 0) or earlier (d < 0), the lower bound that
Machine.earliest_start is given moves by d, and the kernel returns the old
start plus d as long as the old window still holds the setup plus
processing span and, for d < 0, the release still allows it: later starts
only make the windows before the old one fail more, and windows are sorted
and disjoint, so a window before the old one ends before the shifted span
begins. The batch's tardy count is unchanged as long as no due date lies
between its old and new end, and its processing time and setup cost do not
depend on time. So every rigid batch has a range of ends over which it
slides at unchanged cost (a batch that is not rigid only has its own end),
and the tail of a row from position i has a range of predecessor ends over
which every tail batch slides by one common offset: the intersection of
the batch ranges, each moved back by the batch's distance to the tail's
predecessor. An edited row holds stretches of old batches in their old
order, each batch but a stretch's first after its old predecessor: the
tail after the last edit point and, for a reinsert, a swap or a job move
within one row, the run between the two edit points. Where the rescheduled
row reaches a batch of a stretch in the attribute of its old predecessor,
at an end inside the range of the old row from that batch on, the rest of
the stretch is slid by the difference of the ends, at its old cost, and
rescheduling goes on after the stretch from the slid end of its last
batch; an offset of 0 is the exact rejoin. That range covers the old row
to its end, so it is exact for a true suffix, a stretch that ends where
both the new and the old row end, and enough for any other. The ranges are
absolute times, so a slid batch keeps its range of ends, and a slid true
suffix its ranges of predecessor ends. Only an accepted move materializes
the slid stretches and works out the ranges of the batches it placed and
the ranges of predecessor ends before the true suffix; the tail ranges of
the positions before those are recomputed with integer min and max, back
to the first position where they come out as before.
"""

from __future__ import annotations

import math
import random
import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, NamedTuple, Union

from .bounds import BoundReport
from .greedy import construct
from .model import CostBreakdown, Instance, Machine, ObjectiveWeights, Solution
from .schedule import (
    BatchSummary,
    Layout,
    batch_fault,
    build_schedule,
    relative_gap,
    summarize,
)


# Tuned once: the move mix over (swap consecutive batches, reinsert batch,
# move job, move job to new batch), and the share of warm-up moves that the
# start temperature would accept.
MOVE_PROBS = (0.090, 0.293, 0.328, 0.289)
ACCEPTED_RATIO = 0.309


@dataclass(frozen=True)
class AnnealParams:
    """Cooling schedule and stopping rules.

    The numeric defaults are tuned values. moves_per_level=0 means 50 times
    the job count. max_moves caps the moves a run draws, warm-up included;
    None draws until another rule stops the run.
    """

    final_temp: float = 0.004
    cooling_rate: float = 0.988
    time_limit: float = 360.0
    lb_gap_stop: float | None = None
    rng_seed: int = 1
    moves_per_level: int = 0
    warmup_moves: int = 1000
    max_moves: int | None = None

    def __post_init__(self) -> None:
        # NaN fails every comparison, so without the finiteness checks it
        # would slip past the range checks and switch the search off
        floats = (self.final_temp, self.time_limit)
        if self.lb_gap_stop is not None:
            floats += (self.lb_gap_stop,)
        if not all(map(math.isfinite, floats)):
            raise ValueError("final_temp, time_limit and lb_gap_stop must be finite")
        if not 0 < self.cooling_rate < 1:
            raise ValueError("cooling_rate must be in (0, 1)")
        if self.final_temp <= 0:
            raise ValueError("final_temp must be positive")
        if self.time_limit < 0:
            raise ValueError("time_limit must be non-negative")
        if self.moves_per_level < 0 or self.warmup_moves < 0:
            raise ValueError("moves_per_level and warmup_moves must be non-negative")
        if self.lb_gap_stop is not None and self.lb_gap_stop < 0:
            raise ValueError("lb_gap_stop must be non-negative")
        if self.max_moves is not None and self.max_moves < 1:
            raise ValueError("max_moves must be positive")


@dataclass(frozen=True)
class TracePoint:
    """The best cost so far, elapsed seconds into the run."""

    elapsed: float
    cost: CostBreakdown


@dataclass(frozen=True)
class AnnealResult:
    """trace is the greedy start at 0.0, a point at each strict improvement
    of the best cost (timed at the start of the improving move) and the
    best cost when the run stopped."""

    solution: Solution
    cost: CostBreakdown
    trace: tuple[TracePoint, ...]
    stop_reason: str  # "final_temp", "time", "gap", "max_moves" or "no_moves"


# Moves are value objects, equal and hashed by kind and fields: the warm-up
# keys on them. They are slotted and not frozen, as sample_move builds one
# per draw; nothing mutates a move, so its hash holds. A job move names the
# job's machine index and batch position as the draw found them, as a
# reinsert names its src, so the edit finds the batch the job leaves there.
@dataclass(slots=True, unsafe_hash=True)
class SwapBatches:
    machine: int
    position: int


@dataclass(slots=True, unsafe_hash=True)
class ReinsertBatch:
    machine: int
    src: int
    dst: int


@dataclass(slots=True, unsafe_hash=True)
class MoveJob:
    job: int
    machine: int
    batch: int
    from_machine: int
    from_batch: int


@dataclass(slots=True, unsafe_hash=True)
class MoveJobNewBatch:
    job: int
    machine: int
    position: int
    from_machine: int
    from_batch: int


Move = Union[SwapBatches, ReinsertBatch, MoveJob, MoveJobNewBatch]


class MoveSpace:
    """What sample_move draws from in a layout, kept as tables.

    row_jobs[m] counts the jobs of machine row m and prefix_jobs[m][b] those
    of its batches 0 to b, so a drawn job index is found by the row totals
    and a bisect. first_batch[m] is the layout-order index of row m's first
    batch (first_batch[-1] counts the layout's batches), so a drawn batch
    index is found by a bisect that passes over empty rows. multi_batch
    lists the rows of two batches or more in machine order, jobs counts the
    layout's jobs, and eligible[job id] holds the indices of the job's
    eligible machines in increasing machine-id order. kinds is (total, c0,
    c1, c2, c3): the sum of the kind weights (MOVE_PROBS, each kind without
    arguments weighted 0) and their cumulative sums, which change only when
    multi_batch empties or fills or the batch count crosses 2. A layout
    without jobs has no move, so it is rejected with a ValueError.
    """

    row_jobs: list[int]
    prefix_jobs: list[list[int]]
    first_batch: list[int]
    multi_batch: list[int]
    jobs: int
    eligible: dict[int, tuple[int, ...]]
    kinds: tuple[float, float, float, float, float]

    def __init__(self, instance: Instance, layout: Layout):
        index = {machine.id: m for m, machine in enumerate(instance.machines)}
        self.eligible = {j.id: tuple(index[i] for i in sorted(j.eligible)) for j in instance.jobs}
        empty_batch = any(not batch for row in layout for batch in row)
        if not all(self.eligible.values()) or empty_batch or not any(layout):
            # sample_move would draw from an empty range, which never ends
            raise ValueError(
                "the layout needs a job, every job an eligible machine and every batch a job"
            )
        self.row_jobs = [0] * len(layout)
        self.prefix_jobs = [[] for _ in layout]
        self.first_batch = [0]
        self.multi_batch = []
        self.recount(layout, range(len(layout)))
        self.jobs = sum(self.row_jobs)
        self._weigh()

    def _weigh(self) -> None:
        several, multi = self.first_batch[-1] >= 2, bool(self.multi_batch)
        weights = (
            MOVE_PROBS[0] if multi else 0.0,
            MOVE_PROBS[1] if multi else 0.0,
            MOVE_PROBS[2] if several else 0.0,
            MOVE_PROBS[3],
        )
        self.kinds = (sum(weights), *accumulate(weights))

    def recount(self, layout: Layout, rows: Iterable[int]) -> None:
        """Count the given rows again after they changed; a move keeps `jobs`.

        multi_batch is listed again only when a row crosses two batches, and
        kinds only when multi_batch empties or fills or the batch count
        crosses 2.
        """
        before = self.first_batch[-1] >= 2, bool(self.multi_batch)
        crossed = False
        for m in rows:
            prefix = list(accumulate(map(len, layout[m])))
            crossed = crossed or (len(self.prefix_jobs[m]) >= 2) != (len(prefix) >= 2)
            self.prefix_jobs[m] = prefix
            self.row_jobs[m] = prefix[-1] if prefix else 0
        self.first_batch = [0, *accumulate(map(len, layout))]
        if crossed:
            self.multi_batch = [m for m, row in enumerate(layout) if len(row) >= 2]
        if before != (self.first_batch[-1] >= 2, bool(self.multi_batch)):
            self._weigh()

    def job_at(self, layout: Layout, index: int) -> tuple[int, int, int]:
        """(job id, machine, batch) of the index-th job in layout order."""
        for m, size in enumerate(self.row_jobs):
            if index < size:
                prefix = self.prefix_jobs[m]
                b = bisect_right(prefix, index)
                if b:
                    index -= prefix[b - 1]
                return layout[m][b][index], m, b
            index -= size
        raise IndexError("job index out of range")


def sample_move(layout: Layout, rng: random.Random, space: MoveSpace) -> Move:
    """Draw a move kind by MOVE_PROBS, then uniform arguments.

    space is the layout's MoveSpace. Kinds whose argument space is empty are
    excluded from the draw (the distribution is the same as resampling until
    a usable kind comes up); a move into a new batch always has arguments,
    as the layout has a job. Jobs and batches are drawn by their index in
    layout order, and a job moves into any batch but its own, the one its
    move names as from_machine and from_batch.
    """
    total, c0, c1, c2, _ = space.kinds
    draw = rng.random() * total
    # randrange(n) without its argument checks; every n below is positive
    randbelow = rng._randbelow
    if draw < c1:
        multi_batch = space.multi_batch
        machine = multi_batch[randbelow(len(multi_batch))]
        if draw < c0:
            return SwapBatches(machine, randbelow(len(layout[machine]) - 1))
        length = len(layout[machine])
        src = randbelow(length)
        dst = randbelow(length - 1)
        if dst >= src:
            dst += 1
        return ReinsertBatch(machine, src, dst)
    job_id, m0, b0 = space.job_at(layout, randbelow(space.jobs))
    if draw < c2:
        first_batch = space.first_batch
        slot = randbelow(first_batch[-1] - 1)
        if slot >= first_batch[m0] + b0:
            slot += 1
        machine = bisect_right(first_batch, slot) - 1
        return MoveJob(job_id, machine, slot - first_batch[machine], m0, b0)
    eligible = space.eligible[job_id]
    machine = eligible[randbelow(len(eligible))]
    return MoveJobNewBatch(job_id, machine, randbelow(len(layout[machine]) + 1), m0, b0)


State = tuple[int, int, int, int, int]


class _Row(NamedTuple):
    """Machine row m of the search: summaries and schedule of _Search.layout[m].

    summaries[i] is the summary of batch i. states[i] is the (attribute,
    end, processing time, tardy jobs, setup cost) entry of batch i - 1;
    states[0] is the machine's initial attribute at time 0 with no cost, so
    the row holds len(states) - 1 batches. cost sums the last three fields
    over the row. ranges[i] is (earliest, latest, low, high): batch i slides
    to any end in [earliest, latest] at unchanged cost, and batches i,
    i + 1, ... all slide by one offset when batch i - 1 ends anywhere in
    [low, high] (see the module docstring). A move's rescheduling tests
    [low, high] in each stretch of old batches it reaches; as it covers the
    row to its end, it is exact for a true suffix and enough for a run.
    """

    summaries: list[BatchSummary]
    states: list[State]
    cost: tuple[int, int, int]
    ranges: list[tuple[int, int, int, int]]


class _RowEdit:
    """A copy of one machine row's batches under edit, with the span that
    changed, the old _Row, and the new schedule once _reschedule has run.

    summaries[i] is the summary of row[i]. The row holds stretches of old
    batches: a stretch (lo, hi, shift) says that row[lo:hi] is the old
    batches[lo - shift:hi - shift] in their old order. row[:start] is the
    old batches[:start], and the tail (stop, len(row), len(row) - the old
    length) is a stretch. An edit that changes the row at two points also
    keeps the old batches between them: run is that stretch, with shift -1,
    0 or +1 and start <= lo <= hi <= stop; move and the same-row job moves
    of _Search.edit_rows set it, and it is None otherwise. Batches are
    never changed in place, so unchanged ones are shared with the old row.

    _reschedule sets cost, slid and states. slid lists, in row order, the
    stretches that slid as (first, hi, shift, offset): row[first:hi] are
    the stretch's old batches, each ending offset later. states holds the
    old states up to start and the new states of the positions placed,
    which are all but the slid ones.
    """

    __slots__ = (
        "old", "row", "summaries", "start", "stop", "run", "states", "cost", "slid"
    )

    def __init__(self, old: _Row, batches: list[list[int]]):
        self.old = old
        self.row = list(batches)
        self.summaries = list(old.summaries)
        self.start = len(batches)
        self.stop = 0
        self.run = None

    def replace(self, b: int, batch: list[int], summary: BatchSummary) -> None:
        self.row[b] = batch
        self.summaries[b] = summary
        self.start = min(self.start, b)
        self.stop = max(self.stop, b + 1)

    def delete(self, b: int) -> None:
        del self.row[b]
        del self.summaries[b]
        self.start = min(self.start, b)
        self.stop = max(self.stop - 1, b)

    def insert(self, b: int, batch: list[int], summary: BatchSummary) -> None:
        self.row.insert(b, batch)
        self.summaries.insert(b, summary)
        self.start = min(self.start, b)
        self.stop = max(self.stop, b) + 1

    def move(self, src: int, dst: int) -> None:
        batch, summary = self.row[src], self.summaries[src]
        self.delete(src)
        self.insert(dst, batch, summary)
        self.run = (src, dst, -1) if src < dst else (dst + 1, src + 1, 1)

    def remove_job(self, instance: Instance, b: int, job_id: int) -> None:
        """Take a job out of batch b. The jobs left obey the batch rules, as
        the batch did, so they are summarized without a check."""
        rest = [j for j in self.row[b] if j != job_id]
        if rest:
            self.replace(b, rest, summarize(instance, rest))
        else:
            self.delete(b)


def _reschedule(instance: Instance, machine: Machine, edit: _RowEdit) -> bool:
    """Schedule an edit's row onto the edit; False when a batch cannot be placed.

    The edit's batches already obey the batch rules. Scheduling starts at
    edit.start from the old state there. In each stretch of old batches,
    the run and then the tail, the row that reaches an old batch in the
    attribute of its old predecessor, at an end inside the old batch's
    range of predecessor ends, lets the rest of the stretch slide:
    scheduling goes on at the stretch's end from the slid end of its last
    batch, and stops there when that is the row's end. The slid batches
    count neither as placed nor as replaced.
    """
    old, summaries, start, stop = edit.old, edit.summaries, edit.start, edit.stop
    states, ranges = old.states, old.ranges
    setup_times = instance.setup_times
    setup_costs = instance.setup_costs
    earliest_start = machine.earliest_start
    attribute, end = states[start][:2]
    proc, tardy, setup = old.cost
    new_states = states[: start + 1]
    i, n = start, len(summaries)
    tail = (stop, n, n - len(ranges))
    lo, hi, shift = edit.run or tail
    slid = edit.slid = []
    while i < n:
        if i >= lo:
            if i >= hi:  # past the run: the tail is the next stretch
                lo, hi, shift = tail
                continue
            j = i - shift
            reach = ranges[j]
            if reach[2] <= end <= reach[3] and states[j][0] == attribute:
                offset = end - states[j][1]
                slid.append((i, hi, shift, offset))
                last = states[hi - shift]
                attribute, end = last[0], last[1] + offset
                i = hi
                continue
        summary = summaries[i]
        setup_time = setup_times[attribute - 1][summary.attribute - 1]
        lower, release = end + setup_time, summary.release
        begin = earliest_start(lower if lower > release else release, setup_time, summary.proc)
        if begin is None:
            return False
        end = begin + summary.proc
        late = bisect_left(summary.dues, end)
        cost = setup_costs[attribute - 1][summary.attribute - 1]
        attribute = summary.attribute
        new_states.append((attribute, end, summary.proc, late, cost))
        proc += summary.proc
        tardy += late
        setup += cost
        i += 1
    replaced = states[start + 1 :]
    for first, hi, shift, _ in reversed(slid):
        del replaced[first - shift - start : hi - shift - start]
    for _, _, p, t, s in replaced:
        proc -= p
        tardy -= t
        setup -= s
    edit.states, edit.cost = new_states, (proc, tardy, setup)
    return True


def _materialize(instance: Instance, machine: Machine, edit: _RowEdit) -> _Row:
    """The row a rescheduled edit stands for, with the slid stretches and
    the ranges written.

    Each slid stretch gets its old states, their ends moved by the offset,
    and its old ranges, which are absolute. A slid stretch that is a true
    suffix, ending at the ends of both the new and the old row, keeps its
    ranges of predecessor ends too, and the walk back starts before it. A
    batch the move placed gets its own range of ends: its own end when it
    does not start right after its predecessor and the setup, else the ends
    its window, its release and its due dates allow. Each position's range
    of predecessor ends meets the batch's range with the next position's,
    moved back by the batch's distance to its predecessor's end. Before the
    placed batches, the walk stops at the first position whose range comes
    out as before; the positions below it keep theirs. The edit is read,
    not changed.
    """
    old, summaries, start, slid = edit.old, edit.summaries, edit.start, edit.slid
    states = list(edit.states)
    ranges = old.ranges[:start] + [None] * (len(states) - 1 - start)
    for first, hi, shift, offset in slid:
        stretch = old.states[first - shift + 1 : hi - shift + 1]
        if offset:
            stretch = [(a, end + offset, p, t, s) for a, end, p, t, s in stretch]
        states[first + 1 : first + 1] = stretch
        ranges[first:first] = old.ranges[first - shift : hi - shift]
    placed, low, high = len(ranges), None, None
    if slid:
        first, hi, shift, _ = slid[-1]
        if hi == placed and hi - shift == len(old.ranges):
            placed = first
            low, high = ranges[first][2:]
    setup_times = instance.setup_times
    end = states[placed][1]
    for k in range(placed - 1, -1, -1):
        prev_attribute, prev_end, _, _, _ = states[k]
        reach = ranges[k]
        if reach is None:  # a batch the move placed
            summary = summaries[k]
            setup = setup_times[prev_attribute - 1][summary.attribute - 1]
            begin = end - summary.proc
            earliest = latest = end
            if begin == prev_end + setup:
                for win_start, latest in machine.availability:
                    if end <= latest:
                        break
                earliest = max(win_start + setup, summary.release) + summary.proc
                dues = summary.dues
                late = states[k + 1][3]
                if late and dues[late - 1] >= earliest:
                    earliest = dues[late - 1] + 1
                if late < len(dues) and dues[late] < latest:
                    latest = dues[late]
        else:
            earliest, latest, old_low, old_high = reach
        if low is None:
            low, high = earliest, latest
        low = (earliest if earliest > low else low) - end + prev_end
        high = (latest if latest < high else high) - end + prev_end
        if k < start and low == old_low and high == old_high:
            break
        ranges[k] = earliest, latest, low, high
        end = prev_end
    return _Row(summaries, states, edit.cost, ranges)


class _Search:
    """The annealer's current layout, evaluated incrementally.

    layout[m] holds machine row m's batches and rows[m] their summaries and
    per-position schedule state (_Row), so a move is costed by rescheduling
    only the changed part of the rows it edits. totals are the (processing
    time, tardy jobs, setup cost) of the whole layout. solo[job id] is the
    summary of the job alone, which a move into a new batch reads. space is
    the layout's MoveSpace, kept for sample_move; accept counts it again
    only for the rows the move edited.
    """

    def __init__(self, instance: Instance, layout: Layout):
        self.instance = instance
        self.layout: list[list[list[int]]] = [list(row) for row in layout]
        self.rows: list[_Row] = []
        for machine, row in zip(instance.machines, self.layout):
            edit = _RowEdit(_Row([], [(machine.initial_attribute, 0, 0, 0, 0)], (0, 0, 0), []), [])
            for batch in row:
                summary = summarize(instance, batch)
                if batch_fault(instance, machine, batch, summary) is not None:
                    raise ValueError(f"machine {machine.id} row cannot be scheduled")
                edit.insert(len(edit.row), batch, summary)
            if not _reschedule(instance, machine, edit):
                raise ValueError(f"machine {machine.id} row cannot be scheduled")
            self.rows.append(_materialize(instance, machine, edit))
        self.totals = tuple(map(sum, zip(*(r.cost for r in self.rows))))
        self.solo = {j.id: summarize(instance, [j.id]) for j in instance.jobs}
        self.space = MoveSpace(instance, self.layout)

    def edit_rows(self, move: Move) -> dict[int, _RowEdit] | None:
        """The rows a move edits, by machine index.

        A job move leaves the batch it names (from_machine, from_batch).
        None when the move would put a job into its own batch, or when the
        batch a job move makes breaks a batch rule (schedule.batch_fault). A
        kept batch obeys the rules on its machine, so a job joins it exactly
        when the job has the batch's attribute and the machine, and the
        sizes and the processing-time intervals of the batch's summary and
        the job fit together; only then is the merged batch built, and its
        summary is the kept one with the job added. A job moved into a new
        batch is tested on its kept one-job summary (solo).
        """
        kind, target = type(move), move.machine
        if kind is SwapBatches or kind is ReinsertBatch:
            edit = _RowEdit(self.rows[target], self.layout[target])
            if kind is SwapBatches:
                edit.move(move.position, move.position + 1)
            else:
                edit.move(move.src, move.dst)
            return {target: edit}

        instance = self.instance
        machine = instance.machines[target]
        job_id, m0, b0 = move.job, move.from_machine, move.from_batch
        if kind is MoveJob:
            b = move.batch
            if (target, b) == (m0, b0):
                return None
            job, host = instance.job(job_id), self.rows[target].summaries[b]
            proc, max_time = max(host.proc, job.min_time), min(host.max_time, job.max_time)
            if (
                job.attribute != host.attribute
                or machine.id not in job.eligible
                or host.size + job.size > machine.capacity
                or proc > max_time
            ):
                return None
            dues = host.dues
            k = bisect_right(dues, job.due)
            summary = BatchSummary(
                host.attribute,
                host.size + job.size,
                proc,
                max_time,
                max(host.release, job.release),
                (*dues[:k], job.due, *dues[k:]),
                host.eligible & job.eligible,
            )
            batch = sorted([*self.layout[target][b], job_id])
        else:
            batch, summary = [job_id], self.solo[job_id]
            if batch_fault(instance, machine, batch, summary) is not None:
                return None
        edits = {target: _RowEdit(self.rows[target], self.layout[target])}
        if m0 != target:
            edits[m0] = _RowEdit(self.rows[m0], self.layout[m0])
        edit = edits[target]
        if kind is MoveJob:
            edit.replace(b, batch, summary)
            edits[m0].remove_job(instance, b0, job_id)
        else:
            edits[m0].remove_job(instance, b0, job_id)
            b = min(move.position, len(edit.row))
            edit.insert(b, batch, summary)
        if m0 == target:
            # the run between the two edit points; batch b0 is gone from
            # the row when the job was its only one
            kept = len(self.layout[m0][b0]) > 1
            if kind is MoveJob:
                if b < b0:
                    edit.run = (b + 1, b0, 0)
                else:
                    edit.run = (b0 + 1, b, 0) if kept else (b0, b - 1, -1)
            elif b <= b0:
                edit.run = (b + 1, b0 + 1, 1)
            else:
                edit.run = (b0 + 1, b, 0) if kept else (b0, b, -1)
        return edits

    def evaluate(self, move: Move) -> tuple[dict[int, _RowEdit], tuple[int, int, int]] | None:
        """(rescheduled edits by machine index, new totals) of a move; None when infeasible."""
        edits = self.edit_rows(move)
        if edits is None:
            return None
        proc, tardy, setup = self.totals
        for m, edit in edits.items():
            if not _reschedule(self.instance, self.instance.machines[m], edit):
                return None
            old, new = edit.old.cost, edit.cost
            proc += new[0] - old[0]
            tardy += new[1] - old[1]
            setup += new[2] - old[2]
        return edits, (proc, tardy, setup)

    def accept(self, edits: dict[int, _RowEdit], totals: tuple[int, int, int]) -> None:
        """Take an evaluated move: each edit's batches and materialized row become current."""
        for m, edit in edits.items():
            self.rows[m] = _materialize(self.instance, self.instance.machines[m], edit)
            self.layout[m] = edit.row
        self.space.recount(self.layout, edits)
        self.totals = totals


def run_annealing(
    instance: Instance,
    params: AnnealParams = AnnealParams(),
    lb: BoundReport | None = None,
) -> AnnealResult:
    """Anneal from the greedy start and return the best feasible solution.

    The initial temperature is calibrated from a warm-up pass of random
    moves around the start solution so that the initial acceptance ratio
    approximates ACCEPTED_RATIO. The warm-up accepts no move, so a warm-up
    move drawn again reuses the |delta| of its first draw instead of being
    evaluated again. When `lb` and params.lb_gap_stop are given, the search
    stops as soon as the best objective is within that percentage gap of
    lb.objective_lb. With params.max_moves, the warm-up draws at most that
    many moves and each level at most what is left; a run whose warm-up or
    level the budget cut short stops there ("max_moves"). A job-less
    instance has no move: it returns the greedy solution before the search
    starts ("no_moves").
    """
    rng = random.Random(params.rng_seed)
    started = time.perf_counter()

    greedy_solution, greedy_cost = construct(instance)
    current_obj = greedy_cost.objective

    best_layout: Layout | None = None  # None while the greedy start is best
    best_cost = greedy_cost

    trace = [TracePoint(0.0, best_cost)]

    def elapsed() -> float:
        return time.perf_counter() - started

    def finish(reason: str) -> AnnealResult:
        trace.append(TracePoint(elapsed(), best_cost))
        return AnnealResult(
            solution=greedy_solution if best_layout is None else build_schedule(instance, best_layout),
            cost=best_cost,
            trace=tuple(trace),
            stop_reason=reason,
        )

    def gap_reached(cost: CostBreakdown) -> bool:
        if lb is None or params.lb_gap_stop is None:
            return False
        if cost.objective == 0 and lb.objective_lb == 0:
            return True
        if cost.objective == 0:
            return False
        return relative_gap(cost.objective, lb.objective_lb) <= params.lb_gap_stop

    if elapsed() >= params.time_limit:
        return finish("time")
    if gap_reached(best_cost):
        return finish("gap")
    if instance.n_jobs == 0:
        return finish("no_moves")

    search = _Search(instance, greedy_solution.layout())
    # the move loops run once per move, so what they call is bound here
    layout, space, evaluate = search.layout, search.space, search.evaluate
    time_limit = params.time_limit
    objective, n_jobs = ObjectiveWeights.for_instance(instance).objective, instance.n_jobs
    clock, uniform, exp = time.perf_counter, rng.random, math.exp

    # the moves the budget has left, taken per stretch (the warm-up, each
    # level) so that no move tests it
    left = math.inf if params.max_moves is None else params.max_moves

    # warm-up: average |delta| of random moves around the start solution;
    # seen maps each move drawn so far to its |delta|, None when infeasible
    deltas, seen, unseen = [], {}, object()
    warmup_moves = min(params.warmup_moves, left)
    left -= warmup_moves
    for _ in range(warmup_moves):
        if clock() - started >= time_limit:
            return finish("time")
        move = sample_move(layout, rng, space)
        delta = seen.get(move, unseen)
        if delta is unseen:
            outcome = evaluate(move)
            delta = None if outcome is None else abs(objective(*outcome[1], n_jobs) - current_obj)
            seen[move] = delta
        if delta is not None:
            deltas.append(delta)
    if warmup_moves < params.warmup_moves:
        return finish("max_moves")
    mean_delta = sum(deltas) / len(deltas) if deltas else 0.0
    if mean_delta > 0:
        temperature = -mean_delta / math.log(ACCEPTED_RATIO)
    else:
        temperature = params.final_temp

    moves_per_level = params.moves_per_level or 50 * instance.n_jobs

    while temperature > params.final_temp:
        level_moves = min(moves_per_level, left)
        left -= level_moves
        for _ in range(level_moves):
            now = clock() - started
            if now >= time_limit:
                return finish("time")
            move = sample_move(layout, rng, space)
            outcome = evaluate(move)
            if outcome is None:
                continue
            edits, totals = outcome
            new_obj = objective(*totals, n_jobs)
            delta = new_obj - current_obj
            if delta <= 0 or uniform() < exp(-delta / temperature):
                search.accept(edits, totals)
                current_obj = new_obj
                if new_obj < best_cost.objective:
                    best_layout = list(layout)
                    best_cost = CostBreakdown(*totals, new_obj)
                    trace.append(TracePoint(now, best_cost))
                    if gap_reached(best_cost):
                        return finish("gap")
        if level_moves < moves_per_level:
            return finish("max_moves")
        temperature *= params.cooling_rate

    return finish("final_temp")
