"""Simulated annealing over batch layouts.

Four neighborhood moves (swap consecutive batches, reinsert a batch, move a
job into an existing batch, move a job into a new batch), geometric cooling,
Metropolis acceptance on the normalized objective, and stopping on final
temperature, wall-clock limit, or a relative gap to a supplied lower bound.
Starts from the greedy construction. After a move only the affected
machines are rescheduled; layouts that fail the cheap structural checks or
cannot be scheduled are discarded without evaluation.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from typing import Union

from .bounds import BoundReport
from .greedy import construct
from .model import Batch, CostBreakdown, Instance, ObjectiveWeights, Solution
from .schedule import InfeasibleBatch, Layout, machine_cost, relative_gap, schedule_machine


@dataclass(frozen=True)
class AnnealParams:
    """Cooling schedule, move mix and stopping rules.

    The numeric defaults are tuned values; move_probs orders the moves as
    (swap consecutive batches, reinsert batch, move job, move job to new
    batch) and is renormalized before use. moves_per_level=0 means 50 times
    the job count.
    """

    final_temp: float = 0.004
    cooling_rate: float = 0.988
    accepted_ratio: float = 0.309
    move_probs: tuple[float, float, float, float] = (0.090, 0.293, 0.328, 0.289)
    time_limit: float = 360.0
    lb_gap_stop: float | None = None
    rng_seed: int = 1
    moves_per_level: int = 0
    warmup_moves: int = 1000
    trace_period: float = 2.0

    def __post_init__(self) -> None:
        if not 0 < self.cooling_rate < 1:
            raise ValueError("cooling_rate must be in (0, 1)")
        if self.final_temp <= 0:
            raise ValueError("final_temp must be positive")
        if not 0 < self.accepted_ratio < 1:
            raise ValueError("accepted_ratio must be in (0, 1)")
        if len(self.move_probs) != 4 or min(self.move_probs) < 0 or sum(self.move_probs) <= 0:
            raise ValueError("move_probs must be four non-negative values with positive sum")
        if self.time_limit < 0:
            raise ValueError("time_limit must be non-negative")


@dataclass(frozen=True)
class TracePoint:
    elapsed: float
    cost: CostBreakdown


@dataclass(frozen=True)
class AnnealTrace:
    """Best-so-far samples over time; objectives are non-increasing."""

    period: float
    points: tuple[TracePoint, ...]


@dataclass(frozen=True)
class AnnealResult:
    solution: Solution
    cost: CostBreakdown
    trace: AnnealTrace
    stop_reason: str  # "final_temp", "time", "gap" or "no_moves"


class NoMoveAvailable(Exception):
    """No neighborhood move has a non-empty argument space."""


@dataclass(frozen=True)
class SwapBatches:
    machine: int
    position: int


@dataclass(frozen=True)
class ReinsertBatch:
    machine: int
    src: int
    dst: int


@dataclass(frozen=True)
class MoveJob:
    job: int
    machine: int
    batch: int


@dataclass(frozen=True)
class MoveJobNewBatch:
    job: int
    machine: int
    position: int


Move = Union[SwapBatches, ReinsertBatch, MoveJob, MoveJobNewBatch]


def _locate(layout: Layout, job_id: int) -> tuple[int, int]:
    for m, row in enumerate(layout):
        for b, batch in enumerate(row):
            if job_id in batch:
                return m, b
    raise ValueError(f"job {job_id} not in layout")


def sample_move(
    instance: Instance,
    layout: Layout,
    rng: random.Random,
    probs: tuple[float, float, float, float] = AnnealParams.move_probs,
) -> Move:
    """Draw a move kind by probability, then uniform arguments.

    Kinds whose argument space is empty are excluded from the draw (the
    distribution is the same as resampling until a usable kind comes up).
    Raises NoMoveAvailable when no kind has arguments.
    """
    multi_batch_machines = [m for m, row in enumerate(layout) if len(row) >= 2]
    total_batches = sum(len(row) for row in layout)
    job_ids = [job_id for row in layout for batch in row for job_id in batch]
    available = (
        bool(multi_batch_machines),
        bool(multi_batch_machines),
        total_batches >= 2,
        bool(job_ids),
    )
    weights = [p if ok else 0.0 for p, ok in zip(probs, available)]
    total = sum(weights)
    if total <= 0:
        raise NoMoveAvailable("every move's argument space is empty")
    draw = rng.random() * total
    kind = 0
    acc = 0.0
    for kind, w in enumerate(weights):
        acc += w
        if draw < acc:
            break

    if kind == 0:
        machine = multi_batch_machines[rng.randrange(len(multi_batch_machines))]
        return SwapBatches(machine, rng.randrange(len(layout[machine]) - 1))
    if kind == 1:
        machine = multi_batch_machines[rng.randrange(len(multi_batch_machines))]
        length = len(layout[machine])
        src = rng.randrange(length)
        dst = rng.randrange(length - 1)
        if dst >= src:
            dst += 1
        return ReinsertBatch(machine, src, dst)
    if kind == 2:
        job_id = job_ids[rng.randrange(len(job_ids))]
        own = _locate(layout, job_id)
        slots = [
            (m, b) for m, row in enumerate(layout) for b in range(len(row)) if (m, b) != own
        ]
        machine, batch = slots[rng.randrange(len(slots))]
        return MoveJob(job_id, machine, batch)
    job_id = job_ids[rng.randrange(len(job_ids))]
    eligible = sorted(instance.job(job_id).eligible)
    machine_id = eligible[rng.randrange(len(eligible))]
    machine = next(i for i, m in enumerate(instance.machines) if m.id == machine_id)
    return MoveJobNewBatch(job_id, machine, rng.randrange(len(layout[machine]) + 1))


def apply_move(instance: Instance, layout: Layout, move: Move) -> Layout | None:
    """Apply a move, returning the new layout or None when cheaply rejected.

    Cheap rejections cover attribute mixing, capacity, processing-time
    incompatibility and eligibility; scheduling feasibility is left to the
    rebuild. Unaffected machine rows are shared with the input layout.
    """
    new_layout = list(layout)

    if isinstance(move, SwapBatches):
        row = list(layout[move.machine])
        row[move.position], row[move.position + 1] = row[move.position + 1], row[move.position]
        new_layout[move.machine] = row
        return new_layout

    if isinstance(move, ReinsertBatch):
        row = list(layout[move.machine])
        batch = row.pop(move.src)
        row.insert(move.dst, batch)
        new_layout[move.machine] = row
        return new_layout

    if isinstance(move, MoveJob):
        job = instance.job(move.job)
        m0, b0 = _locate(layout, move.job)
        m1, b1 = move.machine, move.batch
        if (m0, b0) == (m1, b1):
            return None
        machine = instance.machines[m1]
        if machine.id not in job.eligible:
            return None
        target = [instance.job(i) for i in layout[m1][b1]]
        if any(t.attribute != job.attribute for t in target):
            return None
        if sum(t.size for t in target) + job.size > machine.capacity:
            return None
        lo = max(max(t.min_time for t in target), job.min_time)
        hi = min(min(t.max_time for t in target), job.max_time)
        if lo > hi:
            return None
        if m0 == m1:
            row = [list(b) for b in layout[m0]]
            row[b1] = sorted(row[b1] + [move.job])
            row[b0].remove(move.job)
            if not row[b0]:
                del row[b0]
            new_layout[m0] = row
        else:
            row0 = [list(b) for b in layout[m0]]
            row0[b0].remove(move.job)
            if not row0[b0]:
                del row0[b0]
            row1 = [list(b) for b in layout[m1]]
            row1[b1] = sorted(row1[b1] + [move.job])
            new_layout[m0] = row0
            new_layout[m1] = row1
        return new_layout

    job = instance.job(move.job)
    machine = instance.machines[move.machine]
    if job.size > machine.capacity:
        return None
    m0, b0 = _locate(layout, move.job)
    row0 = [list(b) for b in layout[m0]]
    row0[b0].remove(move.job)
    if not row0[b0]:
        del row0[b0]
    new_layout[m0] = row0
    row1 = row0 if move.machine == m0 else [list(b) for b in layout[move.machine]]
    position = min(move.position, len(row1))
    row1.insert(position, [move.job])
    new_layout[move.machine] = row1
    return new_layout


def _affected(layout: Layout, new_layout: Layout) -> list[int]:
    return [m for m in range(len(layout)) if new_layout[m] is not layout[m]]


def run_annealing(
    instance: Instance,
    params: AnnealParams | None = None,
    weights: ObjectiveWeights | None = None,
    lb: BoundReport | None = None,
) -> AnnealResult:
    """Anneal from the greedy start and return the best feasible solution.

    The initial temperature is calibrated from a warm-up pass of random
    moves around the start solution so that the initial acceptance ratio
    approximates params.accepted_ratio. When `lb` and params.lb_gap_stop are
    given, the search stops as soon as the best objective is within that
    percentage gap of lb.objective_lb.
    """
    if params is None:
        params = AnnealParams()
    if weights is None:
        weights = ObjectiveWeights.for_instance(instance)
    rng = random.Random(params.rng_seed)
    started = time.perf_counter()

    greedy_solution, greedy_cost = construct(instance, weights)
    layout: Layout = greedy_solution.layout()
    scheds: list[tuple[Batch, ...]] = list(greedy_solution.batches)
    comps = [
        machine_cost(instance, machine, batches)
        for machine, batches in zip(instance.machines, scheds)
    ]
    proc = sum(c[0] for c in comps)
    tardy = sum(c[1] for c in comps)
    setup = sum(c[2] for c in comps)
    current_obj = greedy_cost.objective

    best_scheds = tuple(scheds)
    best_cost = greedy_cost

    trace_points = [TracePoint(0.0, best_cost)]
    last_sample = 0.0

    def elapsed() -> float:
        return time.perf_counter() - started

    def finish(reason: str) -> AnnealResult:
        trace_points.append(TracePoint(elapsed(), best_cost))
        return AnnealResult(
            solution=Solution(best_scheds),
            cost=best_cost,
            trace=AnnealTrace(params.trace_period, tuple(trace_points)),
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
    if instance.n_jobs == 0 or sum(len(r) for r in layout) == 0:
        return finish("no_moves")

    def try_move(base_layout: Layout):
        """Sample and evaluate one move; None when rejected or infeasible."""
        move = sample_move(instance, base_layout, rng, params.move_probs)
        new_layout = apply_move(instance, base_layout, move)
        if new_layout is None:
            return None
        changed = _affected(base_layout, new_layout)
        new_rows = {}
        try:
            for m in changed:
                new_rows[m] = schedule_machine(instance, instance.machines[m], new_layout[m])
        except InfeasibleBatch:
            return None
        new_comps = {
            m: machine_cost(instance, instance.machines[m], new_rows[m]) for m in changed
        }
        d_proc = sum(new_comps[m][0] - comps[m][0] for m in changed)
        d_tardy = sum(new_comps[m][1] - comps[m][1] for m in changed)
        d_setup = sum(new_comps[m][2] - comps[m][2] for m in changed)
        new_obj = weights.objective(
            proc + d_proc, tardy + d_tardy, setup + d_setup, instance.n_jobs
        )
        return new_layout, new_rows, new_comps, (d_proc, d_tardy, d_setup), new_obj

    # warm-up: average |delta| of random moves around the start solution
    deltas = []
    for _ in range(params.warmup_moves):
        if elapsed() >= params.time_limit:
            return finish("time")
        outcome = try_move(layout)
        if outcome is not None:
            deltas.append(abs(outcome[4] - current_obj))
    mean_delta = sum(deltas) / len(deltas) if deltas else 0.0
    if mean_delta > 0:
        temperature = -mean_delta / math.log(params.accepted_ratio)
    else:
        temperature = params.final_temp

    moves_per_level = params.moves_per_level or 50 * instance.n_jobs

    while temperature > params.final_temp:
        for _ in range(moves_per_level):
            if elapsed() >= params.time_limit:
                return finish("time")
            outcome = try_move(layout)
            if outcome is None:
                continue
            new_layout, new_rows, new_comps, (d_p, d_t, d_s), new_obj = outcome
            delta = new_obj - current_obj
            if delta <= 0 or rng.random() < math.exp(-delta / temperature):
                layout = new_layout
                for m, row in new_rows.items():
                    scheds[m] = row
                    comps[m] = new_comps[m]
                proc += d_p
                tardy += d_t
                setup += d_s
                current_obj = new_obj
                if new_obj < best_cost.objective:
                    best_scheds = tuple(scheds)
                    best_cost = CostBreakdown(proc, tardy, setup, new_obj)
                    if gap_reached(best_cost):
                        return finish("gap")
            now = elapsed()
            if now - last_sample >= params.trace_period:
                last_sample = now
                trace_points.append(TracePoint(now, best_cost))
        temperature *= params.cooling_rate

    return finish("final_temp")
