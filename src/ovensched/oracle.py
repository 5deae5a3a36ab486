"""Exhaustive exact solver for tiny instances.

Ground truth for bound soundness and solver quality checks. One generator
enumerates all attribute-homogeneous batchings, then every batch-to-machine
assignment and every batch order per machine is tried; each candidate is
scheduled deterministically. One incumbent keeps the least score and its
layout, and the optimum's components come from pricing it once
(schedule.evaluate). Each candidate batch (a block) is summarized once
(schedule.summarize) and may run on the eligible machines where
schedule.batch_fault finds no fault; a block with no such machine ends the
batchings that would contain it. Lower bounds from the bounds module can
prune batchings whose bound already exceeds the incumbent; each block keeps
its members that are late wherever it runs, from bounds.late_floor. The
order search on one machine cuts a prefix when an earlier prefix over the
same blocks with the same last attribute ends no later and scores no more,
which keeps both the optimum and its tie-break (_MachineOrderSearch).

Objective comparisons use ObjectiveWeights.score, an integer rescaling of
the normalized objective, so incumbent updates, tie-breaking and pruning
are exact.
"""

from __future__ import annotations

import functools
import itertools
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple

from .bounds import NoFeasiblePlacement, late_floor, setup_cost_lb, tardy_lb
from .model import CostBreakdown, InputError, Instance, Machine, ObjectiveWeights, Solution
from .schedule import BatchSummary, batch_fault, build_schedule, evaluate, summarize


# The search recurses once per job to build its first batching, before the
# node budget can stop it, and once per block to order a machine; above
# this many jobs it could run out of Python's recursion limit instead.
MAX_JOBS_CEILING = 64


@dataclass(frozen=True)
class OracleLimits:
    max_jobs: int = 9
    node_budget: int = 5_000_000

    def __post_init__(self) -> None:
        if min(self.max_jobs, self.node_budget) <= 0:
            raise ValueError("all oracle limits must be positive")
        if self.max_jobs > MAX_JOBS_CEILING:
            raise ValueError(f"max_jobs must be at most {MAX_JOBS_CEILING}")


class BudgetExceeded(Exception):
    """The search ran out of its node budget (or a hard limit tripped)."""


class Infeasible(InputError):
    """No complete feasible schedule exists for the instance."""


@dataclass(frozen=True)
class OracleResult:
    solution: Solution
    cost: CostBreakdown
    nodes: int


class _Block(NamedTuple):
    """A batch of the search: its job ids, their summary (schedule.summarize),
    the ids of the eligible machines it may run on, the ones where
    schedule.batch_fault finds no fault, and its tardy floor: the members
    late wherever it runs after the smallest setup into its attribute
    (bounds.late_floor), None when it fits on none of its machines."""

    jobs: tuple[int, ...]
    summary: BatchSummary
    machines: tuple[int, ...]
    tardy_floor: int | None


def _make_block(instance: Instance, ids: tuple[int, ...]) -> _Block:
    summary = summarize(instance, ids)
    machines = tuple(
        m
        for m in sorted(summary.eligible)
        if batch_fault(instance, instance.machine(m), ids, summary) is None
    )
    setup = instance.min_setup_time_into(summary.attribute)
    floor = late_floor(
        summary.release, summary.proc, summary.dues, map(instance.machine, machines), setup
    )
    return _Block(ids, summary, machines, floor)


def _batchings(
    instance: Instance, block_of: Callable[[tuple[int, ...]], _Block]
) -> Iterator[list[_Block]]:
    """All batchings of the jobs into blocks that have a machine to run on.

    Jobs are taken in (attribute, id) order, so every block's ids come out
    sorted. Each job joins an open block of its own attribute or opens a new
    one (restricted growth), and a block is kept only while
    block_of(ids).machines is non-empty; a batching is yielded as its
    blocks. The deepest jobs vary fastest, so the sequence is deterministic
    and duplicate-free, and it is generated lazily so that the caller's
    node budget bounds the work.
    """
    jobs = sorted((j.attribute, j.id) for j in instance.jobs)
    blocks: list[tuple[int, list[int]]] = []

    def grow(index: int) -> Iterator[list[_Block]]:
        if index == len(jobs):
            yield [block_of(tuple(ids)) for _, ids in blocks]
            return
        attribute, job_id = jobs[index]
        for block_attribute, ids in blocks:
            if block_attribute == attribute:
                ids.append(job_id)
                if block_of(tuple(ids)).machines:
                    yield from grow(index + 1)
                ids.pop()
        blocks.append((attribute, [job_id]))
        if block_of((job_id,)).machines:
            yield from grow(index + 1)
        blocks.pop()

    return grow(0)


class _MachineOrderSearch:
    """Best batch order on one machine: minimal weighted tardy+setup score.

    Depth-first over block sequences in canonical order; prefixes that
    cannot be scheduled are skipped, a running setup-cost floor cuts
    subtrees that cannot beat the incumbent, and a prefix is cut when an
    earlier one over the same blocks with the same last attribute ends no
    later and scores no more (dominance). Any completion of the cut prefix
    fits after the earlier one at no higher score: Machine.earliest_start
    is monotone in its lower bound, a block's tardy count in its end, and
    setup cost depends only on the attributes. Prefixes of one length are
    visited in lexicographic order, so the earlier prefix with that
    completion also comes first, and ties keep the first (hence
    lexicographically smallest) complete order, as without the cut. Every
    visited prefix spends one node, cut or not. A prefix carries its score
    and the bitmask of its placed blocks; the components of the optimum
    come from evaluating it (exact_solve). Results are memoized per block
    set.
    """

    def __init__(self, instance: Instance, weights: ObjectiveWeights, budget: int):
        self.instance = instance
        self.budget = budget
        self.nodes = 0
        self.cache: dict[tuple, tuple | None] = {}
        self.tardy_scale = weights.score(0, 1, 0)
        self.setup_scale = weights.score(0, 0, 1)
        self.min_in_cost = {
            r: min(instance.setup_cost(q, r) for q in range(1, instance.attribute_count + 1))
            for r in range(1, instance.attribute_count + 1)
        }

    def _spend(self) -> None:
        self.nodes += 1
        if self.nodes > self.budget:
            raise BudgetExceeded(f"node budget {self.budget} exhausted")

    def best_order(self, machine: Machine, blocks: tuple[_Block, ...]):
        """Return (score, order) or None if unschedulable."""
        blocks = tuple(sorted(blocks, key=lambda b: b.jobs))
        key = (machine.id, tuple(b.jobs for b in blocks))
        if key in self.cache:
            return self.cache[key]
        suffix_floor = sum(
            self.setup_scale * self.min_in_cost[b.summary.attribute] for b in blocks
        )
        stride = self.instance.attribute_count + 1
        # (placed-block bitmask, last attribute) -> flat [end, score, ...]
        # of the prefixes visited so far
        seen: dict[int, list[int]] = {}
        best: list = [None]
        complete = (1 << len(blocks)) - 1

        def descend(order, placed, prev_end, prev_attr, score, floor) -> None:
            self._spend()
            if best[0] is not None and score + floor >= best[0][0]:
                return
            front = seen.setdefault(placed * stride + prev_attr, [])
            for i in range(0, len(front), 2):
                if front[i] <= prev_end and front[i + 1] <= score:
                    return
            front += (prev_end, score)
            if placed == complete:
                best[0] = (score, order)
                return
            setup_times = self.instance.setup_times[prev_attr - 1]
            setup_costs = self.instance.setup_costs[prev_attr - 1]
            for b, block in enumerate(blocks):
                if placed >> b & 1:
                    continue
                summary = block.summary
                setup_time = setup_times[summary.attribute - 1]
                start = machine.earliest_start(
                    max(summary.release, prev_end + setup_time), setup_time, summary.proc
                )
                if start is None:
                    continue
                end = start + summary.proc
                block_tardy = bisect_left(summary.dues, end)
                block_setup = setup_costs[summary.attribute - 1]
                descend(
                    order + (block.jobs,),
                    placed | 1 << b,
                    end,
                    summary.attribute,
                    score + self.tardy_scale * block_tardy + self.setup_scale * block_setup,
                    floor - self.setup_scale * self.min_in_cost[summary.attribute],
                )

        descend((), 0, 0, machine.initial_attribute, 0, suffix_floor)
        self.cache[key] = best[0]
        return best[0]


def exact_solve(
    instance: Instance, limits: OracleLimits = OracleLimits(), prune_with_lb: bool = True
) -> OracleResult:
    """Find the minimum-objective feasible schedule by exhaustive search.

    One incumbent keeps the best layout found so far: per machine, its
    blocks' job ids in run order, each block's ids sorted. Ties between
    equal-cost optima go to the lexicographically smallest such layout.
    With prune_with_lb, batchings whose lower bound (fixed processing time,
    setup-cost bound, necessarily-tardy members) strictly exceeds the
    incumbent are cut, which never changes the result.
    Every batching, assignment and order step spends one node of
    limits.node_budget, so the budget bounds the whole search; an order
    prefix spends its node before it is tested against the incumbent and
    against the earlier prefixes that may dominate it.
    """
    if instance.n_jobs > limits.max_jobs:
        raise BudgetExceeded(
            f"instance has {instance.n_jobs} jobs, oracle limited to {limits.max_jobs}"
        )

    try:
        global_tardy_floor, _ = tardy_lb(instance)
    except NoFeasiblePlacement as exc:
        raise Infeasible(str(exc)) from exc

    weights = ObjectiveWeights.for_instance(instance)
    machine_index = {m.id: idx for idx, m in enumerate(instance.machines)}
    search = _MachineOrderSearch(instance, weights, limits.node_budget)
    block_of = functools.cache(functools.partial(_make_block, instance))
    # the incumbent: (score, layout)
    best: tuple | None = None

    for blocks in _batchings(instance, block_of):
        search._spend()
        proc_fixed = sum(b.summary.proc for b in blocks)

        if prune_with_lb:
            floors = [block.tardy_floor for block in blocks]
            if None in floors:
                continue
            if best is not None:
                counts = Counter(block.summary.attribute for block in blocks)
                setup_floor = setup_cost_lb(instance, counts).best
                tardy_floor = max(global_tardy_floor, sum(floors))
                if weights.score(proc_fixed, tardy_floor, setup_floor) > best[0]:
                    continue

        for assignment in itertools.product(*(b.machines for b in blocks)):
            search._spend()
            per_machine: list[list[_Block]] = [[] for _ in instance.machines]
            for block, machine_id in zip(blocks, assignment):
                per_machine[machine_index[machine_id]].append(block)
            outcomes = []
            for machine, machine_blocks in zip(instance.machines, per_machine):
                outcome = search.best_order(machine, tuple(machine_blocks))
                if outcome is None:
                    break
                outcomes.append(outcome)
            else:
                score = weights.score(proc_fixed, 0, 0) + sum(o[0] for o in outcomes)
                layout = tuple(o[1] for o in outcomes)
                if best is None or (score, layout) < best:
                    best = (score, layout)

    if best is None:
        raise Infeasible("no complete feasible schedule exists")

    solution = build_schedule(instance, best[1])
    cost = evaluate(instance, solution, weights, check=False)
    # the decomposed search and the scheduler must agree
    assert best[0] == weights.score(cost.proc_time, cost.tardy, cost.setup_cost)
    return OracleResult(solution=solution, cost=cost, nodes=search.nodes)
