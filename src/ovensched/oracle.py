"""Exhaustive exact solver for tiny instances.

Ground truth for bound soundness and solver quality checks. Enumerates all
attribute-homogeneous batchings, all batch-to-machine assignments, and all
batch orders per machine; schedules each candidate deterministically and
keeps the cheapest. Each candidate batch (a block) is summarized once
(schedule.summarize) and may run on the eligible machines where
schedule.batch_fault finds no fault; a block with no such machine ends the
batchings that would contain it. Lower bounds from the bounds module can
prune batchings whose bound already exceeds the incumbent; each block keeps
its members that are late wherever it runs, from bounds.late_floor.

Objective comparisons use ObjectiveWeights.score, an integer rescaling of
the normalized objective, so incumbent updates, tie-breaking and pruning
are exact.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Sequence

from .bounds import NoFeasiblePlacement, late_floor, setup_cost_lb, tardy_lb
from .model import CostBreakdown, Instance, Machine, ObjectiveWeights, Solution
from .schedule import BatchSummary, batch_fault, build_schedule, evaluate, summarize


@dataclass(frozen=True)
class OracleLimits:
    max_jobs: int = 9
    node_budget: int = 5_000_000

    def __post_init__(self) -> None:
        if min(self.max_jobs, self.node_budget) <= 0:
            raise ValueError("all oracle limits must be positive")


class BudgetExceeded(Exception):
    """The search ran out of its node budget (or a hard limit tripped)."""


class Infeasible(Exception):
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


def _attribute_partitions(
    instance: Instance, attribute: int, block_of: Callable[[tuple[int, ...]], _Block]
) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All batchings of one attribute's jobs into feasible blocks.

    Blocks are pruned while growing: each must have a machine to run on
    (block_of(ids).machines). Partitions are generated lazily in
    restricted-growth order, so the sequence is deterministic and
    duplicate-free, and the caller's node budget bounds the work.
    """
    jobs = sorted(j.id for j in instance.jobs_with_attribute(attribute))

    def grow(index: int, blocks: list[list[int]]) -> Iterator[tuple[tuple[int, ...], ...]]:
        if index == len(jobs):
            yield tuple(tuple(b) for b in blocks)
            return
        job_id = jobs[index]
        for block in blocks:
            block.append(job_id)
            if block_of(tuple(block)).machines:
                yield from grow(index + 1, blocks)
            block.pop()
        blocks.append([job_id])
        if block_of((job_id,)).machines:
            yield from grow(index + 1, blocks)
        blocks.pop()

    return grow(0, [])


def _layout_key(layout: Sequence[Sequence[Sequence[int]]]) -> tuple:
    """Canonical encoding used to break ties among equal-cost optima."""
    return tuple(tuple(tuple(sorted(b)) for b in machine) for machine in layout)


class _MachineOrderSearch:
    """Best batch order on one machine: minimal weighted tardy+setup score.

    Depth-first over block sequences in canonical order; prefixes that
    cannot be scheduled are skipped, and a running setup-cost floor cuts
    subtrees that cannot beat the incumbent. Ties keep the first (hence
    lexicographically smallest) complete order. Results are memoized per
    block set.
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

    def _spend(self, count: int = 1) -> None:
        self.nodes += count
        if self.nodes > self.budget:
            raise BudgetExceeded(f"node budget {self.budget} exhausted")

    def best_order(self, machine: Machine, blocks: tuple[_Block, ...]):
        """Return (score, order, (proc, tardy, setup)) or None if unschedulable."""
        key = (machine.id, tuple(sorted(b.jobs for b in blocks)))
        if key in self.cache:
            return self.cache[key]
        blocks = tuple(sorted(blocks, key=lambda b: b.jobs))
        suffix_floor = sum(
            self.setup_scale * self.min_in_cost[b.summary.attribute] for b in blocks
        )
        best: list = [None]

        def descend(remaining: tuple[_Block, ...], order, prev_end, prev_attr,
                    score, tardy, setup, floor) -> None:
            self._spend()
            if best[0] is not None and score + floor >= best[0][0]:
                return
            if not remaining:
                best[0] = (score, order, tardy, setup)
                return
            for idx, block in enumerate(remaining):
                summary = block.summary
                setup_time = self.instance.setup_time(prev_attr, summary.attribute)
                start = machine.earliest_start(
                    max(summary.release, prev_end + setup_time), setup_time, summary.proc
                )
                if start is None:
                    continue
                end = start + summary.proc
                block_tardy = bisect_left(summary.dues, end)
                block_setup = self.instance.setup_cost(prev_attr, summary.attribute)
                descend(
                    remaining[:idx] + remaining[idx + 1 :],
                    order + (block.jobs,),
                    end,
                    summary.attribute,
                    score + self.tardy_scale * block_tardy + self.setup_scale * block_setup,
                    tardy + block_tardy,
                    setup + block_setup,
                    floor - self.setup_scale * self.min_in_cost[summary.attribute],
                )

        descend(blocks, (), 0, machine.initial_attribute, 0, 0, 0, suffix_floor)
        if best[0] is None:
            result = None
        else:
            score, order, tardy, setup = best[0]
            proc = sum(b.summary.proc for b in blocks)
            result = (score, order, (proc, tardy, setup))
        self.cache[key] = result
        return result


def exact_solve(
    instance: Instance, limits: OracleLimits = OracleLimits(), prune_with_lb: bool = True
) -> OracleResult:
    """Find the minimum-objective feasible schedule by exhaustive search.

    Ties between equal-cost optima go to the lexicographically smallest
    canonical layout. With prune_with_lb, batchings whose lower bound
    (fixed processing time, setup-cost bound, necessarily-tardy members)
    strictly exceeds the incumbent are cut, which never changes the result.
    Every batching, assignment and order step spends one node of
    limits.node_budget, so the budget bounds the whole search.
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

    best_score: int | None = None
    best_key: tuple | None = None
    best_layout: list | None = None
    best_components: tuple[int, int, int] | None = None

    block_cache: dict[tuple[int, ...], _Block] = {}

    def block_of(ids: tuple[int, ...]) -> _Block:
        if ids not in block_cache:
            block_cache[ids] = _make_block(instance, ids)
        return block_cache[ids]

    def batchings(attribute: int):
        # the per-attribute batchings in itertools.product order, each
        # attribute's regenerated per prefix so that none are held in memory
        if attribute > instance.attribute_count:
            yield ()
            return
        for parts in _attribute_partitions(instance, attribute, block_of):
            for rest in batchings(attribute + 1):
                yield (parts, *rest)

    for combo in batchings(1):
        search._spend()
        blocks = [block_of(ids) for parts in combo for ids in parts]
        proc_fixed = sum(b.summary.proc for b in blocks)

        if prune_with_lb:
            floors = [block.tardy_floor for block in blocks]
            if None in floors:
                continue
            if best_score is not None:
                counts = {r + 1: len(parts) for r, parts in enumerate(combo)}
                setup_floor = setup_cost_lb(instance, counts, len(blocks)).best
                tardy_floor = max(global_tardy_floor, sum(floors))
                if weights.score(proc_fixed, tardy_floor, setup_floor) > best_score:
                    continue

        for assignment in itertools.product(*(b.machines for b in blocks)):
            search._spend()
            per_machine: list[list[_Block]] = [[] for _ in instance.machines]
            for block, machine_id in zip(blocks, assignment):
                per_machine[machine_index[machine_id]].append(block)
            orders = []
            feasible = True
            total_score = weights.score(proc_fixed, 0, 0)
            for machine, machine_blocks in zip(instance.machines, per_machine):
                outcome = search.best_order(machine, tuple(machine_blocks))
                if outcome is None:
                    feasible = False
                    break
                total_score += outcome[0]
                orders.append(outcome)
            if not feasible:
                continue
            layout = [list(o[1]) for o in orders]
            key = _layout_key(layout)
            if (
                best_score is None
                or total_score < best_score
                or (total_score == best_score and key < best_key)
            ):
                best_score = total_score
                best_key = key
                best_layout = layout
                best_components = (
                    proc_fixed,
                    sum(o[2][1] for o in orders),
                    sum(o[2][2] for o in orders),
                )

    if best_layout is None:
        raise Infeasible("no complete feasible schedule exists")

    solution = build_schedule(instance, best_layout)
    cost = evaluate(instance, solution, weights, check=False)
    # the decomposed search and the scheduler must agree
    assert best_components == (cost.proc_time, cost.tardy, cost.setup_cost)
    return OracleResult(solution=solution, cost=cost, nodes=search.nodes)
