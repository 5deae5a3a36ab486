from __future__ import annotations

import functools
import hashlib
import math
import random
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from ovensched import (
    AnnealParams,
    CostBreakdown,
    GeneratorConfig,
    InfeasibleBatch,
    Instance,
    Job,
    Machine,
    MoveJob,
    MoveJobNewBatch,
    ObjectiveWeights,
    ReinsertBatch,
    SwapBatches,
    build_schedule,
    check_feasibility,
    construct,
    evaluate,
    exact_solve,
    generate_instance,
    objective_lb,
    run_annealing,
    sample_move,
)
from ovensched import anneal
from ovensched.anneal import MOVE_PROBS, MoveSpace, _materialize, _Search
from ovensched.schedule import batch_fault, machine_cost, schedule_machine, summarize

from conftest import EXAMPLE_OBJECTIVE_LB, examples, schedule_digest, tiny_config

FAST = AnnealParams(rng_seed=3, warmup_moves=100, moves_per_level=60, time_limit=20.0)


def layout_of(instance):
    solution, _ = construct(instance)
    return solution.layout()


def partition_ids(layout):
    ids = [j for row in layout for batch in row for j in batch]
    return sorted(ids)


def _locate(layout, job_id):
    for m, row in enumerate(layout):
        for b, batch in enumerate(row):
            if job_id in batch:
                return m, b
    raise ValueError(f"job {job_id} not in layout")


def apply_move(instance, layout, move):
    """Reference: the layout a move leaves, or None when cheaply rejected.

    A job move into a batch is rejected on mixed attributes, an ineligible
    machine, capacity or incompatible processing times, and a job move into
    a new batch on capacity; everything else is left to scheduling. Rows
    the move leaves alone are shared with the input layout. A job move's
    source must be where a scan of the layout finds the job.
    """
    new = list(layout)

    def row(m):
        if new[m] is layout[m]:
            new[m] = list(layout[m])
        return new[m]

    if isinstance(move, SwapBatches):
        r, b = row(move.machine), move.position
        r[b], r[b + 1] = r[b + 1], r[b]
        return new
    if isinstance(move, ReinsertBatch):
        r = row(move.machine)
        r.insert(move.dst, r.pop(move.src))
        return new
    job = instance.job(move.job)
    machine = instance.machines[move.machine]
    m0, b0 = _locate(layout, move.job)
    assert (move.from_machine, move.from_batch) == (m0, b0)
    if isinstance(move, MoveJob):
        if (m0, b0) == (move.machine, move.batch):
            return None
        merged = [instance.job(j) for j in layout[move.machine][move.batch]] + [job]
        if (
            machine.id not in job.eligible
            or any(j.attribute != job.attribute for j in merged)
            or sum(j.size for j in merged) > machine.capacity
            or max(j.min_time for j in merged) > min(j.max_time for j in merged)
        ):
            return None
        row(move.machine)[move.batch] = sorted(j.id for j in merged)
    elif job.size > machine.capacity:
        return None
    source = row(m0)
    rest = [j for j in source[b0] if j != move.job]
    if rest:
        source[b0] = rest
    else:
        del source[b0]
    if isinstance(move, MoveJobNewBatch):
        target = row(move.machine)
        target.insert(min(move.position, len(target)), [move.job])
    return new


def edited_layout(search, move):
    """The layout after search.edit_rows(move), or None when it rejects the
    move; every edited row's summaries must match its batches."""
    edits = search.edit_rows(move)
    if edits is None:
        return None
    layout = list(search.layout)
    for m, edit in edits.items():
        assert edit.summaries == [summarize(search.instance, b) for b in edit.row]
        layout[m] = edit.row
    return layout


@pytest.mark.parametrize(
    "bad",
    [
        dict(moves_per_level=-5),
        dict(warmup_moves=-3),
        dict(final_temp=math.nan),
        dict(final_temp=math.inf),
        dict(time_limit=math.nan),
        dict(time_limit=math.inf),
        dict(lb_gap_stop=math.nan),
        dict(lb_gap_stop=-5.0),
        dict(cooling_rate=math.nan),
        dict(max_moves=0),
        dict(max_moves=-7),
    ],
)
def test_params_that_switch_the_search_off_are_rejected(bad):
    with pytest.raises(ValueError):
        AnnealParams(**bad)


def test_forced_swap_on_two_batch_machine():
    # machine 0 holds the only pair of consecutive batches
    layout = [[[1], [2]], []]
    inst = generate_instance(tiny_config(2, 99))
    space, rng = MoveSpace(inst, layout), random.Random(0)
    moves = [sample_move(layout, rng, space) for _ in range(200)]
    swaps = [move for move in moves if isinstance(move, SwapBatches)]
    assert swaps and set(swaps) == {SwapBatches(machine=0, position=0)}
    new_layout = apply_move(inst, layout, swaps[0])
    assert new_layout[0] == [[2], [1]]


def test_moves_preserve_partition(example):
    rng = random.Random(11)
    search = _Search(example, layout_of(example))
    expected = partition_ids(search.layout)
    applied = 0
    for _ in range(600):
        move = sample_move(search.layout, rng, search.space)
        new_layout = edited_layout(search, move)
        assert new_layout == apply_move(example, search.layout, move)
        outcome = search.evaluate(move)
        if outcome is None:
            continue
        applied += 1
        search.accept(*outcome)
        assert search.layout == new_layout
        assert partition_ids(search.layout) == expected
    assert applied > 100


def test_move_job_new_batch_keeps_partition(example):
    search = _Search(example, layout_of(example))
    new_layout = edited_layout(search, MoveJobNewBatch(5, 1, 0, *_locate(search.layout, 5)))
    assert partition_ids(new_layout) == partition_ids(search.layout)
    assert new_layout[1][0] == [5]


def test_move_job_cheap_rejections(example):
    search = _Search(example, [[[1]], [[3], [9]]])  # a partial layout is fine
    # moves name their job's source: job 1 at (0, 0), 3 at (1, 0), 9 at (1, 1)
    for move in (
        MoveJob(1, 1, 1, 0, 0),  # attribute 2 into attribute 1
        MoveJob(9, 0, 0, 1, 1),  # job 9 not eligible on machine 1
        MoveJob(1, 1, 0, 0, 0),  # sizes 18 + 17 > capacity 20
        MoveJob(9, 1, 1, 1, 1),  # into its own batch
    ):
        assert edited_layout(search, move) is None
        assert apply_move(example, search.layout, move) is None
    # new batches: job 3 is not eligible on machine 1; scheduling rejects
    # what the reference lets through
    move = MoveJobNewBatch(3, 0, 0, 1, 0)
    assert edited_layout(search, move) is None
    assert search.evaluate(move) is None
    assert apply_move(example, search.layout, move) == [[[3], [1]], [[9]]]
    # a new batch over capacity: job 1 (size 18) alone on machine 2 cut to
    # capacity 17, where jobs 3 (size 17) and 9 still fit
    m2 = example.machines[1]
    machines = (example.machines[0], Machine(m2.id, 17, m2.initial_attribute, m2.availability))
    small = Instance(machines, example.jobs, example.attribute_count, example.setup_times,
                     example.setup_costs)
    search = _Search(small, [[[1]], [[3], [9]]])
    move = MoveJobNewBatch(1, 1, 0, 0, 0)
    assert edited_layout(search, move) is None
    assert apply_move(small, search.layout, move) is None


def test_move_job_passes_cheap_checks_and_reschedules(example):
    # job 5 into job 8's batch: combined size 17 <= 18 and the processing
    # windows meet at 50, so the move survives the batch rules and the
    # machine reschedules cleanly
    search = _Search(example, layout_of(example))
    target = next(
        (m, b)
        for m, row in enumerate(search.layout)
        for b, batch in enumerate(row)
        if batch == [8]
    )
    move = MoveJob(5, *target, *_locate(search.layout, 5))
    outcome = search.evaluate(move)
    assert outcome is not None
    search.accept(*outcome)
    assert sorted(search.layout[target[0]][-1]) == [5, 8]
    build_schedule(example, search.layout)  # must not raise


def test_no_move_available():
    # a move into a new batch has arguments in any layout with a job
    inst = generate_instance(tiny_config(1, 5))
    with pytest.raises(ValueError, match="needs a job"):
        MoveSpace(inst, [[], []])


def test_sample_move_rejects_empty_ranges(example):
    # an empty batch or a job without an eligible machine leaves a draw
    # with nothing to draw from
    with pytest.raises(ValueError, match="every batch a job"):
        MoveSpace(example, [[[1], []], []])
    j3 = example.job(3)
    no_machine = Job(j3.id, j3.attribute, j3.size, j3.release, j3.due, j3.min_time, j3.max_time,
                     frozenset())
    instance = Instance(example.machines, (*example.jobs[:2], no_machine, *example.jobs[3:]),
                        example.attribute_count, example.setup_times, example.setup_costs)
    with pytest.raises(ValueError, match="eligible machine"):
        MoveSpace(instance, [[[1]], [[3]]])


def test_move_kinds_are_distinct_keys():
    # the warm-up keys deltas on moves: moves of two kinds with equal fields
    # must differ (NamedTuples would compare equal), equal moves must not
    assert MoveJob(1, 2, 3, 0, 0) != MoveJobNewBatch(1, 2, 3, 0, 0)
    keys = {SwapBatches(1, 2): 0, ReinsertBatch(1, 2, 3): 1, MoveJob(1, 2, 3, 0, 0): 2}
    keys[MoveJobNewBatch(1, 2, 3, 0, 0)] = 3
    assert len(keys) == 4
    assert keys[MoveJob(1, 2, 3, 0, 0)] == 2
    # job moves that differ only in their source are different keys, and
    # moves with equal fields are equal keys
    for kind in (MoveJob, MoveJobNewBatch):
        keys[kind(1, 2, 3, 0, 1)] = kind
        assert kind(1, 2, 3, 0, 1) != kind(1, 2, 3, 0, 0) != kind(1, 2, 3, 1, 0)
        assert keys[kind(1, 2, 3, 0, 1)] is kind
        assert kind(1, 2, 3, 1, 0) not in keys
    assert len(keys) == 6


def test_run_on_jobless_instance_stops_with_no_moves():
    # the only layout without a move is one without jobs
    machines = (Machine(1, 10, 1, ((0, 100),)), Machine(2, 10, 1, ((0, 100),)))
    inst = Instance(machines, (), 1, ((0,),), ((0,),))
    greedy_solution, greedy_cost = construct(inst)
    result = run_annealing(inst)
    assert result.stop_reason == "no_moves"
    assert result.solution == greedy_solution
    assert result.cost == greedy_cost
    assert [p.cost for p in result.trace] == [greedy_cost, greedy_cost]


def test_run_annealing_improves_example(example):
    lb = objective_lb(example)
    result = run_annealing(example, replace(FAST, rng_seed=7), lb=lb)
    _, greedy_cost = construct(example)
    assert result.stop_reason == "final_temp"
    assert check_feasibility(example, result.solution) == []
    assert result.cost.objective <= greedy_cost.objective
    assert result.cost.objective >= EXAMPLE_OBJECTIVE_LB - 1e-12


def test_run_annealing_deterministic(example):
    a = run_annealing(example, replace(FAST, rng_seed=5))
    b = run_annealing(example, replace(FAST, rng_seed=5))
    assert a.solution == b.solution
    assert a.cost == b.cost
    assert a.stop_reason == b.stop_reason
    assert [p.cost for p in a.trace] == [p.cost for p in b.trace]


def test_zero_time_limit_returns_greedy(example):
    result = run_annealing(example, AnnealParams(rng_seed=1, time_limit=0.0))
    _, greedy_cost = construct(example)
    assert result.stop_reason == "time"
    assert result.cost == greedy_cost


def test_gap_stop_fires(example):
    # a bound equal to the greedy cost makes the start solution good enough
    _, greedy_cost = construct(example)
    fake_lb = replace(objective_lb(example), objective_lb=greedy_cost.objective)
    result = run_annealing(example, replace(FAST, lb_gap_stop=0.0), lb=fake_lb)
    assert result.stop_reason == "gap"
    assert result.cost == greedy_cost


def test_best_objective_non_increasing_in_trace(example):
    result = run_annealing(example, replace(FAST, rng_seed=13))
    objectives = [p.cost.objective for p in result.trace]
    assert all(a >= b - 1e-15 for a, b in zip(objectives, objectives[1:]))


def test_anneal_random_instances_feasible_and_sound():
    for seed in range(6):
        inst = generate_instance(tiny_config(8, 7000 + seed))
        lb = objective_lb(inst)
        result = run_annealing(
            inst, AnnealParams(rng_seed=seed, warmup_moves=50, moves_per_level=40), lb=lb
        )
        assert check_feasibility(inst, result.solution) == []
        assert result.cost.objective >= lb.objective_lb - 1e-12


def _any_move(instance, layout, rng):
    """A job move with arbitrary arguments, ineligible machines included,
    from the job's batch."""
    job = rng.randrange(instance.n_jobs) + 1
    machine = rng.randrange(instance.n_machines)
    source = _locate(layout, job)
    if layout[machine] and rng.random() < 0.5:
        return MoveJob(job, machine, rng.randrange(len(layout[machine])), *source)
    return MoveJobNewBatch(job, machine, rng.randrange(len(layout[machine]) + 2), *source)


def _spread_config(n_jobs, seed, n_machines):
    """Releases and dues spread far apart, 2-6 windows per machine."""
    return tiny_config(
        n_jobs,
        seed,
        n_machines=n_machines,
        release_range=(0, 200),
        due_slack_range=(0, 200),
        window_count_range=(2, 6),
        window_length_range=(30, 200),
        window_gap_range=(0, 30),
    )


SHAPES = {"tiny": tiny_config, "spread": _spread_config}


def _reference_tail(instance, machine, batches, attribute, end):
    """States of the batches scheduled after a batch of `attribute` ending at `end`."""
    states = []
    for batch in batches:
        jobs = [instance.job(j) for j in batch]
        proc = max(j.min_time for j in jobs)
        setup = instance.setup_time(attribute, jobs[0].attribute)
        lower = max(max(j.release for j in jobs), end + setup)
        start = machine.earliest_start(lower, setup, proc)
        if start is None:
            return None
        cost = instance.setup_cost(attribute, jobs[0].attribute)
        attribute, end = jobs[0].attribute, start + proc
        states.append((attribute, end, proc, sum(j.due < end for j in jobs), cost))
    return states


def _slid(states, offset):
    return [(a, end + offset, p, t, s) for a, end, p, t, s in states]


def _slide_fault(instance, machine, row, batches, j, end):
    """Why the row's batches from j do not all slide when batch j - 1 ends at
    `end` instead; None when they do."""
    offset = end - row.states[j][1]
    if offset == 0:
        return None
    for k in range(j, len(batches)):
        (prev_attribute, prev_end, *_), (attribute, old_end, proc, *_) = row.states[k : k + 2]
        jobs = [instance.job(i) for i in batches[k]]
        setup = instance.setup_time(prev_attribute, attribute)
        begin = old_end - proc
        if begin != prev_end + setup:
            return "pinned"
        win_start, win_end = next(w for w in machine.availability if w[0] <= begin - setup <= w[1])
        new_end = old_end + offset
        if new_end > win_end:
            return "window end"
        if begin + offset - setup < win_start:
            return "window start"
        if begin + offset < max(i.release for i in jobs):
            return "release"
        if any(min(old_end, new_end) <= i.due < max(old_end, new_end) for i in jobs):
            return "due"
    return None


def _check_row_ranges(instance, machine, row, batches):
    """Every position's range of predecessor ends is exact: at both ends the
    row's tail slides by the offset, one step outside it does not."""
    for j in range(len(batches)):
        attribute, end = row.states[j][:2]
        tail = row.states[j + 1 :]
        low, high = row.ranges[j][2:]
        for x, slides in ((low, True), (high, True), (low - 1, False), (high + 1, False)):
            moved = _reference_tail(instance, machine, batches[j:], attribute, x)
            assert (moved == _slid(tail, x - end)) == slides, (j, x)


def _walk(instance, walk_seed, moves, events):
    """Random moves on a _Search, each checked against full rescheduling.

    Every feasible row edit is materialized as accept would do it and
    compared with schedule_machine/machine_cost; every position where the
    rescheduling tested a stretch of old batches is checked against
    _slide_fault. A move sampled from the kept MoveSpace must be the one
    sample_move draws from the same random state with a MoveSpace counted
    afresh from the layout. After each accept every row and the MoveSpace
    must equal a rebuild from scratch, and the ranges of the rows it changed
    must be exact. events counts slides by stretch and offset sign, refused
    slides by reason, and edits whose run and tail both slid.
    """
    weights = ObjectiveWeights.for_instance(instance)
    search = _Search(instance, layout_of(instance))
    rng = random.Random(walk_seed)
    for _ in range(moves):
        if rng.random() < 0.8:
            twin = random.Random()
            twin.setstate(rng.getstate())
            move = sample_move(search.layout, rng, search.space)
            assert sample_move(search.layout, twin, MoveSpace(instance, search.layout)) == move
            assert twin.getstate() == rng.getstate()
        else:
            move = _any_move(instance, search.layout, rng)
        new_layout = apply_move(instance, search.layout, move)
        outcome = search.evaluate(move)
        if new_layout is None:
            assert outcome is None
            continue
        changed = [m for m, row in enumerate(new_layout) if row is not search.layout[m]]
        try:
            rebuilt = {
                m: schedule_machine(instance, instance.machines[m], new_layout[m]) for m in changed
            }
        except InfeasibleBatch:
            assert outcome is None
            continue
        assert outcome is not None
        edits, totals = outcome
        assert sorted(edits) == changed
        for m, batches in rebuilt.items():
            machine = instance.machines[m]
            old, edit = search.rows[m], edits[m]
            row = _materialize(instance, machine, edit)
            assert edit.old is old
            assert edit.row == new_layout[m]
            assert [state[1] for state in row.states[1:]] == [b.end for b in batches]
            assert row.cost == machine_cost(instance, machine, batches)
            # each stretch, the run and then the tail, is old batches in their
            # old order; it slides at its first tested position where the old
            # batches from there to the old row's end slide
            n, old_batches = len(edit.row), search.layout[m]
            stretches = [("tail", (edit.stop, n, n - len(old_batches)))]
            if edit.run:
                lo, hi, shift = edit.run
                assert shift in (-1, 0, 1) and lo <= hi
                assert lo == hi or edit.start <= lo and hi <= edit.stop
                stretches.insert(0, ("run", edit.run))
            slides = {(hi, shift): (first, offset) for first, hi, shift, offset in edit.slid}
            assert len(slides) == len(edit.slid)
            events["run and tail"] += len(slides) == 2
            for kind, (lo, hi, shift) in stretches:
                assert edit.row[lo:hi] == old_batches[lo - shift : hi - shift]
                first, offset = slides.pop((hi, shift), (hi, 0))
                assert lo <= first <= hi
                for i in range(lo, min(first + 1, hi)):
                    j = i - shift
                    if row.states[i][0] != old.states[j][0]:
                        assert i != first
                        continue
                    fault = _slide_fault(instance, machine, old, old_batches, j, row.states[i][1])
                    assert (fault is None) == (i == first)
                    if fault is None:
                        assert offset == row.states[i][1] - old.states[j][1]
                        events[(kind, (offset > 0) - (offset < 0))] += 1
                    else:
                        events[fault] += 1
            assert not slides
        if rng.random() < 0.5:
            search.accept(edits, totals)
            full = evaluate(instance, build_schedule(instance, search.layout), weights, check=True)
            assert totals == (full.proc_time, full.tardy, full.setup_cost)
            fresh = _Search(instance, search.layout)
            assert search.rows == fresh.rows
            assert vars(search.space) == vars(fresh.space)
            for m in changed:
                _check_row_ranges(instance, instance.machines[m], search.rows[m], search.layout[m])


@settings(max_examples=examples(60), deadline=None)
@given(
    st.sampled_from(sorted(SHAPES)),
    st.integers(1, 24),
    st.integers(1, 3),
    st.integers(0, 10**6),
    st.integers(0, 10**6),
)
def test_incremental_evaluation_matches_full_reschedule(
    shape, n_jobs, n_machines, instance_seed, walk_seed
):
    config = SHAPES[shape](n_jobs, instance_seed, n_machines=n_machines)
    _walk(generate_instance(config), walk_seed, 80, Counter())


def test_rigid_shift_cases_occur():
    events = Counter()
    for seed in range(6):
        for shape in sorted(SHAPES):
            instance = generate_instance(SHAPES[shape](20, 9100 + seed, n_machines=2))
            _walk(instance, seed, 150, events)
    kinds = (
        ("tail", 1), ("tail", -1), ("run", 1), ("run", -1), "run and tail",
        "window end", "due", "pinned",
    )
    for kind in kinds:
        assert events[kind] > 0, (kind, events)


def _job_at(layout, row_jobs, index):
    """Reference: (job id, machine, batch) of the index-th job in layout
    order by a linear scan; row_jobs[m] is the number of jobs in row m."""
    for m, size in enumerate(row_jobs):
        if index < size:
            for b, batch in enumerate(layout[m]):
                if index < len(batch):
                    return batch[index], m, b
                index -= len(batch)
        index -= size
    raise IndexError("job index out of range")


def _layout_of_sizes(sizes, seed):
    """A layout whose row m holds batches of sizes[m], job ids shuffled."""
    ids = list(range(1, sum(map(sum, sizes)) + 1))
    random.Random(seed).shuffle(ids)
    ids = iter(ids)
    return [[[next(ids) for _ in range(size)] for size in row] for row in sizes]


def _check_job_at(sizes, seed):
    layout = _layout_of_sizes(sizes, seed)
    instance = generate_instance(tiny_config(sum(map(sum, sizes)), seed, n_machines=len(sizes)))
    space = MoveSpace(instance, layout)
    assert space.row_jobs == [sum(row) for row in sizes]
    for index in range(space.jobs):
        assert space.job_at(layout, index) == _job_at(layout, space.row_jobs, index)
    with pytest.raises(IndexError):
        space.job_at(layout, space.jobs)


@pytest.mark.parametrize(
    "sizes",
    [
        [[], [3, 1], [2]],  # a job-less first row
        [[1, 1, 1], [], [1]],  # one-job batches around a job-less row
        [[4], [2], [3]],  # one-batch rows
        [[2, 3], [1], []],  # a job-less last row
        [[1]],
    ],
)
def test_job_at_matches_a_linear_scan(sizes):
    _check_job_at(sizes, 5)


@settings(max_examples=examples(60), deadline=None)
@given(
    st.lists(st.lists(st.integers(1, 4), max_size=5), min_size=1, max_size=3).filter(
        lambda sizes: any(sizes)
    ),
    st.integers(0, 10**6),
)
def test_job_at_matches_a_linear_scan_on_random_layouts(sizes, seed):
    _check_job_at(sizes, seed)


def _batch_at(layout, index):
    """Reference: (machine, batch) of the index-th batch in layout order by
    a linear scan."""
    for m, row in enumerate(layout):
        if index < len(row):
            return m, index
        index -= len(row)
    raise IndexError("batch index out of range")


def _reference_draw(instance, layout, rng):
    """Reference for sample_move: the kind weights built, summed and walked
    on every draw, and every count taken by a scan of the layout."""
    multi_batch = [m for m, row in enumerate(layout) if len(row) >= 2]
    total_batches = sum(map(len, layout))
    weights = (
        MOVE_PROBS[0] if multi_batch else 0.0,
        MOVE_PROBS[1] if multi_batch else 0.0,
        MOVE_PROBS[2] if total_batches >= 2 else 0.0,
        MOVE_PROBS[3],
    )
    draw = rng.random() * sum(weights)
    kind = 0
    acc = 0.0
    for kind, w in enumerate(weights):
        acc += w
        if draw < acc:
            break
    randbelow = rng._randbelow
    if kind == 0:
        machine = multi_batch[randbelow(len(multi_batch))]
        return SwapBatches(machine, randbelow(len(layout[machine]) - 1))
    if kind == 1:
        machine = multi_batch[randbelow(len(multi_batch))]
        length = len(layout[machine])
        src = randbelow(length)
        dst = randbelow(length - 1)
        if dst >= src:
            dst += 1
        return ReinsertBatch(machine, src, dst)
    row_jobs = [sum(map(len, row)) for row in layout]
    job_id, m0, b0 = _job_at(layout, row_jobs, randbelow(sum(row_jobs)))
    if kind == 2:
        slot = randbelow(total_batches - 1)
        if slot >= sum(map(len, layout[:m0])) + b0:
            slot += 1
        return MoveJob(job_id, *_batch_at(layout, slot), m0, b0)
    index = {machine.id: m for m, machine in enumerate(instance.machines)}
    eligible = [index[i] for i in sorted(instance.job(job_id).eligible)]
    machine = eligible[randbelow(len(eligible))]
    return MoveJobNewBatch(job_id, machine, randbelow(len(layout[machine]) + 1), m0, b0)


def _roomy_instance(n_machines, eligible, seed):
    """An instance where any layout of its jobs can be scheduled: one
    attribute, unit sizes, capacity 100, one long window per machine and
    processing-time intervals that all meet. Job j is eligible on the
    machine ids eligible[j - 1]."""
    rng = random.Random(seed)
    machines = tuple(Machine(m, 100, 1, ((0, 10**6),)) for m in range(1, n_machines + 1))
    jobs = tuple(
        Job(j, 1, 1, rng.randrange(50), rng.randrange(50, 200), 5, 50, frozenset(ids))
        for j, ids in enumerate(eligible, 1)
    )
    return Instance(machines, jobs, 1, ((3,),), ((2,),))


@settings(max_examples=examples(60), deadline=None)
@given(
    st.lists(st.lists(st.integers(1, 4), max_size=5), min_size=1, max_size=3).filter(
        lambda sizes: any(sizes)
    ),
    st.integers(0, 10**6),
)
@example([[3]], 0)  # a single row of a single batch
@example([[], [2], []], 1)  # one batch between empty rows
@example([[1], [2], [1, 1]], 2)  # rows of one batch
def test_sample_move_matches_the_reference_draw(sizes, seed):
    """sample_move on the kept MoveSpace draws the move, and leaves the
    random state, that the reference draw does from the same state, on
    random layouts and after accepted moves; a job move's source is where
    the reference's scan found the job."""
    layout = _layout_of_sizes(sizes, seed)
    coin = random.Random(seed)
    eligible = [set() for _ in range(sum(map(sum, sizes)))]
    for m, row in enumerate(layout, 1):
        for job_id in (j for batch in row for j in batch):
            others = (k for k in range(1, len(layout) + 1) if coin.random() < 0.5)
            eligible[job_id - 1] = {m, *others}
    instance = _roomy_instance(len(layout), eligible, seed)
    search = _Search(instance, layout)
    rng, twin = random.Random(seed), random.Random(seed)
    for _ in range(60):
        move = sample_move(search.layout, rng, search.space)
        assert _reference_draw(instance, search.layout, twin) == move
        assert twin.getstate() == rng.getstate()
        outcome = search.evaluate(move)
        if outcome is not None and coin.random() < 0.5:
            search.accept(*outcome)


def test_kind_thresholds_follow_crossings():
    """Each accept below changes which move kinds have arguments; the kept
    MoveSpace must then equal a fresh one and draw only those kinds."""
    instance = _roomy_instance(2, [{1, 2}, {1, 2}], 0)
    search = _Search(instance, [[[1], [2]], []])
    rng = random.Random(0)
    steps = [
        # merges the last two batches: a single batch is left, and only a
        # move into a new batch has arguments
        (MoveJob(2, 0, 0, 0, 1), [[[1, 2]], []], {MoveJobNewBatch}),
        # two batches, each alone in its row: job moves only
        (MoveJobNewBatch(1, 1, 0, 0, 0), [[[2]], [[1]]], {MoveJob, MoveJobNewBatch}),
        # row 1 crosses two batches and row 0 empties: every kind
        (
            MoveJobNewBatch(2, 1, 1, 0, 0),
            [[], [[1], [2]]],
            {SwapBatches, ReinsertBatch, MoveJob, MoveJobNewBatch},
        ),
    ]
    for move, layout, kinds in steps:
        outcome = search.evaluate(move)
        assert outcome is not None
        search.accept(*outcome)
        assert search.layout == layout
        assert vars(search.space) == vars(MoveSpace(instance, layout))
        drawn = {type(sample_move(search.layout, rng, search.space)) for _ in range(300)}
        assert drawn == kinds


def _accepted_walk(instance, rng, moves):
    """A _Search on the greedy layout, yielded at the start and after each
    accept of random moves drawn by sample_move, every feasible one accepted."""
    search = _Search(instance, layout_of(instance))
    yield search
    for _ in range(moves):
        move = sample_move(search.layout, rng, search.space)
        outcome = search.evaluate(move)
        if outcome is not None:
            search.accept(*outcome)
            yield search


# small jobs, so that batches hold several and job moves often pass
ROOMY_SHAPES = {**SHAPES, "small jobs": functools.partial(tiny_config, size_range=(1, 3))}


@settings(max_examples=examples(60), deadline=None)
@given(
    st.sampled_from(sorted(ROOMY_SHAPES)),
    st.integers(1, 16),
    st.integers(1, 3),
    st.integers(0, 10**6),
    st.integers(0, 10**6),
)
def test_job_move_checked_on_the_kept_summary(shape, n_jobs, n_machines, instance_seed, seed):
    """A job move into a kept batch is rejected exactly when the merged
    batch breaks a batch rule or the batch is the job's own, and a move
    that passes gives the merged batch its summary."""
    config = ROOMY_SHAPES[shape](n_jobs, instance_seed, n_machines=n_machines)
    instance = generate_instance(config)
    rng = random.Random(seed)
    for search in _accepted_walk(instance, rng, rng.randrange(40)):
        pass
    for _ in range(30):
        job = instance.job(rng.randrange(instance.n_jobs) + 1)
        job_id = job.id
        # half of the targets share the job's attribute and machine, where
        # only capacity and processing times can fail
        targets = [
            (m, b)
            for m, row in enumerate(search.layout)
            for b, batch in enumerate(row)
            if instance.job(batch[0]).attribute == job.attribute
            and instance.machines[m].id in job.eligible
        ]
        if not targets or rng.random() < 0.5:
            targets = [(m, b) for m, row in enumerate(search.layout) for b in range(len(row))]
        target, b = rng.choice(targets)
        host = search.layout[target][b]
        merged = sorted([*host, job_id])
        summary = summarize(instance, merged)
        fault = batch_fault(instance, instance.machines[target], merged, summary)
        edits = search.edit_rows(MoveJob(job_id, target, b, *_locate(search.layout, job_id)))
        assert (edits is None) == (job_id in host or fault is not None)
        if edits is not None:
            edit = edits[target]
            k = next(k for k, batch in enumerate(edit.row) if job_id in batch)
            assert edit.row[k] == merged
            assert edit.summaries[k] == summary


# The benchmark's 500-job instance and move budget (3 cooling levels). These
# are the results of rescheduling whole rows after every move; the
# incremental evaluation must reproduce that search exactly.
@pytest.mark.parametrize(
    "rng_seed, expected",
    [
        (1, CostBreakdown(18922, 465, 2194, 0.9135480272108845)),
        (2, CostBreakdown(19094, 463, 2172, 0.9099515646258504)),
    ],
)
def test_pinned_results_at_benchmark_scale(rng_seed, expected):
    instance = generate_instance(GeneratorConfig(n_jobs=500, n_machines=5, n_attributes=5, seed=3))
    params = AnnealParams(
        final_temp=4e-6,
        cooling_rate=0.2,
        moves_per_level=1000,
        warmup_moves=1000,
        time_limit=120,
        rng_seed=rng_seed,
    )
    result = run_annealing(instance, params)
    assert result.stop_reason == "final_temp"
    assert result.cost == expected
    weights = ObjectiveWeights.for_instance(instance)
    assert evaluate(instance, result.solution, weights, check=True) == expected



# The same move budget on the smaller and the larger instance of the
# benchmark's shape (k=5, a=5, seed 3): results, layouts and start times of
# the search as it was before a move could stop on a tail slid in time.
@pytest.mark.parametrize(
    "n_jobs, rng_seed, expected, digest",
    [
        (
            250, 1, CostBreakdown(9317, 220, 1490, 0.8667466666666667),
            "70b5dfa7f94b82ce6cad15c61ce1260809f066bafb6fe8f0cdc8a37a3a4e4de2",
        ),
        (
            250, 2, CostBreakdown(10704, 221, 1024, 0.873511341991342),
            "85c3f0398f536e656bb2c0984af3f656c4ce16483b1e82a81956c91b7126a8bf",
        ),
        (
            1000, 1, CostBreakdown(27575, 973, 3528, 0.9474462337662338),
            "a6abeec0a984ae4291a3065a29954a4331a266ca2e08be4af88adf855c7b61e3",
        ),
        (
            1000, 2, CostBreakdown(29847, 977, 4152, 0.9531265800865801),
            "77a9b69855d7eb671717858754e6ae0a47580b8f2d8c51be998d9f147e2dac8e",
        ),
    ],
    ids=["n250-s1", "n250-s2", "n1000-s1", "n1000-s2"],
)
def test_pinned_results_beyond_benchmark_scale(n_jobs, rng_seed, expected, digest):
    config = GeneratorConfig(n_jobs=n_jobs, n_machines=5, n_attributes=5, seed=3)
    params = AnnealParams(
        final_temp=4e-6,
        cooling_rate=0.2,
        moves_per_level=1000,
        warmup_moves=1000,
        time_limit=120,
        rng_seed=rng_seed,
    )
    result = run_annealing(generate_instance(config), params)
    assert result.stop_reason == "final_temp"
    assert result.cost == expected
    assert schedule_digest(result.solution) == digest


# The criterion-7 protocol on six of its instances (generator seeds
# 30000 + item; items 11 and 18 are left out as slow): default parameters,
# stopping at the oracle optimum. Rows hold one to four batches, so every
# move kind is drawn often, new batches on each eligible machine included.
# Pinned are the final cost, the stop reason and a sha256 of the trace costs.
@functools.cache
def _criterion_7_item(item):
    """The instance and a bound that stops SA at its oracle optimum."""
    instance = generate_instance(tiny_config(6 + item % 4, 30000 + item))
    optimum = exact_solve(instance).cost.objective
    return instance, replace(objective_lb(instance), objective_lb=optimum)


TINY_PINS = [
    (1, 0, (131, 2, 34), "gap", "da869155941ca4fd598ef404613cca54275c0ea053c421b0da9cbb399b0bfc4c"),
    (1, 1, (131, 2, 34), "gap", "5223d9fffc38d9d818334371cee489f4b5dadf91322ac1f834b9c4acc55485ba"),
    (2, 0, (115, 0, 59), "gap", "707cc26115d4ad7f84389a0ddab14ffe1b80992ffa41313b5938f98f37891c9e"),
    (2, 1, (115, 0, 59), "gap", "7bfbbb8f65a5643faf2efd9ccff559292e501bedafce4183ee94491d27a6edb5"),
    (3, 0, (159, 2, 22), "gap", "581f09408853b3263990c660db1f500fb3980a5ba30fc5abbf6726cb6f6aff87"),
    (3, 1, (159, 2, 22), "gap", "29e7af5590d04032388b348e7fc4463fe99f62e0fea72ef43fd1175f9b8d24a7"),
    (7, 0, (149, 1, 50), "gap", "663547367cfed79f374eadb271b22ad7068c7da5e2ac477e63399098b32621dc"),
    (7, 1, (149, 1, 50), "gap", "8c37aed0cbbd4e34fa0fc8566889f3ee22e8c4f4af1a5ca8a2f30ab1e0860aba"),
    (8, 0, (145, 1, 28), "gap", "a997db0e3d6db34cf3807a72bbbaa0ac4e3d5875d045657cef91223a548f8474"),
    (8, 1, (145, 1, 39), "final_temp", "f3e086af8f489c1d64acc0987a62e40ca3b71f59b80648aeb5aee37b5bdff3e4"),
    (9, 0, (90, 0, 54), "gap", "f23f9374deba27512f83d434b630a580f75352db06577fa74f900d35a17967f7"),
    (9, 1, (90, 0, 54), "gap", "62327efb4bb13403d0fe09a7e6ac6af003e441a69886fabf4ec527cc1a925a24"),
]


@pytest.mark.parametrize(
    "item, rng_seed, components, stop_reason, trace_digest",
    TINY_PINS,
    ids=[f"item{item}-s{seed}" for item, seed, *_ in TINY_PINS],
)
def test_pinned_results_at_tiny_scale(item, rng_seed, components, stop_reason, trace_digest):
    instance, stop_at_optimum = _criterion_7_item(item)
    params = AnnealParams(rng_seed=rng_seed, time_limit=30.0, lb_gap_stop=0.0)
    result = run_annealing(instance, params, lb=stop_at_optimum)
    assert (result.cost.proc_time, result.cost.tardy, result.cost.setup_cost) == components
    assert result.stop_reason == stop_reason
    costs = repr([point.cost for point in result.trace])
    assert hashlib.sha256(costs.encode()).hexdigest() == trace_digest


def test_rigid_shift_rejoin_saves_kernel_calls(monkeypatch):
    # Results are bit-identical either way, so only the work shows whether
    # rescheduling stops on a slid tail: rejoining on an unchanged end only
    # made 104,023 Machine.earliest_start calls in this run.
    calls = 0
    kernel = Machine.earliest_start

    def counted(self, lower, setup, proc):
        nonlocal calls
        calls += 1
        return kernel(self, lower, setup, proc)

    monkeypatch.setattr(Machine, "earliest_start", counted)
    instance = generate_instance(GeneratorConfig(n_jobs=500, n_machines=5, n_attributes=5, seed=3))
    params = AnnealParams(
        final_temp=4e-6,
        cooling_rate=0.2,
        moves_per_level=1000,
        warmup_moves=1000,
        time_limit=120,
        rng_seed=2,
    )
    result = run_annealing(instance, params)
    assert result.cost == CostBreakdown(19094, 463, 2172, 0.9099515646258504)
    assert calls <= 50_000


def test_interior_run_slide_saves_kernel_calls(monkeypatch):
    # The same run as above. The old batches between a move's two edit
    # points slide like the tail; sliding only the tail made 40,724
    # Machine.earliest_start calls in this run.
    calls = 0
    kernel = Machine.earliest_start

    def counted(self, lower, setup, proc):
        nonlocal calls
        calls += 1
        return kernel(self, lower, setup, proc)

    monkeypatch.setattr(Machine, "earliest_start", counted)
    instance = generate_instance(GeneratorConfig(n_jobs=500, n_machines=5, n_attributes=5, seed=3))
    params = AnnealParams(
        final_temp=4e-6,
        cooling_rate=0.2,
        moves_per_level=1000,
        warmup_moves=1000,
        time_limit=120,
        rng_seed=2,
    )
    result = run_annealing(instance, params)
    assert result.cost == CostBreakdown(19094, 463, 2172, 0.9099515646258504)
    assert calls <= 20_000


def _rigid_row():
    """One machine, one wide window and five one-job batches, each starting
    right after its predecessor's setup: attributes 1, 1, 2, 2, 1 (setup
    time 5 between attributes), processing times 10-50, jobs 2 and 5 late
    wherever they run."""
    machine = Machine(1, 10, 1, ((0, 1000),))
    attributes, dues = (1, 1, 2, 2, 1), (999, 0, 999, 999, 0)
    jobs = [
        Job(i + 1, attributes[i], 5, 0, dues[i], 10 * (i + 1), 100, frozenset({1}))
        for i in range(5)
    ]
    instance = Instance((machine,), jobs, 2, ((0, 5), (5, 0)), ((0, 3), (3, 0)))
    return instance, [[[1], [2], [3], [4], [5]]]


@pytest.mark.parametrize(
    "move, row, run",
    [
        # the run reaches the row's end but ends before the old last batch
        (ReinsertBatch(0, 4, 0), [[5], [1], [2], [3], [4]], (1, 5, 1)),
        (ReinsertBatch(0, 0, 4), [[2], [3], [4], [5], [1]], (0, 4, -1)),
        # job 2's batch empties; the new batch goes in after job 4's
        (MoveJobNewBatch(2, 0, 3, 0, 1), [[1], [3], [4], [2], [5]], (1, 3, -1)),
    ],
    ids=["last-to-front", "first-to-end", "new-batch-source-empties"],
)
def test_interior_run_slides_on_rigid_row(move, row, run):
    instance, layout = _rigid_row()
    machine = instance.machines[0]
    search = _Search(instance, layout)
    edits, totals = search.evaluate(move)
    edit = edits[0]
    assert edit.row == row and edit.run == run
    first, hi, shift, offset = edit.slid[0]  # the run slid
    assert (hi, shift) == run[1:] and offset != 0
    batches = schedule_machine(instance, machine, row)
    materialized = _materialize(instance, machine, edit)
    assert [state[1] for state in materialized.states[1:]] == [b.end for b in batches]
    assert materialized.cost == edit.cost == totals == machine_cost(instance, machine, batches)
    search.accept(edits, totals)
    assert search.rows == _Search(instance, search.layout).rows


def test_warmup_evaluates_each_distinct_move_once(monkeypatch):
    # final_temp=1.0 lies above any calibrated start temperature, so no
    # cooling level runs and every evaluation belongs to the warm-up
    instance, _ = _criterion_7_item(1)
    drawn, evaluated = [], 0
    draw, evaluate = anneal.sample_move, _Search.evaluate

    def counted_draw(*args):
        drawn.append(draw(*args))
        return drawn[-1]

    def counted_evaluate(self, move):
        nonlocal evaluated
        evaluated += 1
        return evaluate(self, move)

    monkeypatch.setattr(anneal, "sample_move", counted_draw)
    monkeypatch.setattr(_Search, "evaluate", counted_evaluate)
    result = run_annealing(instance, AnnealParams(warmup_moves=1000, final_temp=1.0))
    assert result.stop_reason == "final_temp"
    assert len(drawn) == 1000
    assert evaluated == len(set(drawn)) < 1000


def test_max_moves_caps_the_draws(monkeypatch, example):
    drawn = 0
    draw = anneal.sample_move

    def counted_draw(*args):
        nonlocal drawn
        drawn += 1
        return draw(*args)

    monkeypatch.setattr(anneal, "sample_move", counted_draw)
    params = replace(FAST, cooling_rate=0.9)

    def run(**budget):
        nonlocal drawn
        drawn = 0
        result = run_annealing(example, replace(params, **budget))
        return result, drawn

    free, natural = run()
    assert free.stop_reason == "final_temp"
    # inside the warm-up (100 moves), at its end, at a level's end (60
    # moves each), inside a level, and one move short of the last level's end
    for budget in (1, 37, 100, 160, 251, natural - 1):
        assert budget < natural
        result, moves = run(max_moves=budget)
        assert (result.stop_reason, moves) == ("max_moves", budget)
    for budget in (natural, natural + 1, 10 * natural):
        result, moves = run(max_moves=budget)
        assert moves == natural
        assert result.stop_reason == free.stop_reason
        assert result.cost == free.cost and result.solution == free.solution
        assert [p.cost for p in result.trace] == [p.cost for p in free.trace]
