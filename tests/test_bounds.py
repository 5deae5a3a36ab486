from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from ovensched import (
    Instance,
    Job,
    Machine,
    ObjectiveWeights,
    classify_large_small,
    eligibility_lb,
    exact_solve,
    gac_plus,
    generate_instance,
    objective_lb,
    tardy_lb,
)
from ovensched.bounds import NoFeasiblePlacement, attribute_bounds, setup_cost_lb

from conftest import EXAMPLE_OBJECTIVE_LB, examples, tiny_config


def elig(instance, attribute):
    """The eligibility route on the attribute's small jobs, in id order."""
    small = classify_large_small(instance, attribute)[1]
    return eligibility_lb(instance, [instance.job(j) for j in sorted(small)])


def batch_lb_capacity(instance, large, small):
    """Reference capacity bounds on an attribute's batch count: plain, and
    with the large jobs one batch each. b_best never falls below either."""
    if not large and not small:
        return 0, 0
    cap = instance.max_capacity
    small_total = sum(instance.job(j).size for j in small)
    plain = math.ceil((sum(instance.job(j).size for j in large) + small_total) / cap)
    return plain, len(large) + math.ceil(small_total / cap)


def test_classify_large_small(example):
    large2, small2 = classify_large_small(example, 2)
    assert large2 == frozenset({1, 2, 3, 6})
    assert small2 == frozenset({5, 7, 8})
    large1, small1 = classify_large_small(example, 1)
    assert large1 == frozenset()
    assert small1 == frozenset({4, 9, 10})


def test_lone_job_counts_as_large():
    inst = Instance(
        machines=(Machine(1, 20, 1, ((0, 100),)),),
        jobs=(Job(1, 1, 1, 0, 50, 5, 10, frozenset({1})),),
        attribute_count=1,
        setup_times=((0,),),
        setup_costs=((0,),),
    )
    large, small = classify_large_small(inst, 1)
    assert large == frozenset({1}) and small == frozenset()


def test_smallest_job_pairs_with_the_next_size():
    # capacity 12: the unique smallest job (5) only fits with the next size
    # (9), so it is large; two jobs of the smallest size (4 + 4) pair up
    def classify(sizes):
        jobs = tuple(
            Job(i + 1, 1, size, 0, 50, 5, 10, frozenset({1})) for i, size in enumerate(sizes)
        )
        inst = Instance((Machine(1, 12, 1, ((0, 100),)),), jobs, 1, ((0,),), ((0,),))
        return classify_large_small(inst, 1)

    assert classify([9, 5]) == (frozenset({1, 2}), frozenset())
    assert classify([9, 4, 4]) == (frozenset({1}), frozenset({2, 3}))


def test_batch_lb_capacity(example):
    eq1_a1, eq2_a1 = batch_lb_capacity(example, *classify_large_small(example, 1))
    eq1_a2, eq2_a2 = batch_lb_capacity(example, *classify_large_small(example, 2))
    assert eq1_a1 == 1  # ceil(20 / 20)
    assert eq1_a1 + eq1_a2 == 6
    assert eq2_a2 == 6
    assert eq1_a1 <= eq2_a1 and eq1_a2 <= eq2_a2


def test_batch_lb_capacity_no_jobs():
    inst = Instance(
        machines=(Machine(1, 5, 1, ((0, 10),)),),
        jobs=(),
        attribute_count=1,
        setup_times=((0,),),
        setup_costs=((0,),),
    )
    assert batch_lb_capacity(inst, *classify_large_small(inst, 1)) == (0, 0)


def test_batch_lb_eligibility(example):
    # attribute 1: job 4 forces a batch on machine 1 and job 9 one on
    # machine 2; no spill
    assert elig(example, 1)[0] == 2
    # attribute 2: job 8 forces a batch on machine 1; jobs 5 and 7 exceed
    # its residual room of 7, one spill batch
    assert elig(example, 2)[0] == 2


def test_proc_lb_eligibility(example):
    assert elig(example, 1)[1] == 38  # 19 + 19
    assert elig(example, 2)[1] == 60  # 50 forced + 10 spill
    # no small jobs
    inst = Instance(
        machines=(Machine(1, 5, 1, ((0, 100),)),),
        jobs=(Job(1, 1, 5, 0, 50, 7, 9, frozenset({1})),),
        attribute_count=1,
        setup_times=((0,),),
        setup_costs=((0,),),
    )
    assert elig(inst, 1) == (0, 0)


def test_eligibility_lb_single_spill():
    # all small jobs multi-eligible, total size within the largest capacity
    inst = Instance(
        machines=(Machine(1, 10, 1, ((0, 200),)), Machine(2, 12, 1, ((0, 200),))),
        jobs=(
            Job(1, 1, 3, 0, 100, 5, 10, frozenset({1, 2})),
            Job(2, 1, 4, 0, 100, 5, 10, frozenset({1, 2})),
        ),
        attribute_count=1,
        setup_times=((0,),),
        setup_costs=((0,),),
    )
    assert elig(inst, 1) == (1, 5)


def test_proc_lb_longest_small_job_replacement():
    # job 1 forces a batch on machine 1 and jobs 2 and 3 overflow its room
    # into one spill batch that would run for 7, but some small job needs
    # at least 30: the bound lifts the largest summed term to 30
    inst = Instance(
        machines=(Machine(1, 10, 1, ((0, 500),)), Machine(2, 10, 1, ((0, 500),))),
        jobs=(
            Job(1, 1, 4, 0, 400, 5, 40, frozenset({1})),
            Job(2, 1, 4, 0, 400, 30, 40, frozenset({1, 2})),
            Job(3, 1, 4, 0, 400, 7, 40, frozenset({1, 2})),
        ),
        attribute_count=1,
        setup_times=((0,),),
        setup_costs=((0,),),
    )
    # naive terms are [5, 7]; 7 is replaced by the overall largest 30
    assert elig(inst, 1) == (2, 35)
    # shrink the multi-eligible jobs so they fit the forced leftover: no
    # spill, and the single term 5 is lifted to 30
    jobs = (
        inst.jobs[0],
        Job(2, 1, 3, 0, 400, 30, 40, frozenset({1, 2})),
        Job(3, 1, 3, 0, 400, 7, 40, frozenset({1, 2})),
    )
    inst2 = Instance(inst.machines, jobs, 1, inst.setup_times, inst.setup_costs)
    assert elig(inst2, 1) == (1, 30)


def test_gac_plus_examples():
    # worked example, attribute 2: 11x[50,50], 11x[11,50], 6x[10,50], cap 20
    assert gac_plus([(50, 50, 11), (11, 50, 11), (10, 50, 6)], 20) == (2, 61)
    # attribute 1: 2x[19,19], 4x[19,19], 14x[11,50], cap 20
    assert gac_plus([(19, 19, 2), (19, 19, 4), (11, 50, 14)], 20) == (1, 19)
    # mutually incompatible unit jobs: one batch each
    units = [(1, 1), (3, 3), (5, 5), (7, 7)]
    assert gac_plus(units, 3) == (4, 16)
    assert gac_plus([], 5) == (0, 0)
    with pytest.raises(ValueError):
        gac_plus([(1, 2)], 0)
    with pytest.raises(ValueError):
        gac_plus([(3, 1)], 2)


def test_combine_overall(example):
    report = objective_lb(example)
    assert report.batches_lb == sum(d.b_best for d in report.per_attribute) == 8
    assert report.proc_lb == sum(d.p_best for d in report.per_attribute) == 158
    empty = Instance(example.machines, (), 2, example.setup_times, example.setup_costs)
    report = objective_lb(empty)
    assert (report.batches_lb, report.proc_lb, report.objective_lb) == (0, 0, 0.0)


def test_setup_cost_lb(example):
    bound = setup_cost_lb(example, {1: 2, 2: 6})
    assert bound.before == 60  # 2*6 + 6*8
    assert bound.after == 68  # 3*6 + 5*10
    assert bound.best == 68


def test_setup_cost_lb_degenerate():
    inst = Instance(
        machines=(Machine(1, 5, 1, ((0, 100),)),),
        jobs=(Job(1, 1, 2, 0, 50, 5, 9, frozenset({1})),),
        attribute_count=1,
        setup_times=((0,),),
        setup_costs=((5,),),
    )
    bound = setup_cost_lb(inst, {1: 1})
    assert bound == (5, 5, 5)
    zero = Instance(inst.machines, inst.jobs, 1, inst.setup_times, ((0,),))
    assert setup_cost_lb(zero, {1: 1}).best == 0


def test_tardy_lb(example):
    count, flagged = tardy_lb(example)
    assert count == 7
    assert flagged == frozenset({1, 2, 3, 4, 6, 9, 10})
    assert 5 not in flagged  # completes by 49 on machine 1, due 55
    # the setup-free variant can only be weaker
    weak_count, weak_flagged = tardy_lb(example, include_min_setup=False)
    assert weak_flagged <= flagged
    assert weak_count <= count


def test_tardy_lb_huge_due_never_flagged(example):
    jobs = list(example.jobs)
    jobs[0] = Job(1, 2, 18, 2, 10**9, 11, 11, frozenset({1, 2}))
    inst = Instance(example.machines, jobs, 2, example.setup_times, example.setup_costs)
    _, flagged = tardy_lb(inst)
    assert 1 not in flagged


def test_tardy_lb_no_placement_raises():
    inst = Instance(
        machines=(Machine(1, 5, 1, ((0, 3),)),),  # window too short for min_time 10
        jobs=(Job(1, 1, 2, 0, 50, 10, 20, frozenset({1})),),
        attribute_count=1,
        setup_times=((0,),),
        setup_costs=((0,),),
    )
    with pytest.raises(NoFeasiblePlacement):
        tardy_lb(inst)


def _solo_completion(instance, job, machine, include_min_setup):
    """Earliest end of the job batched alone on the machine, None if it fits nowhere there."""
    if machine.capacity < job.size:
        return None
    st_min = instance.min_setup_time_into(job.attribute) if include_min_setup else 0
    start = machine.earliest_start(job.release, st_min, job.min_time)
    return None if start is None else start + job.min_time


def _reference_tardy_lb(instance, include_min_setup):
    flagged = set()
    for job in instance.jobs:
        ends = [
            _solo_completion(instance, job, instance.machine(m), include_min_setup)
            for m in sorted(job.eligible)
        ]
        if min(end for end in ends if end is not None) > job.due:
            flagged.add(job.id)
    return len(flagged), frozenset(flagged)


# spread: short windows push jobs onto few starts, wide dues make lateness
# depend on where each job can run
@settings(max_examples=examples(150), deadline=None)
@given(
    st.integers(1, 14),
    st.integers(0, 10**6),
    st.sampled_from(["tiny", "spread"]),
    st.integers(1, 4),
    st.integers(1, 3),
)
def test_tardy_lb_matches_solo_reference(n_jobs, seed, kind, n_machines, n_attributes):
    if kind == "tiny":
        config = tiny_config(n_jobs, seed)
    else:
        config = tiny_config(
            n_jobs, seed, n_machines=n_machines, n_attributes=n_attributes,
            window_count_range=(1, 4), window_length_range=(0, 40),
            due_slack_range=(0, 300), setup_time_range=(0, 20),
        )
    inst = generate_instance(config)
    for include_min_setup in (True, False):
        expected = _reference_tardy_lb(inst, include_min_setup)
        assert tardy_lb(inst, include_min_setup) == expected


def test_objective_lb_golden(example):
    report = objective_lb(example)
    assert report.batches_lb == 8
    assert report.proc_lb == 158
    assert report.setup_lb == 68
    assert (report.setup_lb_before, report.setup_lb_after) == (60, 68)
    assert report.tardy_lb == 7
    assert report.objective_lb == pytest.approx(EXAMPLE_OBJECTIVE_LB, abs=1e-12)
    assert report.wall_time >= 0


def test_objective_lb_single_job():
    inst = Instance(
        machines=(Machine(1, 5, 1, ((0, 100),)),),
        jobs=(Job(1, 1, 2, 0, 90, 7, 9, frozenset({1})),),
        attribute_count=1,
        setup_times=((0,),),
        setup_costs=((0,),),
    )
    report = objective_lb(inst)
    assert report.batches_lb == 1
    assert report.proc_lb == 7
    assert report.tardy_lb == 0
    w_sum = 4 + 100 + 1
    assert report.objective_lb == pytest.approx((4 * 7 / 7) / w_sum)


def test_dominance_chain_on_random_instances():
    for seed in range(30):
        inst = generate_instance(tiny_config(9, seed + 1000))
        for attribute in range(1, inst.attribute_count + 1):
            detail = attribute_bounds(inst, attribute)
            eq1, eq2 = batch_lb_capacity(inst, *classify_large_small(inst, attribute))
            assert eq1 <= eq2
            assert eq2 <= len(detail.large_jobs) + detail.b_elig_small
            assert eq1 <= len(detail.large_jobs) + detail.b_gac_small
            assert detail.b_best >= eq2
            assert detail.p_best >= 0


def test_gac_plus_tie_break_is_input_order():
    # equal min_times: the earlier entry labels the batch and is filled first
    a = gac_plus([(5, 5, 2), (5, 9, 2)], 2)
    b = gac_plus([(5, 9, 2), (5, 5, 2)], 2)
    assert a == b == (2, 10)


def component_optimum(monkeypatch, instance, weight):
    """The oracle's optimum for one objective component alone: the other
    two of ObjectiveWeights' w_proc, w_tardy and w_setup are set to 0."""
    with monkeypatch.context() as patch:
        for name in ("w_proc", "w_tardy", "w_setup"):
            if name != weight:
                patch.setattr(ObjectiveWeights, name, 0)
        return exact_solve(instance, prune_with_lb=False)


def test_component_bounds_below_component_minima(monkeypatch):
    # criterion 7's 20 instances; each bound against the least value its
    # component can take, not against that component of the weighted optimum
    for i in range(20):
        instance = generate_instance(tiny_config(6 + i % 4, 30000 + i))
        report = objective_lb(instance)
        proc = component_optimum(monkeypatch, instance, "w_proc").cost
        tardy = component_optimum(monkeypatch, instance, "w_tardy")
        setup = component_optimum(monkeypatch, instance, "w_setup").cost
        assert report.proc_lb <= proc.proc_time
        assert report.tardy_lb <= tardy.cost.tardy
        assert report.setup_lb <= setup.setup_cost
        late = {
            j
            for row in tardy.solution.batches
            for batch in row
            for j in batch.jobs
            if batch.end > instance.job(j).due
        }
        assert report.tardy_jobs <= late
