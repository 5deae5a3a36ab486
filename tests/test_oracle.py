from __future__ import annotations

import itertools
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from ovensched import (
    GeneratorConfig,
    Instance,
    Job,
    Machine,
    ObjectiveWeights,
    check_feasibility,
    exact_solve,
    gac_plus,
    generate_instance,
    objective_lb,
)
from ovensched.oracle import (
    MAX_JOBS_CEILING,
    BudgetExceeded,
    Infeasible,
    OracleLimits,
    _make_block,
    _MachineOrderSearch,
)
from ovensched.schedule import InfeasibleBatch, machine_cost, schedule_machine

from clique_cover import min_clique_cover
from conftest import (
    EXAMPLE_OBJECTIVE,
    EXAMPLE_OPTIMAL,
    examples,
    schedule_digest,
    tiny_config,
)


def test_min_clique_cover_worked_example():
    assert min_clique_cover([(50, 50, 11), (11, 50, 11), (10, 50, 6)], 20) == (2, 61)


def test_min_clique_cover_disjoint_intervals():
    units = [(1, 2), (4, 5), (7, 8), (10, 11)]
    assert min_clique_cover(units, 3) == (4, 22)


def test_min_clique_cover_matches_gac_plus_randomly():
    rng = random.Random(21)
    for _ in range(120):
        n = rng.randint(1, 7)
        units = []
        for _ in range(n):
            lo = rng.randint(1, 10)
            units.append((lo, rng.randint(lo, 10)))
        capacity = rng.randint(1, 4)
        assert min_clique_cover(units, capacity) == gac_plus([(*unit, 1) for unit in units], capacity)


def test_min_clique_cover_validation():
    with pytest.raises(ValueError):
        min_clique_cover([(1, 2)], 0)
    with pytest.raises(ValueError):
        min_clique_cover([(i, i) for i in range(20)], 2)


def test_exact_solve_golden(example):
    result = exact_solve(example, limits=OracleLimits(max_jobs=10))
    # the order search's dominance cut keeps this at 25,669 nodes; the
    # search without it took 281,411
    assert result.nodes <= 40_000
    cost = result.cost
    assert (cost.proc_time, cost.tardy, cost.setup_cost) == EXAMPLE_OPTIMAL
    assert cost.objective == pytest.approx(EXAMPLE_OBJECTIVE, abs=1e-12)
    assert check_feasibility(example, result.solution) == []
    assert cost.objective >= objective_lb(example).objective_lb


def _reference_order(instance, machine, blocks):
    """Least (score, order) over every order of the blocks on the machine,
    each order scheduled and priced in full: (score, order, tardy, setup),
    or None when no order fits."""
    weights = ObjectiveWeights.for_instance(instance)
    best = None
    for order in itertools.permutations(sorted(block.summary.jobs for block in blocks)):
        try:
            batches = schedule_machine(instance, machine, order)
        except InfeasibleBatch:
            continue
        _, tardy, setup = machine_cost(instance, machine, batches)
        candidate = (weights.score(0, tardy, setup), order, tardy, setup)
        if best is None or candidate[:2] < best[:2]:
            best = candidate
    return best


# free setups and wide due-date slack make many orders score the same, so
# the tie-break (the lexicographically first least order) is exercised;
# in the explicit example the least order passes through a prefix that an
# earlier prefix over the same blocks, with another last attribute, ends no
# later than and scores no more than
@settings(max_examples=examples(100), deadline=None)
@given(
    st.integers(0, 10**6),
    st.integers(1, 3),
    st.booleans(),
    st.booleans(),
    st.lists(st.integers(0, 3), min_size=8, max_size=8),
    st.integers(1, 6),
)
@example(3, 3, False, False, [0] * 8, 3)
def test_best_order_matches_every_permutation(
    seed, n_attributes, free_setups, slack, labels, count
):
    overrides = {}
    if free_setups:
        overrides["setup_cost_range"] = (0, 0)
    if slack:
        overrides["due_slack_range"] = (300, 400)
    instance = generate_instance(tiny_config(8, seed, n_attributes=n_attributes, **overrides))
    groups: dict[tuple[int, int], list[int]] = {}
    for job, label in zip(instance.jobs, labels):
        groups.setdefault((job.attribute, label), []).append(job.id)
    search = _MachineOrderSearch(instance, ObjectiveWeights.for_instance(instance), 10**6)
    for machine in instance.machines:
        # jobs of one attribute and label form a block; a group that does
        # not fit on the machine falls apart into the members that do
        blocks = []
        for ids in groups.values():
            block = _make_block(instance, tuple(ids))
            if machine.id in block.machines:
                blocks.append(block)
            else:
                singles = (_make_block(instance, (job_id,)) for job_id in ids)
                blocks.extend(b for b in singles if machine.id in b.machines)
        # every subset of the drawn set, each in reverse canonical order
        for size in range(1, min(count, len(blocks)) + 1):
            for subset in itertools.combinations(blocks[:count], size):
                expected = _reference_order(instance, machine, subset)
                if expected is not None:
                    expected = expected[:2]  # (score, order)
                assert search.best_order(machine, subset[::-1]) == expected


def test_exact_solve_single_job():
    inst = Instance(
        machines=(Machine(1, 10, 1, ((5, 100),)),),
        jobs=(Job(1, 1, 4, 2, 60, 7, 9, frozenset({1})),),
        attribute_count=1,
        setup_times=((2,),),
        setup_costs=((3,),),
    )
    result = exact_solve(inst)
    batch = result.solution.batches[0][0]
    assert batch.start == 7  # window 5 plus setup 2
    assert result.cost.setup_cost == 3
    assert result.cost.tardy == 0


def test_pruning_neutrality_small():
    for seed in range(10):
        inst = generate_instance(tiny_config(6, 5000 + seed))
        pruned = exact_solve(inst, prune_with_lb=True)
        unpruned = exact_solve(inst, prune_with_lb=False)
        assert pruned.cost == unpruned.cost
        assert pruned.solution == unpruned.solution
        assert pruned.nodes <= unpruned.nodes


def test_ground_truth_at_ten_jobs():
    # 250,835 nodes pruned and 272,388 unpruned; the order search without
    # its dominance cut took 729,546
    instance = generate_instance(GeneratorConfig(n_jobs=10, n_machines=2, n_attributes=2, seed=5))
    limits = OracleLimits(max_jobs=10, node_budget=400_000)
    pruned = exact_solve(instance, limits=limits, prune_with_lb=True)
    unpruned = exact_solve(instance, limits=limits, prune_with_lb=False)
    assert pruned.cost == unpruned.cost
    assert pruned.solution == unpruned.solution
    assert check_feasibility(instance, pruned.solution) == []
    assert pruned.cost.objective >= objective_lb(instance).objective_lb


def test_permutation_invariance():
    base = generate_instance(tiny_config(6, 77))
    perm = [3, 1, 6, 2, 5, 4]  # new id of old job i+1
    relabeled_jobs = sorted(
        (
            Job(perm[i], j.attribute, j.size, j.release, j.due, j.min_time, j.max_time, j.eligible)
            for i, j in enumerate(base.jobs)
        ),
        key=lambda j: j.id,
    )
    relabeled = Instance(
        base.machines, tuple(relabeled_jobs), base.attribute_count,
        base.setup_times, base.setup_costs,
    )
    a = exact_solve(base)
    b = exact_solve(relabeled)
    assert a.cost.objective == pytest.approx(b.cost.objective, abs=1e-12)
    assert (a.cost.proc_time, a.cost.tardy, a.cost.setup_cost) == (
        b.cost.proc_time, b.cost.tardy, b.cost.setup_cost,
    )


def test_oracle_respects_limits(example):
    with pytest.raises(BudgetExceeded):
        exact_solve(example)  # 10 jobs > default max_jobs 9
    with pytest.raises(BudgetExceeded):
        exact_solve(example, limits=OracleLimits(max_jobs=10, node_budget=50))


def test_max_jobs_above_the_ceiling_is_rejected():
    # the search recurses once per job before the node budget can stop it,
    # so the ceiling keeps it inside Python's recursion limit
    with pytest.raises(ValueError, match="max_jobs must be at most 64"):
        OracleLimits(max_jobs=65)
    config = GeneratorConfig(
        n_jobs=MAX_JOBS_CEILING, n_attributes=1, size_range=(1, 1), capacity_range=(100, 100)
    )
    with pytest.raises(BudgetExceeded, match="node budget 100"):
        exact_solve(generate_instance(config), limits=OracleLimits(MAX_JOBS_CEILING, 100))


def test_node_budget_bounds_the_batching_enumeration():
    # ten unit jobs that fit one batch have Bell(10) = 115975 batchings;
    # the budget must stop the search long before they could all be built
    inst = Instance(
        machines=(Machine(1, 10, 1, ((0, 1000),)),),
        jobs=tuple(Job(i, 1, 1, 0, 1000, 1, 1, frozenset({1})) for i in range(1, 11)),
        attribute_count=1,
        setup_times=((0,),),
        setup_costs=((0,),),
    )
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded):
            exact_solve(inst, limits=OracleLimits(max_jobs=10, node_budget=100))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_oracle_infeasible():
    # two jobs forced on one machine whose lone window only fits one of them
    inst = Instance(
        machines=(Machine(1, 4, 1, ((0, 15),)),),
        jobs=(
            Job(1, 1, 3, 0, 99, 10, 10, frozenset({1})),
            Job(2, 1, 3, 0, 99, 10, 10, frozenset({1})),
        ),
        attribute_count=1,
        setup_times=((0,),),
        setup_costs=((0,),),
    )
    with pytest.raises(Infeasible):
        exact_solve(inst)


def test_monotonicity_of_cover_under_removal():
    rng = random.Random(33)
    for _ in range(40):
        n = rng.randint(2, 7)
        units = []
        for _ in range(n):
            lo = rng.randint(1, 10)
            units.append((lo, rng.randint(lo, 10)))
        capacity = rng.randint(1, 4)
        count, proc = min_clique_cover(units, capacity)
        drop = rng.randrange(n)
        sub_count, sub_proc = min_clique_cover(units[:drop] + units[drop + 1 :], capacity)
        assert sub_count <= count
        assert sub_proc <= proc


# The 20 instances of acceptance criterion 7: cost, node counts (pruned and
# unpruned, with the order search's dominance cut) and the optimum's layout
# and start times, as the search found them when each block kept its own
# copy of the batch rules.
@pytest.mark.parametrize(
    "index, components, pruned_nodes, unpruned_nodes, digest",
    [
        (0, (74, 0, 2), 32, 138,
         "0aa57ae7a711d1b96eed0be957fe53ad256051b7a0ecc4662d233c9b1e56a326"),
        (1, (131, 2, 34), 7210, 7210,
         "5c3fd8e2fd283f4a3c70f5f9402f7a5235f005dab5dceb62ef3c8a9943131ea7"),
        (2, (115, 0, 59), 2277, 10605,
         "fda79d673980dab5a837b4b8e9ac21ea214a421b4a789d0ca8120f19c4657ce5"),
        (3, (159, 2, 22), 704, 704,
         "a8659638128bdd58d396dc2ed86b0169a5c6bc698f5f4920fa1a3fa829c080ee"),
        (4, (92, 1, 36), 891, 891,
         "2dd0d377558de2bf49fc489e55c209fa74a48052998751f0daffb3cf30f292bd"),
        (5, (122, 0, 11), 2679, 2679,
         "56e0b9de82559081bb9500dd60e5c17925664fd69dbe3619367a88b1526947b7"),
        (6, (132, 1, 54), 13974, 13974,
         "3740d29fdddec9fdccad161abd499a194bdbf6dfb510d19abf4fc8c4d8bba3d9"),
        (7, (149, 1, 50), 21919, 21919,
         "69fed35ab8f332b0e6415d5c033b2309d37fe5ab716f9f0e792836aa19d242a9"),
        (8, (145, 1, 28), 956, 956,
         "cb44bbe3b87d9afdf71972f7563e956ef7576697cd21c9476d10034709265860"),
        (9, (90, 0, 54), 2181, 8213,
         "8f35c8ac02b674377d748f773a275178483e11842b60db779ea8f4d572401667"),
        (10, (148, 3, 61), 5729, 5729,
         "dec592f8e63a0fc3d9f140d7ee9bd22a4de422e7a386fa9a59e25b22bc37e336"),
        (11, (130, 1, 31), 62073, 62073,
         "2a464fc61e330ecc4b3d410c7bec398ab4b4d9f84193c002ad5e5d8b10f6c779"),
        (12, (105, 2, 16), 241, 241,
         "f033bdd2f5bb0b6898e5724840445e0d414686bde84dd5a6c1889e09c6ca6fc0"),
        (13, (103, 0, 68), 7121, 7121,
         "a561ef0f0054ec0a127f9af0610a905e45a157e2b48b0fab0d8c2df0ef615945"),
        (14, (129, 2, 34), 10516, 10516,
         "a7914b9353f45df7d1a99a39a8d60557c470f7149e8414874cfaf84e3b6d4584"),
        (15, (165, 2, 70), 1557, 1557,
         "7bc5e5f6d6845cce0c23186ad065258e9c873575e784e46eb392538cc1176eeb"),
        (16, (111, 2, 20), 1004, 1004,
         "a76634068d1170a6847f43da35ae9cf841c44896302d76f9c72baef7ded2674d"),
        (17, (115, 0, 37), 3302, 3302,
         "98788be9a66601ea1e84bc35ec7390942b344607e16f5e1371ae600c3bc5852b"),
        (18, (158, 2, 29), 24082, 24082,
         "0e6a16abda5f6c10e474a0fe13650c660d198e80d2ff40fd5288aae8e5cfcb58"),
        (19, (163, 2, 61), 16883, 16883,
         "f65bc2dc1491ba5b5965ecec40361afb78090617b4b3702b2c4d1454774afa99"),
    ],
    ids=[f"item{i}" for i in range(20)],
)
def test_pinned_optima(index, components, pruned_nodes, unpruned_nodes, digest):
    instance = generate_instance(tiny_config(6 + index % 4, 30000 + index))
    for prune, nodes in ((True, pruned_nodes), (False, unpruned_nodes)):
        result = exact_solve(instance, prune_with_lb=prune)
        cost = result.cost
        assert (cost.proc_time, cost.tardy, cost.setup_cost) == components
        assert result.nodes == nodes
        assert schedule_digest(result.solution) == digest


# Three machines and three attributes, so blocks of three attributes
# interleave in the batching order: cost, node counts (pruned and unpruned)
# and the optimum's layout and start times.
@pytest.mark.parametrize(
    "n, seed, components, pruned_nodes, unpruned_nodes, digest",
    [
        (6, 40000, (138, 0, 35), 521, 521,
         "e556e8ed7c28b35e579f98428acf371a171487c6c6fa5efec55a81890b6dc4bd"),
        (6, 40001, (83, 1, 20), 120, 120,
         "7d8d0ee33b798b7625bb017ac33824038f8a82e22d5e563c1db1fb24b70cb59d"),
        (6, 40002, (51, 0, 16), 44, 3496,
         "551fb408f23b44276bd15ac8120dd46a1f196aa2185e94abce9c051765ed846c"),
        (7, 40000, (152, 0, 36), 984, 984,
         "3d2aabeffd425295ea9a400365fcd489543d68ef86f59e0a373bee645927b509"),
        (7, 40001, (100, 0, 36), 182, 182,
         "01d885465584c0877f8ea552dcc1308e8b337bb59da7ace84bb815755806112b"),
        (7, 40002, (63, 0, 26), 219, 13013,
         "a34bd22aa52b2f5e7676c6c9cc5ce0f6d78d1aeffb57572774e2cc96e788c5dd"),
        (8, 40000, (181, 0, 46), 4381, 4381,
         "3a60fc75e6b0fb019b0704ba5b4dcdb7191ac2df0281920cf49411c0a6e4cd51"),
        (8, 40001, (130, 0, 38), 726, 726,
         "c2e224fdcd7438cc6a3a6d041e23a81ea6dad2acf4dedc96bc9a6eba4759fa4d"),
        (8, 40002, (74, 0, 21), 324, 34294,
         "a19260ed2e0e3ae7e70b4ab4c3d67efcc516eb27338232edfe1413316d3c57f4"),
    ],
    ids=[f"item{i}" for i in range(20, 29)],
)
def test_pinned_optima_three_attributes(
    n, seed, components, pruned_nodes, unpruned_nodes, digest
):
    instance = generate_instance(tiny_config(n, seed, n_machines=3, n_attributes=3))
    for prune, nodes in ((True, pruned_nodes), (False, unpruned_nodes)):
        result = exact_solve(instance, prune_with_lb=prune)
        cost = result.cost
        assert (cost.proc_time, cost.tardy, cost.setup_cost) == components
        assert result.nodes == nodes
        assert schedule_digest(result.solution) == digest
