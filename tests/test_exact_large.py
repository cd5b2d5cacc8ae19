import random
from collections import Counter

import pytest

from eqclus.assign import assign_to_medians
from eqclus.core import (
    Median,
    clustering_cost,
    exact_zero,
    extract_full_blocks,
    identical_groups,
    make_instance,
)
from eqclus.exact_large import solve_large
from eqclus.generators import gen_random
from eqclus.oracle import brute_force_opt


def test_all_identical_points_zero_cost():
    inst = make_instance([(3, 3)] * 8, p=0, k=2, B=0)
    clustering, cost = solve_large(inst)
    assert cost.exact == 0
    clustering.validate_equal(inst.ids(), inst.k)
    assert clustering_cost(inst, clustering).exact == 0


def test_hand_trace_yes_instance():
    # s = 5 = 4B + 1; candidate centers are the values 0 and 5
    inst = make_instance([(0,)] * 5 + [(5,)] * 4 + [(6,)], p=1, k=2, B=1)
    clustering, cost = solve_large(inst)
    assert cost.exact == 1
    _, opt = brute_force_opt(inst)
    assert opt.exact == 1
    assert clustering_cost(inst, clustering).exact == 1


def test_hand_trace_no_instance_three_candidates():
    inst = make_instance([(0,)] * 5 + [(5,)] * 2 + [(9,)] * 2 + [(17,)], p=1, k=2, B=1)
    assert solve_large(inst) is None
    _, opt = brute_force_opt(inst)
    assert opt.exact > 1


def test_hand_trace_no_instance_point_beyond_budget_of_every_candidate():
    # the block of zeros is removed; the lone 3 is 7 away from the only candidate 10
    inst = make_instance([(0,)] * 5 + [(10,)] * 4 + [(3,)], p=1, k=2, B=1)
    assert solve_large(inst) is None
    _, opt = brute_force_opt(inst)
    assert opt.exact > 1


def test_hand_trace_no_instance_pruned_flow_infeasible():
    # both 1 and -1 lie within B only of the candidate 0, which can take one of them
    inst = make_instance([(0,)] * 4 + [(1,), (-1,)] + [(10,)] * 4, p=1, k=2, B=1)
    assert solve_large(inst) is None
    _, opt = brute_force_opt(inst)
    assert opt.exact > 1


def test_precondition_small_clusters_rejected():
    inst = make_instance([(0,)] * 4, p=1, k=2, B=1)  # s = 2 < 5
    with pytest.raises(ValueError):
        solve_large(inst)


def test_euclidean_norm_supported():
    inst = make_instance([(0,)] * 5 + [(5,)] * 4 + [(6,)], p=2, k=2, B=1)
    clustering, cost = solve_large(inst)
    assert cost.exact is None
    assert cost.amount == pytest.approx(1.0)
    clustering.validate_equal(inst.ids(), inst.k)


def test_budget_zero_requires_k_distinct_values():
    # B = 0: every distinct value becomes a candidate center
    inst = make_instance([(0,)] * 3 + [(4,)] * 3, p=1, k=2, B=0)
    clustering, cost = solve_large(inst)
    assert cost.exact == 0
    inst_bad = make_instance([(0,)] * 3 + [(4,)] * 2 + [(5,)], p=1, k=2, B=0)
    assert solve_large(inst_bad) is None


@pytest.mark.parametrize("p", [0, 1])
def test_agrees_with_exhaustive_search(p):
    params = [(6, 3, 0), (8, 4, 0), (12, 6, 0), (10, 2, 1), (12, 2, 1),
              (5, 1, 1), (9, 1, 2), (12, 1, 2)]
    rng = random.Random(999 + p)
    yes = no = 0
    for trial in range(60):
        n, k, B = params[trial % len(params)]
        bound = rng.randint(0, 2)
        inst = gen_random(n=n, k=k, d=rng.randint(1, 2), coord_bound=bound,
                          p=p, B=B, seed=rng.randrange(10**6))
        assert inst.s >= 4 * B + 1
        got = solve_large(inst)
        _, opt = brute_force_opt(inst)
        if got is None:
            no += 1
            assert opt.exact > B
        else:
            yes += 1
            assert opt.exact <= B
            assert got[1].exact == opt.exact
            got[0].validate_equal(inst.ids(), inst.k)
            assert clustering_cost(inst, got[0]).exact == opt.exact
    assert yes and no  # both verdicts must actually occur


def test_solution_clusters_have_large_identical_cores():
    # every cluster of a within-budget solution keeps at least s - 2B twins
    rng = random.Random(4242)
    seen = 0
    for trial in range(40):
        inst = gen_random(n=10, k=2, d=1, coord_bound=1, p=1, B=1,
                          seed=rng.randrange(10**6))
        got = solve_large(inst)
        if got is None:
            continue
        seen += 1
        clustering, cost = got
        assert cost.leq(inst.B)
        need = inst.s - 2 * inst.B
        for members in clustering.clusters():
            counts = Counter(inst.by_id[i].coords for i in members)
            assert max(counts.values()) >= need
    assert seen


def dense_solve(inst):
    """solve_large's answer from the dense assignment: every point may go to every candidate."""
    blocks, rest = extract_full_blocks(inst)
    if rest is None:
        return exact_zero(inst.p)
    candidates = [Median.from_point(grp[0]) for grp in identical_groups(rest.points)
                  if len(grp) >= inst.B + 1]
    if len(candidates) != rest.k:
        return None
    _, cost = assign_to_medians(rest, candidates)
    return cost if cost.leq(inst.B) else None


def planted_near(rng, p):
    # k centers 2 apart, each repeated enough to be a candidate, plus points
    # moved by up to B + 1 per coordinate: they lie within B of several
    # candidates (ties) or of none
    B = rng.randint(1, 2)
    k, d = rng.randint(1, 4), rng.randint(1, 2)
    s = 4 * B + 1 + rng.randint(0, 2)
    rows = []
    for c in range(k):
        center = tuple(2 * c + rng.randint(0, 1) for _ in range(d))
        moved = rng.randint(0, B + 1)
        rows += [center] * (s - moved)
        rows += [tuple(x + rng.randint(-B - 1, B + 1) for x in center) for _ in range(moved)]
    rng.shuffle(rows)
    return make_instance(rows, p=p, k=k, B=B)


@pytest.mark.parametrize("p", [0, 1, 2])
def test_pruned_assignment_matches_dense(p):
    rng = random.Random(7000 + p)
    verdicts = Counter()
    for _ in range(150):
        inst = planted_near(rng, p)
        got = solve_large(inst)
        want = dense_solve(inst)
        verdicts[got is None] += 1
        assert (got is None) == (want is None)
        if got is None:
            continue
        got[0].validate_equal(inst.ids(), inst.k)
        if p <= 1:
            assert got[1].exact == want.exact
        else:
            assert got[1].amount == pytest.approx(want.amount)
    assert verdicts[True] >= 20 and verdicts[False] >= 20
