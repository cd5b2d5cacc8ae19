import io
import json
import random

import pytest

from eqclus.core import (
    Clustering,
    InvalidClusteringError,
    clustering_cost,
    extract_full_blocks,
    make_instance,
    truncated_cost,
)
from eqclus.generators import gen_random
from eqclus.kernel import (
    BRANCH_EMPTY_AFTER_GREEDY,
    BRANCH_GENERIC,
    BRANCH_KPRIME_TOO_BIG,
    BRANCH_LARGE_NO,
    BRANCH_LARGE_YES,
    exact_kernelize,
    lift_solution,
    load_context,
    lossy_kernelize,
    save_context,
)
from eqclus.oracle import brute_force_opt
from eqclus.verify import coordinate_budget_exponent


def lifted_optimal(inst):
    kern, ctx = lossy_kernelize(inst)
    kernel_best, _ = brute_force_opt(kern)
    return lift_solution(ctx, kernel_best), ctx


# ---------------------------------------------------------------------------
# branches

def test_identical_points_small_regime_empty_after_greedy():
    inst = make_instance([(4, 4)] * 6, p=1, k=3, B=1)  # s = 2 <= 4B
    kern, ctx = lossy_kernelize(inst)
    assert ctx.branch == BRANCH_EMPTY_AFTER_GREEDY
    lifted = lift_solution(ctx, None)
    lifted.validate_equal(inst.ids(), inst.k)
    assert clustering_cost(inst, lifted).exact == 0


def test_large_regime_yes_branch_stashes_optimum():
    inst = make_instance([(0,)] * 5 + [(5,)] * 4 + [(6,)], p=1, k=2, B=1)
    kern, ctx = lossy_kernelize(inst)
    assert ctx.branch == BRANCH_LARGE_YES
    assert kern.n == 1 and kern.k == 1 and kern.B == 0
    lifted = lift_solution(ctx, brute_force_opt(kern)[0])
    assert clustering_cost(inst, lifted).exact == brute_force_opt(inst)[1].exact == 1


def test_large_regime_no_branch_emits_trivial_no_instance():
    inst = make_instance([(0,)] * 5 + [(5,)] * 2 + [(9,)] * 2 + [(17,)], p=1, k=2, B=1)
    kern, ctx = lossy_kernelize(inst)
    assert ctx.branch == BRANCH_LARGE_NO
    assert {pt.coords for pt in kern.points} == {(0,), (1,)}
    assert kern.k == 1 and kern.B == 0
    assert brute_force_opt(kern)[1].exact > kern.B
    lifted = lift_solution(ctx, None)
    lifted.validate_equal(inst.ids(), inst.k)


def test_small_regime_too_many_surviving_clusters_is_a_no():
    inst = make_instance([(0,), (1,), (10,), (11,), (20,), (21,)], p=1, k=3, B=1)
    kern, ctx = lossy_kernelize(inst)
    assert ctx.branch == BRANCH_KPRIME_TOO_BIG
    _, opt = brute_force_opt(inst)
    assert opt.exact == 3 > inst.B


def test_generic_branch_hand_trace():
    inst = make_instance([(0,)] * 4 + [(9,), (9,), (9,), (10,)] + [(20,), (20,), (20,), (23,)],
                         p=1, k=3, B=4)
    kern, ctx = lossy_kernelize(inst)
    assert ctx.branch == BRANCH_GENERIC
    assert kern.n == 8 and kern.k == 2 and kern.B == 8
    assert ctx.blocks is not None and len(ctx.blocks) == 1
    lifted, _ = lifted_optimal(inst)
    lifted.validate_equal(inst.ids(), inst.k)
    _, opt = brute_force_opt(inst)
    assert truncated_cost(inst, lifted).exact <= 2 * min(opt.exact, inst.B + 1)


def test_context_derives_the_generic_kernels_ids():
    # the kernel keeps the original's points less the blocks, whatever gaps the ids have
    rng = random.Random(4242)
    seen = 0
    for _ in range(120):
        n, k = rng.choice([(8, 4), (12, 6), (12, 4), (12, 3), (8, 2)])
        B = rng.randint(1, 3)
        if n // k > 4 * B:
            continue
        rows = [[rng.randint(0, rng.randint(1, 3)) for _ in range(2)] for _ in range(n)]
        ids = None if rng.random() < 0.3 else sorted(rng.sample(range(3 * n), n))
        inst = make_instance(rows, p=rng.choice([0, 1]), k=k, B=B, ids=ids)
        kern, ctx = lossy_kernelize(inst)
        if ctx.branch != BRANCH_GENERIC:
            continue
        seen += 1
        assert kern.ids() == ctx.kernel_ids()
        assert kern.k == ctx.k - len(ctx.blocks)
    assert seen >= 20


def test_kernel_size_bounds_on_generic_branch():
    rng = random.Random(2024)
    seen = 0
    for _ in range(80):
        n, k = rng.choice([(8, 4), (12, 6), (12, 4), (12, 3), (8, 2)])
        B = rng.randint(1, 3)
        if n // k > 4 * B:
            continue
        inst = gen_random(n=n, k=k, d=rng.randint(1, 2), coord_bound=rng.randint(1, 4),
                          p=rng.choice([0, 1]), B=B, seed=rng.randrange(10**6))
        kern, ctx = lossy_kernelize(inst)
        if ctx.branch != BRANCH_GENERIC:
            continue
        seen += 1
        b2 = 2 * B
        assert kern.n <= 8 * B * B
        assert kern.k <= b2
        assert kern.B == b2
        assert kern.dim <= kern.k * coordinate_budget_exponent(kern.p, b2) * (2 * b2 + 1) + 1
        worst = max(abs(c) for pt in kern.points for c in pt.coords)
        assert worst <= max(b2 * (kern.k * (2 * b2 + 1) - 1), (kern.k - 1) * (b2 + 1))
    assert seen >= 10


@pytest.mark.parametrize("p", [0, 1])
def test_lifted_optimum_is_within_factor_two(p):
    rng = random.Random(31337 + p)
    checked = 0
    for _ in range(60):
        n, k = rng.choice([(8, 2), (8, 4), (12, 3), (12, 6), (6, 3), (12, 2)])
        B = rng.randint(1, 3)
        inst = gen_random(n=n, k=k, d=rng.randint(1, 2), coord_bound=rng.randint(1, 4),
                          p=p, B=B, seed=rng.randrange(10**6))
        lifted, ctx = lifted_optimal(inst)
        lifted.validate_equal(inst.ids(), inst.k)
        _, opt = brute_force_opt(inst)
        opt_trunc = min(opt.exact, B + 1)
        lift_trunc = truncated_cost(inst, lifted).exact
        assert opt_trunc <= lift_trunc <= 2 * opt_trunc
        checked += 1
    assert checked == 60


def test_lift_preserves_ratio_for_suboptimal_kernel_solutions():
    # a c-approximate kernel clustering must lift to a 2c-approximate one,
    # both ratios in truncated costs with the 0-optimum counting as ratio 1
    from eqclus.oracle import enumerate_equal_partitions

    rng = random.Random(907)
    checked = 0
    while checked < 12:
        n, k = rng.choice([(8, 2), (12, 3), (8, 4)])
        B = rng.randint(1, 2)
        inst = gen_random(n=n, k=k, d=rng.randint(1, 2), coord_bound=rng.randint(1, 3),
                          p=rng.choice([0, 1]), B=B, seed=rng.randrange(10**6))
        kern, ctx = lossy_kernelize(inst)
        if ctx.branch != BRANCH_GENERIC:
            continue
        checked += 1
        _, opt = brute_force_opt(inst)
        opt_tr = min(opt.exact, inst.B + 1)
        _, kopt = brute_force_opt(kern)
        kopt_tr = min(kopt.exact, kern.B + 1)
        kernel_ids = sorted(kpt.id for kpt in kern.points)
        for idx, parts in enumerate(enumerate_equal_partitions(kern.n, kern.k)):
            if idx % 7:  # a spread of solutions, not just the optimum
                continue
            sol = Clustering.from_clusters([[kernel_ids[i - 1] for i in part]
                                            for part in parts])
            sol_tr = truncated_cost(kern, sol).exact
            lifted = lift_solution(ctx, sol)
            lift_tr = truncated_cost(inst, lifted).exact
            # lift_tr/opt_tr <= 2 * sol_tr/kopt_tr, cross-multiplied exactly
            if opt_tr == 0:
                assert kopt_tr <= 2 * sol_tr or sol_tr == kopt_tr == 0
            elif kopt_tr == 0:
                assert lift_tr <= 2 * opt_tr
            else:
                assert lift_tr * kopt_tr <= 2 * sol_tr * opt_tr


def test_removing_full_blocks_at_most_doubles_the_optimum():
    rng = random.Random(5150)
    seen = 0
    for _ in range(80):
        # force duplicated values so full blocks actually occur
        n, k = rng.choice([(8, 4), (12, 6), (12, 4), (6, 3)])
        inst = gen_random(n=n, k=k, d=1, coord_bound=1, p=rng.choice([0, 1]),
                          B=2, seed=rng.randrange(10**6))
        blocks, rest = extract_full_blocks(inst)
        if not blocks or rest is None:
            continue
        seen += 1
        _, opt_x = brute_force_opt(inst)
        _, opt_y = brute_force_opt(rest)
        assert opt_y.exact <= 2 * opt_x.exact
    assert seen >= 10


# ---------------------------------------------------------------------------
# exact kernel

def test_exact_kernel_hand_trace():
    inst = make_instance([(7, 0), (7, 1)], p=1, k=1, B=1)
    kern = exact_kernelize(inst)
    assert [pt.coords for pt in kern.points] == [(0,), (1,)]
    assert kern.k == 1 and kern.B == 1


def test_exact_kernel_large_regime_trivializes():
    yes = make_instance([(0,)] * 6, p=1, k=2, B=0)
    kern = exact_kernelize(yes)
    assert kern.n == 1 and brute_force_opt(kern)[1].exact <= kern.B
    no = make_instance([(0,), (100,)], p=1, k=1, B=0)
    kern = exact_kernelize(no)
    assert kern.n == 2 and brute_force_opt(kern)[1].exact > kern.B


@pytest.mark.parametrize("p", [0, 1])
def test_exact_kernel_decision_equivalence(p):
    rng = random.Random(8080 + p)
    for _ in range(40):
        n, k = rng.choice([(6, 2), (6, 3), (8, 2), (8, 4), (12, 3), (10, 2)])
        B = rng.randint(0, 3)
        inst = gen_random(n=n, k=k, d=rng.randint(1, 2), coord_bound=rng.randint(0, 3),
                          p=p, B=B, seed=rng.randrange(10**6))
        kern = exact_kernelize(inst)
        _, opt = brute_force_opt(inst)
        _, kopt = brute_force_opt(kern)
        assert (opt.exact <= inst.B) == (kopt.exact <= kern.B)


# ---------------------------------------------------------------------------
# lifting and context round-trips

def test_lift_rejects_mismatched_kernel_clustering():
    inst = make_instance([(0,)] * 4 + [(9,), (9,), (9,), (10,)] + [(20,), (20,), (20,), (23,)],
                         p=1, k=3, B=4)
    _, ctx = lossy_kernelize(inst)
    assert ctx.branch == BRANCH_GENERIC
    bogus = Clustering({0: 1, 1: 1}, 1)
    with pytest.raises(InvalidClusteringError):
        lift_solution(ctx, bogus)


def test_context_round_trip_through_text():
    rng = random.Random(99)
    for _ in range(10):
        n, k = rng.choice([(8, 4), (12, 3), (6, 3), (10, 2)])
        inst = gen_random(n=n, k=k, d=2, coord_bound=3, p=rng.choice([0, 1]),
                          B=rng.randint(0, 3), seed=rng.randrange(10**6))
        kern, ctx = lossy_kernelize(inst)
        buf = io.StringIO()
        save_context(ctx, buf)
        assert buf.getvalue().count("\n") == 1 and buf.getvalue().endswith("\n")
        doc = json.loads(buf.getvalue())
        # version 3 keeps of the original only what lifting reads, and no kernel
        assert doc["version"] == 3 and "solved" not in doc and "kernel" not in doc
        assert doc.keys() == {"format", "version", "branch", "original", "blocks"}
        assert doc["original"] == {"k": inst.k, "ids": inst.ids()}
        loaded = load_context(io.StringIO(buf.getvalue()))
        assert loaded == ctx
        # a key the reader does not know is ignored, so version 3 can grow optional fields
        doc["certificate"] = {"kind": "unknown"}
        assert load_context(io.StringIO(json.dumps(doc))) == ctx
        # lifting through the reloaded context gives the same clustering
        if ctx.branch == BRANCH_GENERIC:
            sol, _ = brute_force_opt(kern)
        else:
            sol = None
        assert lift_solution(loaded, sol) == lift_solution(ctx, sol)


# the instances of the version 1 and 2 contexts that earlier readers lifted,
# and the clusterings they lifted them to
PINNED_LIFTS = [
    pytest.param(gen_random(n=12, k=3, d=2, coord_bound=2, p=0, B=1, seed=1), BRANCH_GENERIC,
                 [2, 3, 1, 2, 2, 1, 1, 2, 1, 3, 3, 3], id="generic-p0"),
    pytest.param(gen_random(n=12, k=3, d=2, coord_bound=2, p=1, B=2, seed=1), BRANCH_GENERIC,
                 [2, 2, 1, 2, 3, 1, 1, 2, 1, 3, 3, 3], id="generic-p1"),
    pytest.param(make_instance([(0,), (10,), (10,), (0,), (11,), (0,), (10,), (0,), (10,), (0,)],
                               p=1, k=2, B=1), BRANCH_LARGE_YES,
                 [1, 2, 2, 1, 2, 1, 2, 1, 2, 1], id="large-yes"),
]


@pytest.mark.parametrize("inst, branch, labels", PINNED_LIFTS)
def test_context_lifts_to_its_pinned_clustering(inst, branch, labels):
    kern, ctx = lossy_kernelize(inst)
    assert ctx.branch == branch
    buf = io.StringIO()
    save_context(ctx, buf)
    loaded = load_context(io.StringIO(buf.getvalue()))
    sol = brute_force_opt(kern)[0] if branch == BRANCH_GENERIC else None
    lifted = lift_solution(loaded, sol)
    assert [lifted.assignment[i] for i in inst.ids()] == labels
