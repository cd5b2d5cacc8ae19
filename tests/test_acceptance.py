"""Acceptance suite: one test per criterion, one printed pass/fail line each.

All comparisons are exact integer comparisons; the only tolerances are the
per-criterion wall-clock limits, which are part of the criteria themselves.
Run with `pytest tests/test_acceptance.py -s` to see the report lines.
"""

import itertools
import random
import time

from eqclus.assign import assign_to_medians
from eqclus.core import (
    Clustering,
    Median,
    clustering_cost,
    extract_full_blocks,
    lp_distance,
    make_instance,
    truncated_cost,
)
from eqclus.dimreduce import reduce_dimension
from eqclus.exact_large import solve_large
from eqclus.generators import (
    Hypergraph,
    TdmInstance,
    gen_random,
    planted_3dm_clustering,
    planted_rsm_clustering,
    reduce_3dm,
    reduce_rsm,
)
from eqclus.kernel import BRANCH_GENERIC, lift_solution, lossy_kernelize
from eqclus.oracle import (
    brute_force_opt,
    enumerate_equal_partitions,
    min_assignment_cost_exhaustive,
)
from eqclus.verify import check_structure, coordinate_budget_exponent


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num} ({name}): {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def _instances(rows, seeds_per_row, seed_base):
    rng = random.Random(seed_base)
    bounds = [0, 1, 2, 1, 3]
    dims = [1, 2, 1, 3]
    out = []
    i = 0
    for rep in range(seeds_per_row):
        for n, k, B in rows:
            p = i % 2
            inst = gen_random(n=n, k=k, d=dims[i % len(dims)],
                              coord_bound=bounds[i % len(bounds)], p=p, B=B,
                              seed=rng.randrange(10**9))
            out.append(inst)
            i += 1
    return out


# ---------------------------------------------------------------------------
# criterion 1: exact large-regime solver agrees with the oracle

def test_criterion_1_large_regime_oracle_equivalence():
    rows = [(6, 3, 0), (8, 4, 0), (12, 6, 0), (12, 4, 0), (10, 5, 0), (8, 2, 0),
            (10, 2, 1), (12, 2, 1), (5, 1, 1), (10, 1, 2), (12, 1, 2), (9, 1, 2)]
    t0 = time.monotonic()
    instances = _instances(rows, seeds_per_row=9, seed_base=101)
    yes = no = 0
    for inst in instances:
        assert inst.s >= 4 * inst.B + 1
        got = solve_large(inst)
        _, opt = brute_force_opt(inst)
        if got is None:
            no += 1
            if opt.exact <= inst.B:
                _report(1, "large-regime oracle equivalence", False,
                        f"solver claimed Opt > {inst.B} but oracle found {opt.exact}")
        else:
            yes += 1
            if opt.exact > inst.B or got[1].exact != opt.exact:
                _report(1, "large-regime oracle equivalence", False,
                        f"solver cost {got[1].exact} vs oracle {opt.exact}, B={inst.B}")
    elapsed = time.monotonic() - t0
    ok = len(instances) >= 100 and yes >= 5 and no >= 5 and elapsed < 60.0
    _report(1, "large-regime oracle equivalence", ok,
            f"{len(instances)} instances ({yes} solvable, {no} over budget), "
            f"exact verdict+cost agreement, {elapsed:.1f}s < 60s")


# ---------------------------------------------------------------------------
# criterion 2: dimension reduction is cost-exact under the budget

def test_criterion_2_dimension_reduction_exactness():
    rng = random.Random(202)
    rows = [(4, 2, 1), (6, 2, 1), (6, 3, 1), (8, 4, 1), (8, 2, 2), (6, 2, 3),
            (8, 4, 2), (6, 3, 2)]
    reduced_count = 0
    nobudget_sound = 0
    partitions_checked = 0
    attempts = 0
    while reduced_count < 50 and attempts < 400:
        n, k, B = rows[attempts % len(rows)]
        p = attempts % 2
        attempts += 1
        inst = gen_random(n=n, k=k, d=rng.randint(1, 3), coord_bound=rng.randint(0, 3),
                          p=p, B=B, seed=rng.randrange(10**9))
        reduced = reduce_dimension(inst)
        if reduced is None:
            _, opt = brute_force_opt(inst)
            if opt.exact <= B:
                _report(2, "dimension-reduction exactness", False,
                        f"reducer claimed Opt > {B} but oracle found {opt.exact}")
            nobudget_sound += 1
            continue
        reduced_count += 1
        ids = sorted(inst.by_id)
        for parts in enumerate_equal_partitions(inst.n, inst.k):
            partitions_checked += 1
            clusters = [[ids[i - 1] for i in part] for part in parts]
            c = Clustering.from_clusters(clusters)
            cx = clustering_cost(inst, c).exact
            cy = clustering_cost(reduced, c).exact
            if cx <= B or cy <= B:
                if cx != cy:
                    _report(2, "dimension-reduction exactness", False,
                            f"cost {cx} became {cy} (B={B})")
            elif not (cx > B and cy > B):
                _report(2, "dimension-reduction exactness", False,
                        f"budget verdict flipped: {cx} vs {cy} (B={B})")
    ok = reduced_count >= 50
    _report(2, "dimension-reduction exactness", ok,
            f"{reduced_count} reduced instances, {partitions_checked} equal partitions "
            f"compared exactly, {nobudget_sound} sound over-budget refusals")


# ---------------------------------------------------------------------------
# criteria 3 + 4: lossy kernel factor and kernel size, shared batch

_C3_CACHE = None


def _run_lossy_batch():
    global _C3_CACHE
    if _C3_CACHE is not None:
        return _C3_CACHE
    rows = [(8, 2, 1), (12, 3, 1), (8, 4, 1), (12, 6, 1), (12, 4, 1), (6, 2, 1),
            (6, 3, 1), (4, 2, 1), (12, 2, 2), (10, 2, 2), (8, 2, 2), (12, 3, 2),
            (9, 3, 1), (10, 5, 1), (12, 12, 1), (4, 1, 1)]
    t0 = time.monotonic()
    instances = _instances(rows, seeds_per_row=13, seed_base=303)
    failures = []
    generics = []
    for inst in instances:
        assert inst.s <= 4 * inst.B
        _, opt = brute_force_opt(inst)
        opt_trunc = min(opt.exact, inst.B + 1)
        kern, ctx = lossy_kernelize(inst)
        kernel_best, _ = brute_force_opt(kern)
        lifted = lift_solution(ctx, kernel_best)
        lifted.validate_equal(inst.ids(), inst.k)
        lift_trunc = truncated_cost(inst, lifted).exact
        if not opt_trunc <= lift_trunc <= 2 * opt_trunc:
            failures.append(f"lifted {lift_trunc} outside [{opt_trunc}, {2 * opt_trunc}]")
        if ctx.branch == BRANCH_GENERIC:
            generics.append((kern, inst.B))
    elapsed = time.monotonic() - t0
    _C3_CACHE = (instances, failures, generics, elapsed)
    return _C3_CACHE


def test_criterion_3_lossy_kernel_factor_two():
    instances, failures, generics, elapsed = _run_lossy_batch()
    ok = not failures and len(instances) >= 200 and elapsed < 300.0
    detail = failures[0] if failures else (
        f"{len(instances)} instances, optimal kernel solutions lift into "
        f"[Opt, 2*Opt] exactly, {elapsed:.1f}s < 300s")
    _report(3, "lossy kernel factor 2", ok, detail)


def test_criterion_4_kernel_size_bounds():
    _, _, generics, _ = _run_lossy_batch()
    failures = []
    for kern, B in generics:
        b2 = 2 * B
        if kern.n > 8 * B * B:
            failures.append(f"{kern.n} points > 8B^2 = {8 * B * B}")
        if kern.k > b2:
            failures.append(f"k' = {kern.k} > 2B = {b2}")
        dim_bound = kern.k * coordinate_budget_exponent(kern.p, b2) * (2 * b2 + 1) + 1
        if kern.dim > dim_bound:
            failures.append(f"dimension {kern.dim} > {dim_bound}")
        coord_bound = max(b2 * (kern.k * (2 * b2 + 1) - 1), (kern.k - 1) * (b2 + 1))
        worst = max(abs(c) for pt in kern.points for c in pt.coords)
        if worst > coord_bound:
            failures.append(f"coordinate {worst} > {coord_bound}")
    ok = not failures and len(generics) >= 20
    detail = failures[0] if failures else (
        f"{len(generics)} generic kernels within points<=8B^2, k'<=2B, "
        f"d<=k'*beta(p,2B)*(4B+1)+1, |coord|<=max(2B(k'(4B+1)-1),(k'-1)(2B+1))")
    _report(4, "kernel size bounds", ok, detail)


# ---------------------------------------------------------------------------
# criterion 5: exact kernel preserves the decision

def test_criterion_5_exact_kernel_equivalence():
    from eqclus.kernel import exact_kernelize

    rows = [(6, 2, 1), (6, 3, 0), (8, 2, 2), (8, 4, 1), (12, 3, 1), (10, 2, 1),
            (12, 2, 2), (9, 3, 1), (12, 6, 1), (10, 5, 0), (6, 2, 0), (12, 4, 2)]
    instances = _instances(rows, seeds_per_row=9, seed_base=505)
    yes = no = 0
    for inst in instances:
        kern = exact_kernelize(inst)
        _, opt = brute_force_opt(inst)
        _, kopt = brute_force_opt(kern)
        left = opt.exact <= inst.B
        right = kopt.exact <= kern.B
        if left != right:
            _report(5, "exact kernel equivalence", False,
                    f"Opt {opt.exact} vs B {inst.B} but kernel Opt {kopt.exact} "
                    f"vs B {kern.B}")
        yes += left
        no += not left
    ok = len(instances) >= 100 and yes >= 5 and no >= 5
    _report(5, "exact kernel equivalence", ok,
            f"{len(instances)} instances ({yes} yes / {no} no), decisions identical")


# ---------------------------------------------------------------------------
# criterion 6: hypergraph-matching construction numbers

def test_criterion_6_rsm_construction_numbers():
    t0 = time.monotonic()
    h = Hypergraph(3, 6, ((1, 2, 3), (4, 5, 6), (1, 3, 5), (2, 4, 5)))
    inst = reduce_rsm(h)
    failures = []
    if (inst.n, inst.dim, inst.k, inst.B) != (24, 36, 8, 42):
        failures.append(f"shape {(inst.n, inst.dim, inst.k, inst.B)} != (24, 36, 8, 42)")
    planted = planted_rsm_clustering(h, [1, 2])
    cost = clustering_cost(inst, planted).exact
    if cost != 42:
        failures.append(f"planted cost {cost} != 42")
    r, n = h.r, h.num_vertices
    vertex = {i: inst.points[(i - 1) * (r - 1)] for i in range(1, n + 1)}
    edge = {j: inst.points[n * (r - 1) + (j - 1) * r] for j in range(1, 5)}
    for i in range(1, n + 1):
        for j, e in enumerate(h.edges, start=1):
            d = lp_distance(vertex[i], edge[j], 0).exact
            if d != (3 * r - 2 if i in e else 3 * r):
                failures.append(f"|v{i}-f{j}| = {d}")
    for i, j in itertools.combinations(range(1, n + 1), 2):
        if lp_distance(vertex[i], vertex[j], 0).exact != 4 * r:
            failures.append(f"|v{i}-v{j}| != 4r")
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 1.0
    _report(6, "set-matching reduction numbers", ok,
            failures[0] if failures else
            f"24 points, d=36, k=8, B=42, planted cost 42, all distance laws, "
            f"{elapsed * 1000:.0f}ms < 1s")


# ---------------------------------------------------------------------------
# criterion 7: 3DM construction numbers

def test_criterion_7_3dm_construction_numbers():
    t0 = time.monotonic()
    systems = [
        (TdmInstance(2, ((1, 1, 1), (2, 2, 2), (1, 2, 2), (2, 1, 1))), [1, 2]),
        (TdmInstance(3, ((1, 1, 1), (2, 2, 2), (3, 3, 3), (1, 2, 3), (3, 2, 1))),
         [1, 2, 3]),
    ]
    failures = []
    for t, matching in systems:
        inst = reduce_3dm(t)
        N = t.num_elements
        m = len(t.triples)
        element = {e: inst.points[2 * (e - 1)] for e in range(1, N + 1)}
        triple = {j: inst.points[2 * N + 3 * (j - 1)] for j in range(1, m + 1)}
        member = {(g, j) for j, tr in enumerate(t.triples, start=1)
                  for g in t._globals(tr)}
        for a, b in itertools.combinations(range(1, m + 1), 2):
            if lp_distance(triple[a], triple[b], 0).exact != 6:
                failures.append(f"d(b{a},b{b}) != 6")
        for e in range(1, N + 1):
            for j in range(1, m + 1):
                d = lp_distance(element[e], triple[j], 0).exact
                want = 7 if (e, j) in member else 9
                if d != want:
                    failures.append(f"d(a{e},b{j}) = {d} != {want}")
        for a, b in itertools.combinations(range(1, N + 1), 2):
            if lp_distance(element[a], element[b], 0).exact != 12:
                failures.append(f"d(a{a},a{b}) != 12")
        planted = planted_3dm_clustering(t, matching)
        cost = clustering_cost(inst, planted).exact
        if cost != 7 * N:
            failures.append(f"planted cost {cost} != 7N = {7 * N}")
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 2.0
    _report(7, "3DM reduction numbers", ok,
            failures[0] if failures else
            f"distance laws 6/7/9/12 and planted cost 7N on {len(systems)} systems, "
            f"{elapsed * 1000:.0f}ms < 1s each")


# ---------------------------------------------------------------------------
# criterion 8: structural properties of cheap clusterings

def test_criterion_8_structural_properties():
    rng = random.Random(808)
    failures = []

    # (a) within-budget optima keep >= s - 2B identical points per cluster
    core_checked = 0
    attempts = 0
    while core_checked < 50 and attempts < 500:
        attempts += 1
        n, k = rng.choice([(8, 2), (10, 2), (12, 2), (12, 3), (9, 3)])
        B = rng.choice([2, 3, 4])
        inst = gen_random(n=n, k=k, d=1, coord_bound=1, p=attempts % 2, B=B,
                          seed=rng.randrange(10**9))
        best, cost = brute_force_opt(inst)
        if cost.exact > B:
            continue
        core_checked += 1
        failures.extend(f"identical-core/exchange: {v}" for v in check_structure(inst, best))

    # (b) removing full identical blocks at most doubles the optimum
    bound_checked = 0
    attempts = 0
    while bound_checked < 50 and attempts < 500:
        attempts += 1
        n, k = rng.choice([(8, 4), (12, 6), (12, 4), (6, 3), (12, 3)])
        inst = gen_random(n=n, k=k, d=1, coord_bound=1, p=attempts % 2, B=2,
                          seed=rng.randrange(10**9))
        blocks, rest = extract_full_blocks(inst)
        if not blocks or rest is None:
            continue
        bound_checked += 1
        _, opt_x = brute_force_opt(inst)
        _, opt_y = brute_force_opt(rest)
        if opt_y.exact > 2 * opt_x.exact:
            failures.append(
                f"block removal: Opt(Y,{rest.k}) = {opt_y.exact} > 2*{opt_x.exact}")

    # (c) flow assignment equals the exhaustive assignment minimum
    assign_checked = 0
    while assign_checked < 50:
        n, k = rng.choice([(4, 2), (6, 2), (6, 3), (8, 2), (8, 4)])
        p = assign_checked % 2
        d = rng.randint(1, 2)
        inst = gen_random(n=n, k=k, d=d, coord_bound=4, p=p, B=0,
                          seed=rng.randrange(10**9))
        meds = [Median(tuple(rng.randint(-4, 4) for _ in range(d)))
                for _ in range(k)]
        assign_checked += 1
        _, cost = assign_to_medians(inst, meds)
        want = min_assignment_cost_exhaustive(inst, meds)
        if cost.exact != want.exact:
            failures.append(f"assignment: flow {cost.exact} != exhaustive {want.exact}")

    ok = (not failures and core_checked >= 50 and bound_checked >= 50
          and assign_checked >= 50)
    _report(8, "structural properties", ok,
            failures[0] if failures else
            f"identical cores + exchange bound on {core_checked}, block-removal "
            f"doubling on {bound_checked}, assignment minimality on {assign_checked}")
