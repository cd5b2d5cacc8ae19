"""The seeded property suites behind `eqclus verify`, checked against the oracle.

`SUITES` maps each suite to its check, from an instance to the violations
found on it, and `cases` draws the instances. Only `eqclus verify` imports
this module, so no other command compiles it.
"""

from __future__ import annotations

import collections
import time

from . import generators, kernel, oracle
from .core import (
    Clustering,
    CostValue,
    Instance,
    Median,
    cluster_cost,
    exact_zero,
    identical_groups,
    optimum_median,
)
from .exact_large import in_large_regime, solve_large


def coordinate_budget_exponent(p: int, B: int) -> int:
    """Bound on how many coordinates two points within distance B can differ in.

    B for p <= 1 (a Hamming or Manhattan distance of B touches at most B
    coordinates), B^p for p >= 2.
    """
    return B if p <= 1 else B ** p


def _kernel_size_violations(kern: Instance, B: int) -> list[str]:
    out = []
    kp = kern.k
    b2 = 2 * B
    if kern.n > 8 * B * B:
        out.append(f"kernel has {kern.n} points > 8B^2 = {8 * B * B}")
    if kp > b2:
        out.append(f"kernel has k' = {kp} > 2B = {b2}")
    dim_bound = kp * coordinate_budget_exponent(kern.p, b2) * (2 * b2 + 1) + 1
    if kern.dim > dim_bound:
        out.append(f"kernel dimension {kern.dim} > bound {dim_bound}")
    coord_bound = max(b2 * (kp * (2 * b2 + 1) - 1), (kp - 1) * (b2 + 1))
    worst = max((abs(c) for pt in kern.points for c in pt.coords), default=0)
    if worst > coord_bound:
        out.append(f"kernel coordinate magnitude {worst} > bound {coord_bound}")
    return out


def check_lossy_ratio(inst: Instance) -> list[str]:
    """Kernelize, solve the kernel optimally, lift, and compare to ground truth.

    With the kernel solved exactly, the lifted truncated cost must lie between
    Opt(X, k, B) and twice it. The lifted clustering is priced by the oracle.
    """
    B = inst.B
    _, opt_cost = oracle.brute_force_opt(inst)
    opt_trunc = min(opt_cost.exact, B + 1)
    kern, ctx = kernel.lossy_kernelize(inst)
    kernel_solution, _ = oracle.brute_force_opt(kern)
    lifted = kernel.lift_solution(ctx, kernel_solution)
    lifted.validate_equal(inst.by_id, inst.k)
    lifted_trunc = min(oracle.exact_clustering_cost(inst, lifted), B + 1)
    violations = []
    if lifted_trunc > 2 * opt_trunc:
        violations.append(f"lifted truncated cost {lifted_trunc} exceeds 2*Opt = {2 * opt_trunc}")
    if lifted_trunc < opt_trunc:
        violations.append(f"lifted truncated cost {lifted_trunc} below Opt = {opt_trunc}")
    if ctx.branch == kernel.BRANCH_GENERIC:
        violations.extend(_kernel_size_violations(kern, B))
    return violations


def _cost_at(inst: Instance, clustering: Clustering, medians: list[Median]) -> CostValue:
    # cluster i priced at medians[i]
    total = exact_zero(inst.p)
    for members, med in zip(clustering.clusters(), medians, strict=True):
        total = total + cluster_cost([inst.by_id[i] for i in members], med, inst.p)
    return total


def check_structure(inst: Instance, clustering: Clustering) -> list[str]:
    """Structural laws of a within-budget clustering.

    Checks that every cluster contains at least s - 2B identical points, and
    that forcing any full block of s identical points into one cluster by
    pairwise swaps raises the cost (priced at the original centers, with the
    target center moved onto the block) by at most s times the block-to-center
    distance.
    """
    clustering.validate_equal(inst.by_id, inst.k)
    s, B = inst.s, inst.B
    clusters = clustering.clusters()
    medians = [optimum_median([inst.by_id[i] for i in members], inst.p)[0]
               for members in clusters]
    base = _cost_at(inst, clustering, medians)  # the clustering's cost: each median is optimal
    violations = []
    if base.leq(B):
        need = s - 2 * B
        for idx, members in enumerate(clusters, start=1):
            groups = identical_groups([inst.by_id[i] for i in members])
            biggest = max(len(g) for g in groups)
            if biggest < need:
                violations.append(f"cluster {idx} has only {biggest} identical points, needs {need}")
    for group in inst.groups:
        if len(group) < s:
            continue
        block = group[:s]
        swapped = _force_block_first(clustering, [pt.id for pt in block])
        moved = list(medians)
        moved[0] = Median.from_point(block[0])
        after = _cost_at(inst, swapped, moved)
        allowance = cluster_cost([block[0]], medians[0], inst.p)
        bound = base.amount + s * allowance.amount
        if type(bound) is not int:  # float costs (p >= 2) get a rounding slack
            bound += 1e-9
        if after.amount > bound:
            violations.append(
                f"exchange bound violated for block at {block[0].coords}: "
                f"{after.amount} > {bound}")
    return violations


def _force_block_first(clustering: Clustering, block_ids: list[int]) -> Clustering:
    """Swap members pairwise so cluster 1 becomes exactly the given block."""
    clusters = [list(m) for m in clustering.clusters()]
    block = set(block_ids)
    outside = [pid for pid in block_ids if pid not in clusters[0]]
    inside_other = [pid for pid in clusters[0] if pid not in block]
    for pid_in, pid_out in zip(outside, inside_other):
        donor = next(i for i, m in enumerate(clusters) if pid_in in m)
        clusters[donor].remove(pid_in)
        clusters[donor].append(pid_out)
        clusters[0].remove(pid_out)
        clusters[0].append(pid_in)
    return Clustering.from_clusters(clusters)


# ---------------------------------------------------------------------------
# the suites

def _check_large(inst: Instance) -> list[str]:
    if not in_large_regime(inst):
        return [f"internal: parameters leave s={inst.s} < 4B+1"]
    got = solve_large(inst)
    _, opt = oracle.brute_force_opt(inst)
    B = inst.B
    if got is None:
        return [f"solver said no budget but Opt = {opt.exact} <= {B}"] if opt.exact <= B else []
    if opt.exact > B:
        return [f"solver returned cost {got[1].exact} but Opt > B"]
    if got[1].exact != opt.exact:
        return [f"solver cost {got[1].exact} != Opt {opt.exact}"]
    return []


def _check_exact_kernel(inst: Instance) -> list[str]:
    kern = kernel.exact_kernelize(inst)
    _, opt = oracle.brute_force_opt(inst)
    _, kopt = oracle.brute_force_opt(kern)
    if (opt.exact <= inst.B) != (kopt.exact <= kern.B):
        return [f"decision mismatch: Opt={opt.exact} vs B={inst.B}, "
                f"kernel Opt={kopt.exact} vs B={kern.B}"]
    return []


def _check_optimum_structure(inst: Instance) -> list[str]:
    best, _ = oracle.brute_force_opt(inst)
    return check_structure(inst, best)


SUITES = {
    "large": _check_large,
    "ratio": check_lossy_ratio,
    "exact-kernel": _check_exact_kernel,
    "structure": _check_optimum_structure,
}


def cases(count: int, seed: int) -> list[tuple]:
    """`count` rounds of one case per suite: (suite, n, k, coordinate bound, B, p, seed)."""
    large_params = [(6, 3, 1, 0), (8, 4, 2, 0), (10, 2, 1, 1), (12, 2, 2, 1),
                    (9, 1, 2, 2), (12, 6, 1, 0), (10, 5, 2, 0), (12, 1, 3, 2)]
    small_params = [(8, 2, 2, 1), (8, 4, 1, 1), (12, 3, 2, 1), (6, 3, 1, 1),
                    (12, 6, 2, 1), (10, 2, 3, 2), (12, 4, 2, 1), (9, 3, 2, 1)]
    out = []
    for i in range(count):
        n, k, bound, B = large_params[i % len(large_params)]
        out.append(("large", n, k, bound, B, i % 2, seed * 7919 + i))
        n, k, bound, B = small_params[i % len(small_params)]
        out.append(("ratio", n, k, bound, B, i % 2, seed * 104729 + i))
        out.append(("exact-kernel", n, k, bound, B, i % 2, seed * 1299709 + i))
        nl, kl, bl, Bl = large_params[(i + 3) % len(large_params)]
        out.append(("structure", nl, kl, bl, Bl, i % 2, seed * 15485863 + i))
    return out


def run_case(case: tuple) -> tuple[str, list[str], float]:
    """(description, violations, wall seconds) of one case, generation included."""
    start = time.perf_counter()
    suite, n, k, bound, B, p, s = case
    inst = generators.gen_random(n=n, k=k, d=2, coord_bound=bound, p=p, B=B, seed=s)
    violations = SUITES[suite](inst)
    return f"{suite}(n={n},k={k},B={B},p={p},seed={s})", violations, time.perf_counter() - start


def run(count: int, seed: int, jobs: int) -> tuple[list[str], list[str], bool]:
    """Run `count` rounds of the suites on `jobs` processes.

    Returns the stderr lines (per suite: instance count, summed wall time and
    slowest case), the stdout lines (each violation, then the verdict) and
    whether any case failed.
    """
    todo = cases(count, seed)
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # only here: costly to import

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(run_case, todo))
    else:
        results = [run_case(c) for c in todo]
    per_suite = collections.defaultdict(list)
    for case, (desc, _, seconds) in zip(todo, results):
        per_suite[case[0]].append((seconds, desc))
    log = []
    for suite, timings in sorted(per_suite.items()):
        slowest, slowest_desc = max(timings)
        log.append(f"verify: suite {suite}: {len(timings)} instances, "
                   f"{sum(sec for sec, _ in timings):.2f} s, slowest {slowest_desc} {slowest:.2f} s")
    failures = [(desc, violations) for desc, violations, _ in results if violations]
    out = [f"VIOLATION {desc}: {v}" for desc, violations in failures for v in violations]
    if failures:
        out.append(f"verify: {len(failures)} of {len(todo)} checks failed")
    else:
        out.append(f"verify: all {len(todo)} checks passed")
    return log, out, bool(failures)
