"""Exhaustive solver and property checkers for desk-scale verification.

Everything here is deliberately independent of the production pipeline: the
optimum is found by enumerating every canonical equal partition, so it can
act as ground truth for the polynomial solver, the reductions, and the lossy
kernel's approximation guarantee.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from .core import (
    Clustering,
    CostValue,
    Instance,
    Median,
    cluster_cost,
    clustering_cost,
    cost_with_medians,
    identical_groups,
    optimum_median,
    truncated_cost,
)
from .kernel import BRANCH_GENERIC, lift_solution, lossy_kernelize

ENUMERATION_GUARD = 10_000_000


class GuardExceededError(RuntimeError):
    """The number of equal partitions exceeds the exhaustive-search guard."""


def partition_count(n: int, k: int) -> int:
    """Number of unordered partitions of n items into k groups of n/k."""
    if k <= 0 or n % k:
        raise ValueError("need k >= 1 dividing n")
    s = n // k
    return math.factorial(n) // (math.factorial(s) ** k * math.factorial(k))


def _check_guard(n: int, k: int) -> None:
    if partition_count(n, k) > ENUMERATION_GUARD:
        raise GuardExceededError(
            f"{partition_count(n, k)} equal partitions exceed guard {ENUMERATION_GUARD}")


def _canonical_partitions(items: tuple, k: int) -> Iterator[tuple[tuple, ...]]:
    # parts ordered by minimum element; each part anchored at the smallest
    # item not yet placed, so every unordered partition appears exactly once
    s = len(items) // k

    def rec(remaining: tuple, acc: list[tuple]) -> Iterator[tuple[tuple, ...]]:
        if not remaining:
            yield tuple(acc)
            return
        anchor, rest = remaining[0], remaining[1:]
        for combo in itertools.combinations(rest, s - 1):
            chosen = set(combo)
            left = tuple(x for x in rest if x not in chosen)
            acc.append((anchor,) + combo)
            yield from rec(left, acc)
            acc.pop()

    yield from rec(items, [])


def enumerate_equal_partitions(n: int, k: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All unordered partitions of {1..n} into k parts of size n/k, canonically."""
    _check_guard(n, k)
    return _canonical_partitions(tuple(range(1, n + 1)), k)


def _cluster_cost(coords, members, p: int) -> int:
    # priced coordinate by coordinate at the optimum center: for p = 0 the
    # majority value, for p = 1 the lower median; kept apart from
    # core.optimum_median so each can check the other
    total = 0
    for vals in zip(*(coords[i] for i in members)):
        if p == 0:
            total += len(vals) - max(map(vals.count, vals))
        else:
            med = sorted(vals)[(len(vals) - 1) // 2]
            total += sum(abs(v - med) for v in vals)
    return total


def best_equal_partition(coords, k: int, p: int) -> tuple[int, list[int]]:
    """Minimum-cost equal k-partition of n points given as integer tuples (p in {0, 1}).

    Returns (cost, assignment) with assignment[i] the 0-based cluster of
    point position i. Clusters are enumerated canonically (each anchored at
    the lowest unplaced position, the other members taken in combinations
    order), a branch is cut once its running cost reaches the incumbent, and
    the first optimum in enumeration order wins.
    """
    s = len(coords) // k
    assign = [0] * len(coords)
    best_cost: int | None = None
    best_assign: list[int] = []

    def search(remaining: tuple[int, ...], idx: int, total: int) -> None:
        nonlocal best_cost, best_assign
        if not remaining:
            # every leaf reached beats the incumbent: worse branches were cut
            best_cost, best_assign = total, assign.copy()
            return
        anchor, rest = remaining[0], remaining[1:]
        for combo in itertools.combinations(rest, s - 1):
            members = (anchor,) + combo
            new_total = total + _cluster_cost(coords, members, p)
            if best_cost is not None and new_total >= best_cost:
                continue
            for i in members:
                assign[i] = idx
            chosen = set(combo)
            search(tuple(i for i in rest if i not in chosen), idx + 1, new_total)

    search(tuple(range(len(coords))), 0, 0)
    assert best_cost is not None
    return best_cost, best_assign


def brute_force_opt(inst: Instance) -> tuple[Clustering, CostValue]:
    """Globally optimal equal clustering by exhaustive enumeration (p in {0, 1})."""
    if inst.p not in (0, 1):
        raise ValueError("exhaustive optimum is exact only for p in {0, 1}")
    if inst.k == 0:
        raise ValueError("empty instance")
    _check_guard(inst.n, inst.k)
    pts = sorted(inst.points, key=lambda pt: pt.id)
    cost, assign = best_equal_partition([pt.coords for pt in pts], inst.k, inst.p)
    clustering = Clustering({pt.id: c + 1 for pt, c in zip(pts, assign)}, inst.k)
    return clustering, CostValue.of_int(cost)


def min_assignment_cost_exhaustive(inst: Instance, medians: Sequence[Median]) -> CostValue:
    """Minimum cost over all equal clusterings priced at the given centers.

    Brute-force witness for the flow-based assignment; medians are consumed
    in order (cluster i pays to medians[i]).
    """
    if len(medians) != inst.k:
        raise ValueError("median count must equal k")
    _check_guard(inst.n, inst.k)
    ids = tuple(sorted(inst.by_id))
    best: CostValue | None = None
    for parts in _canonical_partitions(ids, inst.k):
        # parts are unordered: also minimize over which median serves which part
        for perm in itertools.permutations(range(inst.k)):
            total = cluster_cost([inst.by_id[i] for i in parts[0]], medians[perm[0]], inst.p)
            for part, m in zip(parts[1:], perm[1:]):
                total = total + cluster_cost([inst.by_id[i] for i in part], medians[m], inst.p)
            key = total.exact if total.exact is not None else total.value
            best_key = None if best is None else (
                best.exact if best.exact is not None else best.value)
            if best_key is None or key < best_key:
                best = total
    assert best is not None
    return best


def canonical_clusters(c: Clustering) -> tuple[tuple[int, ...], ...]:
    """Order-free form of a clustering for equality comparisons."""
    return tuple(sorted(tuple(sorted(m)) for m in c.clusters()))


# ---------------------------------------------------------------------------
# property checks

@dataclass
class RatioReport:
    branch: str
    opt_truncated: int
    lifted_truncated: int
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def ratio(self) -> float:
        if self.opt_truncated == 0:
            return 1.0
        return self.lifted_truncated / self.opt_truncated


def check_lossy_ratio(inst: Instance) -> RatioReport:
    """Kernelize, solve the kernel optimally, lift, and compare to ground truth.

    With the kernel solved exactly, the lifted truncated cost must lie between
    Opt(X, k, B) and twice it.
    """
    B = inst.B
    _, opt_cost = brute_force_opt(inst)
    opt_trunc = min(opt_cost.exact, B + 1)
    kernel, ctx = lossy_kernelize(inst)
    kernel_solution, _ = brute_force_opt(kernel)
    lifted = lift_solution(ctx, kernel_solution)
    lifted_trunc = truncated_cost(inst, lifted).exact
    report = RatioReport(ctx.branch, opt_trunc, lifted_trunc)
    if lifted_trunc > 2 * opt_trunc:
        report.violations.append(
            f"lifted truncated cost {lifted_trunc} exceeds 2*Opt = {2 * opt_trunc}")
    if lifted_trunc < opt_trunc:
        report.violations.append(
            f"lifted truncated cost {lifted_trunc} below Opt = {opt_trunc}")
    if ctx.branch == BRANCH_GENERIC:
        report.violations.extend(_kernel_size_violations(kernel, B))
    return report


def _kernel_size_violations(kernel: Instance, B: int) -> list[str]:
    from .dimreduce import coordinate_budget_exponent

    out = []
    kp = kernel.k
    b2 = 2 * B
    if kernel.n > 8 * B * B:
        out.append(f"kernel has {kernel.n} points > 8B^2 = {8 * B * B}")
    if kp > b2:
        out.append(f"kernel has k' = {kp} > 2B = {b2}")
    dim_bound = kp * coordinate_budget_exponent(kernel.p, b2) * (2 * b2 + 1) + 1
    if kernel.dim > dim_bound:
        out.append(f"kernel dimension {kernel.dim} > bound {dim_bound}")
    coord_bound = max(b2 * (kp * (2 * b2 + 1) - 1), (kp - 1) * (b2 + 1))
    worst = max((abs(c) for pt in kernel.points for c in pt.coords), default=0)
    if worst > coord_bound:
        out.append(f"kernel coordinate magnitude {worst} > bound {coord_bound}")
    return out


@dataclass
class StructureReport:
    cost: int
    within_budget: bool
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def check_structure(inst: Instance, clustering: Clustering) -> StructureReport:
    """Structural laws of a within-budget clustering.

    Checks that every cluster contains at least s - 2B identical points, and
    that forcing any full block of s identical points into one cluster by
    pairwise swaps raises the cost (priced at the original centers, with the
    target center moved onto the block) by at most s times the block-to-center
    distance.
    """
    cost = clustering_cost(inst, clustering)
    report = StructureReport(cost.exact if cost.exact is not None else -1,
                             cost.leq(inst.B))
    s, B = inst.s, inst.B
    clusters = clustering.clusters()
    medians = []
    for members in clusters:
        med, _ = optimum_median([inst.by_id[i] for i in members], inst.p)
        medians.append(med)
    if report.within_budget:
        need = s - 2 * B
        for idx, members in enumerate(clusters, start=1):
            groups = identical_groups([inst.by_id[i] for i in members])
            biggest = max(len(g) for g in groups)
            if biggest < need:
                report.violations.append(
                    f"cluster {idx} has only {biggest} identical points, needs {need}")
    for group in identical_groups(inst.points):
        if len(group) < s:
            continue
        block = group[:s]
        swapped = _force_block_first(clustering, [pt.id for pt in block])
        base = cost_with_medians(inst, clustering, medians)
        moved = list(medians)
        moved[0] = Median.from_point(block[0])
        after = cost_with_medians(inst, swapped, moved)
        allowance = cluster_cost([block[0]], medians[0], inst.p)
        bound = base.value + s * allowance.value + 1e-9
        if after.value > bound:
            report.violations.append(
                f"exchange bound violated for block at {block[0].coords}: "
                f"{after.value} > {bound}")
    return report


def _force_block_first(clustering: Clustering, block_ids: list[int]) -> Clustering:
    """Swap members pairwise so cluster 1 becomes exactly the given block."""
    clusters = [list(m) for m in clustering.clusters()]
    block = set(block_ids)
    outside = [pid for pid in sorted(block) if pid not in clusters[0]]
    inside_other = [pid for pid in clusters[0] if pid not in block]
    for pid_in, pid_out in zip(outside, inside_other):
        donor = next(i for i, m in enumerate(clusters) if pid_in in m)
        clusters[donor].remove(pid_in)
        clusters[donor].append(pid_out)
        clusters[0].remove(pid_out)
        clusters[0].append(pid_in)
    return Clustering.from_clusters(clusters)
