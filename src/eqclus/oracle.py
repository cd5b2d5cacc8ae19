"""Exhaustive solver for desk-scale verification.

Everything here is deliberately independent of the production pipeline, and
imports nothing of it but the domain types of `core`: the optimum is found by
enumerating every canonical equal partition, and clusters are priced by this
module's own rule, so it can act as ground truth for the polynomial solver,
the reductions, and the lossy kernel's approximation guarantee. The suites
that check those claims against it are in `eqclus.verify`.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, Sequence

from .core import Clustering, CostValue, Instance, Median, cluster_cost

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
    count = partition_count(n, k)
    if count > ENUMERATION_GUARD:
        raise GuardExceededError(f"{count} equal partitions exceed guard {ENUMERATION_GUARD}")


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


def exact_clustering_cost(inst: Instance, clustering: Clustering) -> int:
    """Cost of a clustering of `inst` (p in {0, 1}), priced by this module's own rule."""
    coords = {pt.id: pt.coords for pt in inst.points}
    return sum(_cluster_cost(coords, members, inst.p) for members in clustering.clusters())


def best_equal_partition(coords, k: int, p: int) -> tuple[int, list[int]]:
    """Minimum-cost equal k-partition of n points given as integer tuples (p in {0, 1}).

    Returns (cost, assignment) with assignment[i] the 0-based cluster of
    point position i. Clusters are enumerated canonically (each anchored at
    the lowest unplaced position, the other members taken in combinations
    order), a branch is cut once its running cost reaches the incumbent, and
    the first optimum in enumeration order wins.

    Each first-level cluster holds position 0 and is visited once, so it is
    priced directly. For k >= 3 the clusters below it recur across branches
    and are priced once into a table local to the call, which holds at most
    C(n-1, s) entries; for k = 2 each cluster and its complement occur once,
    so no table is kept. The last cluster is forced and priced without a
    further search level.
    """
    s = len(coords) // k
    if s == 1:  # singletons cost 0; the search would recurse once per point
        return 0, list(range(len(coords)))
    assign = [0] * len(coords)
    best_cost: int | None = None
    best_assign: list[int] = []
    prices: dict[tuple[int, ...], int] | None = {} if k >= 3 else None

    def price(members: tuple[int, ...], idx: int) -> int:
        if idx == 0 or prices is None:
            return _cluster_cost(coords, members, p)
        cost = prices.get(members)
        if cost is None:
            cost = prices[members] = _cluster_cost(coords, members, p)
        return cost

    def search(remaining: tuple[int, ...], idx: int, total: int) -> None:
        nonlocal best_cost, best_assign
        if len(remaining) == s:
            # the last cluster is forced; a tie keeps the earlier optimum
            new_total = total + price(remaining, idx)
            if best_cost is None or new_total < best_cost:
                for i in remaining:
                    assign[i] = idx
                best_cost, best_assign = new_total, assign.copy()
            return
        anchor, rest = remaining[0], remaining[1:]
        for combo in itertools.combinations(rest, s - 1):
            members = (anchor,) + combo
            new_total = total + price(members, idx)
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
    _check_guard(inst.n, inst.k)
    cost, assign = best_equal_partition([pt.coords for pt in inst.points], inst.k, inst.p)
    clustering = Clustering({pt.id: c + 1 for pt, c in zip(inst.points, assign)}, inst.k)
    return clustering, CostValue(cost)


def min_assignment_cost_exhaustive(inst: Instance, medians: Sequence[Median]) -> CostValue:
    """Minimum cost over all equal clusterings priced at the given centers.

    Brute-force witness for the flow-based assignment; medians are consumed
    in order (cluster i pays to medians[i]).
    """
    if len(medians) != inst.k:
        raise ValueError("median count must equal k")
    _check_guard(inst.n, inst.k)
    ids = tuple(inst.ids())
    best: CostValue | None = None
    for parts in _canonical_partitions(ids, inst.k):
        # parts are unordered: also minimize over which median serves which part
        for perm in itertools.permutations(range(inst.k)):
            total = cluster_cost([inst.by_id[i] for i in parts[0]], medians[perm[0]], inst.p)
            for part, m in zip(parts[1:], perm[1:]):
                total = total + cluster_cost([inst.by_id[i] for i in part], medians[m], inst.p)
            if best is None or total.amount < best.amount:
                best = total
    assert best is not None
    return best


def canonical_clusters(c: Clustering) -> tuple[tuple[int, ...], ...]:
    """Order-free form of a clustering for equality comparisons."""
    return tuple(sorted(tuple(sorted(m)) for m in c.clusters()))
