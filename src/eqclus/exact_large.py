"""Exact polynomial solver for the large-cluster regime s >= 4B + 1.

When clusters are that large relative to the budget, any clustering of cost
at most B must center every cluster on a heavily repeated data point, so the
candidate centers can be read off the multiset directly and the rest is an
optimal equal assignment.
"""

from __future__ import annotations

from .assign import assign_to_medians
from .core import (
    Clustering,
    CostValue,
    Instance,
    Median,
    exact_zero,
    extract_full_blocks,
    identical_groups,
)


def solve_large(inst: Instance) -> tuple[Clustering, CostValue] | None:
    """Minimum-cost equal k-clustering when s >= 4B + 1, or None if Opt > B.

    Procedure: strip full blocks of s identical points into free clusters;
    every maximal group of at least B + 1 identical survivors contributes one
    candidate center; unless the candidate count matches the remaining k the
    budget is unattainable; otherwise the optimal assignment to the candidates
    settles it.
    """
    if inst.k == 0:
        raise ValueError("solver needs k >= 1")
    if inst.s < 4 * inst.B + 1:
        raise ValueError(f"requires cluster size s >= 4B+1 (s={inst.s}, B={inst.B})")
    blocks, rest = extract_full_blocks(inst)
    block_clusters = [[pt.id for pt in blk] for blk in blocks]
    if rest.n == 0:
        return Clustering.from_clusters(block_clusters), exact_zero(inst.p)
    candidates = [Median.from_point(grp[0])
                  for grp in identical_groups(rest.points)
                  if len(grp) >= inst.B + 1]
    if len(candidates) != rest.k:
        return None
    assigned, cost = assign_to_medians(rest, candidates)
    if not cost.leq(inst.B):
        return None
    t = len(block_clusters)
    assignment = {pid: idx for idx, members in enumerate(block_clusters, start=1)
                  for pid in members}
    for pid, idx in assigned.assignment.items():
        assignment[pid] = t + idx
    return Clustering(assignment, inst.k), cost
