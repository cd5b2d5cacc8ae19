"""Exact polynomial solver for the large-cluster regime s >= 4B + 1.

When clusters are that large relative to the budget, any clustering of cost
at most B must center every cluster on a heavily repeated data point, so the
candidate centers can be read off the multiset directly and the rest is an
optimal equal assignment.
"""

from __future__ import annotations

from .assign import InfeasibleFlowError, assign_to_medians
from .core import (
    Clustering,
    CostValue,
    Instance,
    Median,
    exact_zero,
    extract_full_blocks,
)


def in_large_regime(inst: Instance) -> bool:
    """Whether the cluster size is large relative to the budget: s >= 4B + 1."""
    return inst.s >= 4 * inst.B + 1


def solve_large(inst: Instance) -> tuple[Clustering, CostValue] | None:
    """Minimum-cost equal k-clustering when s >= 4B + 1, or None if Opt > B.

    Procedure: strip full blocks of s identical points into free clusters;
    every maximal group of at least B + 1 identical survivors contributes one
    candidate center; unless the candidate count matches the remaining k the
    budget is unattainable; otherwise the optimal assignment to the candidates
    settles it. No point of a clustering of cost at most B lies farther than
    B from its center, so the assignment keeps only the arcs within B: if a
    group of points has no candidate within B, or the pruned flow cannot
    place every point, Opt > B.
    """
    if not in_large_regime(inst):
        raise ValueError(f"requires cluster size s >= 4B+1 (s={inst.s}, B={inst.B})")
    blocks, rest = extract_full_blocks(inst)
    block_clusters = [[pt.id for pt in blk] for blk in blocks]
    if rest is None:
        return Clustering.from_clusters(block_clusters), exact_zero(inst.p)
    candidates = [Median.from_point(grp[0])
                  for grp in rest.groups
                  if len(grp) >= inst.B + 1]
    if len(candidates) != rest.k:
        return None
    try:
        assigned, cost = assign_to_medians(rest, candidates, budget=inst.B)
    except InfeasibleFlowError:
        return None
    if not cost.leq(inst.B):
        return None
    return Clustering.from_clusters([*block_clusters, *assigned.clusters()]), cost
