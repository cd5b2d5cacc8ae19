"""Dimension and coordinate-magnitude reduction, exact below the budget.

Points are first partitioned into chains of pairwise budget-reachable points;
a cheap cluster can never straddle two parts, so each part may be projected
onto its nonuniform coordinates independently. Sentinel coordinates keep
clusters from crossing parts in the reduced space, and coordinate values are
normalized per part to shrink magnitudes. For every equal partition of the
ids, the cost is preserved exactly whenever either side is within budget, and
both sides overshoot otherwise.

The normalization is norm-specific. For p >= 1 a single-coordinate value gap
of B + 1 already forces distance > B, so one sentinel coordinate spaced by
B + 1 suffices and subtracting per-part minima bounds magnitudes (sorted
distinct values in a chained part cannot gap by more than B). Under the
Hamming norm neither argument holds: a lone coordinate contributes at most 1
to the distance regardless of the gap, and chained parts may contain
arbitrarily large values. For p = 0 the pass therefore appends B + 1 sentinel
coordinates carrying the part index and replaces every kept value by its rank
among the part's values in that coordinate, which preserves Hamming costs
exactly. Either way the output dimension stays within k*beta(p,B)*(2B+1) + 1.
"""

from __future__ import annotations

from .core import Instance, Point, distance_leq_budget, identical_groups


def greedy_partition(inst: Instance) -> list[list[int]]:
    """Partition ids into closures under pairwise distance <= B.

    Each part is seeded with the lowest unassigned id and absorbs every point
    within budget distance of a member until closure; points in different
    parts are therefore at distance > B. Identical points are at distance
    0 <= B, so the closure runs over distinct coordinate vectors, each
    represented by its lowest id, and parts expand back to sorted ids.
    """
    groups = sorted(identical_groups(inst.points), key=lambda grp: grp[0].id)
    unassigned = list(range(len(groups)))
    parts: list[list[int]] = []
    while unassigned:
        members = [unassigned.pop(0)]
        for a in members:  # grows while scanned: each member checks the rest once
            rest = []
            for b in unassigned:
                if distance_leq_budget(groups[a][0], groups[b][0], inst.p, inst.B):
                    members.append(b)
                else:
                    rest.append(b)
            unassigned = rest
        parts.append(sorted(pt.id for a in members for pt in groups[a]))
    return parts


def _nonuniform_coords(points: list[Point], dim: int) -> list[int]:
    first = points[0].coords
    return [h for h in range(dim) if any(pt.coords[h] != first[h] for pt in points)]


def reduce_dimension(inst: Instance) -> Instance | None:
    """Reduced instance (same n, k, B, p; ids preserved) or None if Opt > B.

    None is certified in two ways: more parts than clusters, or some part
    holding more than k(2B+1) distinct values; both rule out any equal
    k-clustering of cost at most B.
    """
    if inst.n == 0:
        raise ValueError("cannot reduce an empty instance")
    k, B, p = inst.k, inst.B, inst.p
    part_ids = greedy_partition(inst)
    if len(part_ids) > k:
        return None
    parts_pts = [[inst.by_id[i] for i in ids] for ids in part_ids]
    for pts in parts_pts:
        if len({pt.coords for pt in pts}) > k * (2 * B + 1):
            return None
    nonuni = [_nonuniform_coords(pts, inst.dim) for pts in parts_pts]
    ell = max(len(nu) for nu in nonuni)
    kept_coords: list[tuple[int, ...]] = []
    for nu in nonuni:
        kept = set(nu)
        for h in range(inst.dim):
            if len(kept) == ell:
                break
            kept.add(h)  # pad with smallest-index uniform coordinates
        kept_coords.append(tuple(sorted(kept)))
    sentinel_width = B + 1 if p == 0 else 1
    new_coords: dict[int, tuple[int, ...]] = {}
    for j, (pts, rs) in enumerate(zip(parts_pts, kept_coords)):
        projected = {pt.id: [pt.coords[h] for h in rs] for pt in pts}
        sentinel = (j,) * sentinel_width if p == 0 else (j * (B + 1),)
        if p == 0:
            ranks = [{v: r for r, v in enumerate(sorted({row[h] for row in projected.values()}))}
                     for h in range(ell)]
            for pid, row in projected.items():
                new_coords[pid] = tuple(ranks[h][row[h]] for h in range(ell)) + sentinel
        else:
            mins = tuple(min(row[h] for row in projected.values()) for h in range(ell))
            for pid, row in projected.items():
                new_coords[pid] = tuple(v - m for v, m in zip(row, mins)) + sentinel
    out_points = tuple(Point(new_coords[pt.id], pt.id) for pt in inst.points)
    return Instance(out_points, p=p, k=k, B=B, dim=ell + sentinel_width)


def coordinate_budget_exponent(p: int, B: int) -> int:
    """Bound on how many coordinates two points within distance B can differ in.

    B for p <= 1 (a Hamming or Manhattan distance of B touches at most B
    coordinates), B^p for p >= 2.
    """
    return B if p <= 1 else B ** p
