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
coordinates carrying the part index, and replaces every kept value by its
rank among the part's values in that coordinate, which preserves Hamming
costs exactly. Under either norm a single part leaves nothing to keep apart
and gets no sentinel. The output dimension stays within k*beta(p,B)*(2B+1) + 1.
"""

from __future__ import annotations

from .core import Instance, Point, distance_leq_budget


def _neighbour_keys(vectors: list[tuple[int, ...]], p: int, B: int):
    """Bucket keys for finding every vector within distance B of another.

    Returns `filed, probed`: functions from a vector to the keys of the
    buckets it is filed under, and to the keys of the buckets to search for
    its budget neighbours. Any two vectors within distance B are such that
    one is filed under a key the other probes.

    p >= 1: within distance B every coordinate differs by at most B, so on
    one coordinate h the cells x_h // (B + 1) differ by at most one; h is the
    coordinate with the most cells (lowest index on ties). p = 0: with the
    coordinates cut into min(B, d) + 1 contiguous blocks, at most B
    differing coordinates leave some block equal in full (pigeonhole), so
    vectors are keyed by (block, values on that block). An empty block,
    which exists only when B >= d, keys every vector alike.
    """
    d = len(vectors[0])
    if p == 0:
        m = min(B, d) + 1
        cuts = [j * d // m for j in range(m + 1)]

        def blocks(v):
            return [(j, v[cuts[j]:cuts[j + 1]]) for j in range(m)]

        return blocks, blocks
    w = B + 1
    h = max(range(d), key=lambda h: len({v[h] // w for v in vectors}))
    return (lambda v: (v[h] // w,)), (lambda v: (v[h] // w - 1, v[h] // w, v[h] // w + 1))


def greedy_partition(inst: Instance) -> list[list[int]]:
    """Partition ids into closures under pairwise distance <= B.

    Each part is seeded with the lowest unassigned id and absorbs every point
    within budget distance of a member until closure; points in different
    parts are therefore at distance > B. Identical points are at distance
    0 <= B, so the closure runs over distinct coordinate vectors, each
    represented by its lowest id, and parts expand back to sorted ids.

    A member is checked only against the unassigned vectors of the buckets
    its neighbour keys name (`_neighbour_keys`), which hold every vector
    within distance B of it, so the parts are those of an all-pairs scan.
    Members join in the order that scan gives them, and no pair is checked
    twice, so the checks made are a subset of the all-pairs scan's.
    """
    groups = inst.groups  # in order of their lowest ids
    reps = [grp[0] for grp in groups]
    filed, probed = _neighbour_keys([pt.coords for pt in reps], inst.p, inst.B)
    buckets: dict = {}
    for a, rep in enumerate(reps):
        for key in filed(rep.coords):
            buckets.setdefault(key, []).append(a)
    assigned = [False] * len(reps)
    checked_by = [-1] * len(reps)  # the member that last checked each vector
    parts: list[list[int]] = []
    for seed in range(len(reps)):
        if assigned[seed]:
            continue
        assigned[seed] = True
        members = [seed]
        for a in members:  # grows while scanned
            near = []
            for key in probed(reps[a].coords):
                bucket = buckets.get(key)
                if not bucket:
                    continue
                rest = []  # the bucket without its assigned vectors
                for b in bucket:
                    if assigned[b]:
                        continue
                    if checked_by[b] != a:
                        checked_by[b] = a
                        if distance_leq_budget(reps[a], reps[b], inst.p, inst.B):
                            assigned[b] = True
                            near.append(b)
                            continue
                    rest.append(b)
                buckets[key] = rest
            near.sort()
            members.extend(near)
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
    k, B, p = inst.k, inst.B, inst.p
    part_ids = greedy_partition(inst)
    if len(part_ids) > k:
        return None
    parts_pts = [[inst.by_id[i] for i in ids] for ids in part_ids]
    for pts in parts_pts:
        if len({pt.coords for pt in pts}) > k * (2 * B + 1):
            return None
    nonuni = [_nonuniform_coords(pts, inst.dim) for pts in parts_pts]
    sentinel_width = 0 if len(parts_pts) == 1 else 1 if p else B + 1
    ell = max(len(nu) for nu in nonuni)
    if sentinel_width == 0:  # a lone part keeps one coordinate even if all are uniform
        ell = max(ell, 1)
    kept_coords: list[tuple[int, ...]] = []
    for nu in nonuni:
        kept = set(nu)
        for h in range(inst.dim):
            if len(kept) == ell:
                break
            kept.add(h)  # pad with smallest-index uniform coordinates
        kept_coords.append(tuple(sorted(kept)))
    new_coords: dict[int, tuple[int, ...]] = {}
    for j, (pts, rs) in enumerate(zip(parts_pts, kept_coords)):
        projected = {pt.id: [pt.coords[h] for h in rs] for pt in pts}
        sentinel = (j if p == 0 else j * (B + 1),) * sentinel_width
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
    return Instance(out_points, p=p, k=k, B=B)

