"""Instance generators: random, planted, and two matching-based constructions.

The matching constructions turn a perfect-matching question into an
equal-clustering question over binary points and come with planted
certificates of known exact cost, which makes them useful as ground-truth
fixtures: an r-uniform hypergraph yields an instance whose budget is
attainable exactly when the hypergraph has a perfect matching, and a
3-dimensional matching system yields an instance whose perfect matchings
correspond to clusterings of cost exactly 7N.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .core import Clustering, Instance, make_instance

# most coordinates (points x dimension) a generator or reduction builds
MAX_COORDINATES = 10**7


def _check_size(points: int, dim: int) -> None:
    if points * dim > MAX_COORDINATES:
        raise ValueError(f"instance of {points} points in dimension {dim} exceeds "
                         f"{MAX_COORDINATES} coordinates")


@dataclass(frozen=True)
class Hypergraph:
    """r-uniform hypergraph; vertices are 1..num_vertices."""

    r: int
    num_vertices: int
    edges: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.r < 3:
            raise ValueError("uniformity r must be >= 3")
        for e in self.edges:
            if len(e) != self.r or len(set(e)) != self.r:
                raise ValueError(f"edge {e} must have exactly {self.r} distinct vertices")
            if any(not 1 <= v <= self.num_vertices for v in e):
                raise ValueError(f"edge {e} has a vertex out of range")


@dataclass(frozen=True)
class TdmInstance:
    """3-dimensional matching system: three element sides of size n, m triples.

    Triples are 1-based per side; every element may occur in at most three
    triples. Occurrence ranks follow the order of the triple list.
    """

    n: int
    triples: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        counts: dict[int, int] = {}
        for t in self.triples:
            if len(t) != 3 or any(not 1 <= v <= self.n for v in t):
                raise ValueError(f"triple {t} out of range for n = {self.n}")
            for g in self._globals(t):
                counts[g] = counts.get(g, 0) + 1
                if counts[g] > 3:
                    raise ValueError(f"element {g} occurs in more than 3 triples")

    def _globals(self, triple: tuple[int, int, int]) -> tuple[int, int, int]:
        x, y, z = triple
        return (x, self.n + y, 2 * self.n + z)

    @property
    def num_elements(self) -> int:
        return 3 * self.n


# ---------------------------------------------------------------------------
# random and planted instances

def gen_random(n: int, k: int, d: int, coord_bound: int, p: int, B: int,
               seed: int) -> Instance:
    """Uniform integer coordinates in [-coord_bound, coord_bound], seeded."""
    if k < 1 or n % k != 0 or n < k:
        raise ValueError("need k >= 1 dividing n with n >= k")
    if d < 1 or coord_bound < 0:
        raise ValueError("need d >= 1 and coord_bound >= 0")
    _check_size(n, d)
    rng = random.Random(seed)
    rows = [[rng.randint(-coord_bound, coord_bound) for _ in range(d)]
            for _ in range(n)]
    return make_instance(rows, p=p, k=k, B=B)


def gen_planted(k: int, s: int, d: int, spread: int, noise: int, p: int,
                seed: int, B: int = 0) -> tuple[Instance, Clustering]:
    """k well-separated centers with s noisy copies each, plus the true clustering.

    Centers are pairwise at distance >= spread; every point stays within
    `noise` of its center, so the planted clustering costs at most k*s*noise.
    """
    if k < 1 or s < 1 or d < 1 or spread < 0 or noise < 0:
        raise ValueError("infeasible parameters")
    if p == 0 and spread > d:
        raise ValueError(f"Hamming separation {spread} impossible in dimension {d}")
    _check_size(k * s, d)
    rng = random.Random(seed)
    centers = []
    if p == 0:
        w = max(1, min(spread, d))
        for i in range(k):
            centers.append(tuple(i + 1 if h < w else 0 for h in range(d)))
    else:
        for i in range(k):
            centers.append(tuple(i * spread if h == 0 else 0 for h in range(d)))
    rows = []
    for c in centers:
        for _ in range(s):
            row = list(c)
            if noise > 0:
                if p == 0:
                    flips = rng.randint(0, min(noise, d))
                    for h in rng.sample(range(d), flips):
                        row[h] += 1
                else:
                    h = rng.randrange(d)
                    row[h] += rng.randint(-noise, noise)
            rows.append(row)
    inst = make_instance(rows, p=p, k=k, B=B)
    planted = Clustering({i: i // s + 1 for i in range(k * s)}, k)
    return inst, planted


# ---------------------------------------------------------------------------
# hypergraph matching construction

def _matching_instance(r: int, n: int, edge_ones: Sequence[set[int]]) -> Instance:
    """The matching construction on n elements, each owning a 2r-wide block of coordinates.

    r - 1 copies of each element's vector (ones on its block), then r copies of
    each edge's vector (ones at the coordinates `edge_ones` lists for it, one in
    each member's block); cluster size r, budget (3r - 2) * n.
    """
    d, m = 2 * r * n, len(edge_ones)
    _check_size((r - 1) * n + r * m, d)
    rows: list[tuple[int, ...]] = []
    for i in range(n):
        block = range(2 * r * i, 2 * r * (i + 1))
        rows.extend([tuple(1 if h in block else 0 for h in range(d))] * (r - 1))
    for ones in edge_ones:
        rows.extend([tuple(1 if h in ones else 0 for h in range(d))] * r)
    return make_instance(rows, p=0, k=n + m - n // r, B=(3 * r - 2) * n)


def reduce_rsm(h: Hypergraph) -> Instance:
    """Binary equal-clustering instance from an r-uniform hypergraph.

    The matching construction on the vertices, with each edge's ones at the
    first coordinate of its vertices' blocks; the budget is attainable iff the
    hypergraph has a perfect matching.
    """
    r, n = h.r, h.num_vertices
    if n % r != 0:
        raise ValueError(f"vertex count {n} not divisible by r = {r}: no perfect matching")
    return _matching_instance(r, n, [{2 * r * (v - 1) for v in e} for e in h.edges])


def _rsm_point_ids(h: Hypergraph) -> tuple[dict[int, list[int]], dict[int, list[int]]]:
    """Point ids of each vertex block and edge block, in construction order."""
    r, n = h.r, h.num_vertices
    vertex_ids = {i: list(range((i - 1) * (r - 1), i * (r - 1))) for i in range(1, n + 1)}
    base = n * (r - 1)
    edge_ids = {j: list(range(base + (j - 1) * r, base + j * r))
                for j in range(1, len(h.edges) + 1)}
    return vertex_ids, edge_ids


def planted_rsm_clustering(h: Hypergraph, matching: Sequence[int]) -> Clustering:
    """Certificate clustering of cost exactly (3r - 2) * n for a perfect matching.

    Each vertex cluster takes the r - 1 copies of its vector plus one copy of
    the matched edge's vector (lowest free copy first); unmatched edge blocks
    stay whole as zero-cost clusters.
    """
    r, n = h.r, h.num_vertices
    chosen = list(dict.fromkeys(matching))
    if len(chosen) != len(matching):
        raise ValueError("matching lists an edge twice")
    covered: dict[int, int] = {}
    for j in chosen:
        if not 1 <= j <= len(h.edges):
            raise ValueError(f"edge index {j} out of range")
        for v in h.edges[j - 1]:
            if v in covered:
                raise ValueError(f"vertex {v} covered twice; not a matching")
            covered[v] = j
    if len(covered) != n:
        raise ValueError("matching is not perfect")
    vertex_ids, edge_ids = _rsm_point_ids(h)
    free = {j: list(ids) for j, ids in edge_ids.items()}
    clusters = []
    for i in range(1, n + 1):
        j = covered[i]
        clusters.append(vertex_ids[i] + [free[j].pop(0)])
    for j in sorted(set(range(1, len(h.edges) + 1)) - set(chosen)):
        clusters.append(edge_ids[j])
    return Clustering.from_clusters(clusters)


# ---------------------------------------------------------------------------
# 3-dimensional matching construction

def reduce_3dm(t: TdmInstance) -> Instance:
    """Binary equal-clustering instance from a 3DM system.

    The matching construction for r = 3 on the 3n elements, with a triple's
    one in an element's block at its occurrence rank (0, 1 or 2, in list order)
    rather than at the block's first coordinate. So distinct triple vectors are
    at Hamming distance 6, and an element vector is at distance 7 from the
    triples containing it and 9 from the others. Budget 7N for N = 3n elements,
    the cost of a perfect matching's clustering.
    """
    seen: Counter[int] = Counter()  # occurrences of each element so far
    edge_ones = []
    for triple in t.triples:
        ones = set()
        for g in t._globals(triple):
            ones.add(6 * (g - 1) + seen[g])
            seen[g] += 1
        edge_ones.append(ones)
    return _matching_instance(3, t.num_elements, edge_ones)


def planted_3dm_clustering(t: TdmInstance, matching: Sequence[int]) -> Clustering:
    """Certificate clustering of cost exactly 7N for a perfect matching.

    reduce_3dm is the matching construction, in reduce_rsm's point order, for
    the 3-uniform hypergraph on the 3n elements whose edges are the triples, so
    the certificate is that hypergraph's.
    """
    h = Hypergraph(3, t.num_elements, tuple(t._globals(x) for x in t.triples))
    return planted_rsm_clustering(h, matching)
