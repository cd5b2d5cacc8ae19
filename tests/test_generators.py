import hashlib
import itertools
import random

import pytest

from eqclus.core import clustering_cost, lp_distance, truncated_cost
from eqclus.formats import format_instance
from eqclus.generators import (
    Hypergraph,
    TdmInstance,
    gen_planted,
    gen_random,
    planted_3dm_clustering,
    planted_rsm_clustering,
    reduce_3dm,
    reduce_rsm,
)

FIG_EDGES = ((1, 2, 3), (4, 5, 6), (1, 3, 5), (2, 4, 5))


def figure_hypergraph():
    return Hypergraph(3, 6, FIG_EDGES)


# ---------------------------------------------------------------------------
# random / planted

def test_same_seed_same_instance():
    a = gen_random(n=8, k=2, d=3, coord_bound=5, p=1, B=2, seed=12)
    b = gen_random(n=8, k=2, d=3, coord_bound=5, p=1, B=2, seed=12)
    assert a == b
    c = gen_random(n=8, k=2, d=3, coord_bound=5, p=1, B=2, seed=13)
    assert a != c


def test_gen_random_validates_parameters():
    with pytest.raises(ValueError):
        gen_random(n=7, k=2, d=1, coord_bound=1, p=1, B=0, seed=0)
    with pytest.raises(ValueError):
        gen_random(n=4, k=2, d=0, coord_bound=1, p=1, B=0, seed=0)


def test_planted_without_noise_costs_zero():
    for p in (0, 1):
        inst, planted = gen_planted(k=3, s=4, d=3, spread=3, noise=0, p=p, seed=5)
        assert clustering_cost(inst, planted).exact == 0


def test_planted_cost_bounded_by_per_point_noise():
    k, s, d, noise = 3, 4, 2, 2
    inst, planted = gen_planted(k=k, s=s, d=d, spread=10, noise=noise, p=1, seed=9)
    assert clustering_cost(inst, planted).exact <= k * s * noise * d


def test_planted_hamming_noise_stays_near_separated_centers():
    k, s, d, spread, noise = 3, 5, 6, 4, 2
    inst, planted = gen_planted(k=k, s=s, d=d, spread=spread, noise=noise, p=0, seed=7)
    # noise is the only random draw, so without it every point sits on its center
    centers, _ = gen_planted(k=k, s=s, d=d, spread=spread, noise=0, p=0, seed=7)
    gaps = [lp_distance(pt, ctr, 0).exact for pt, ctr in zip(inst.points, centers.points)]
    assert max(gaps) <= noise and any(gaps)
    distinct = centers.points[::s]
    assert all(lp_distance(a, b, 0).exact >= min(spread, d)
               for a, b in itertools.combinations(distinct, 2))
    assert clustering_cost(inst, planted).exact <= k * s * noise


def test_planted_hamming_needs_enough_dimensions():
    with pytest.raises(ValueError):
        gen_planted(k=2, s=2, d=2, spread=3, noise=0, p=0, seed=0)


# ---------------------------------------------------------------------------
# hypergraph matching construction

def test_figure_instance_shape():
    inst = reduce_rsm(figure_hypergraph())
    assert inst.n == 24
    assert inst.dim == 36
    assert inst.k == 8
    assert inst.B == 42
    assert inst.s == 3
    assert inst.p == 0


def test_figure_distance_laws():
    h = figure_hypergraph()
    inst = reduce_rsm(h)
    r, n = h.r, h.num_vertices
    vertex_first = {i: inst.points[(i - 1) * (r - 1)] for i in range(1, n + 1)}
    edge_first = {j: inst.points[n * (r - 1) + (j - 1) * r] for j in range(1, len(h.edges) + 1)}
    for i in range(1, n + 1):
        for j, edge in enumerate(h.edges, start=1):
            want = 3 * r - 2 if i in edge else 3 * r
            assert lp_distance(vertex_first[i], edge_first[j], 0).exact == want
    for i, j in itertools.combinations(range(1, n + 1), 2):
        assert lp_distance(vertex_first[i], vertex_first[j], 0).exact == 4 * r


def test_figure_planted_matching_costs_exactly_budget():
    h = figure_hypergraph()
    inst = reduce_rsm(h)
    planted = planted_rsm_clustering(h, [1, 2])
    planted.validate_equal(inst.ids(), inst.k)
    assert clustering_cost(inst, planted).exact == inst.B == 42
    assert truncated_cost(inst, planted).exact == 42


def test_rsm_blocks_are_identical_copies():
    inst = reduce_rsm(figure_hypergraph())
    # 2 copies per vertex then 3 per edge, in construction order
    for i in range(6):
        a, b = inst.points[2 * i], inst.points[2 * i + 1]
        assert a.coords == b.coords
    for j in range(4):
        block = inst.points[12 + 3 * j:12 + 3 * j + 3]
        assert len({pt.coords for pt in block}) == 1


def test_rsm_rejects_indivisible_vertex_count():
    h = Hypergraph(3, 7, ((1, 2, 3), (4, 5, 6)))
    with pytest.raises(ValueError):
        reduce_rsm(h)


def test_rsm_rejects_bad_matchings():
    h = figure_hypergraph()
    with pytest.raises(ValueError):
        planted_rsm_clustering(h, [1, 3])  # overlaps at vertex 1
    with pytest.raises(ValueError):
        planted_rsm_clustering(h, [1])  # not perfect


def test_hypergraph_validation():
    with pytest.raises(ValueError):
        Hypergraph(2, 4, ((1, 2),))
    with pytest.raises(ValueError):
        Hypergraph(3, 4, ((1, 2, 2),))
    with pytest.raises(ValueError):
        Hypergraph(3, 4, ((1, 2, 9),))


# ---------------------------------------------------------------------------
# 3-dimensional matching construction

def small_tdm():
    # two elements per side; triples 1 and 2 form the unique perfect matching
    return TdmInstance(2, ((1, 1, 1), (2, 2, 2), (1, 2, 2), (2, 1, 1)))


def test_tdm_shape():
    t = small_tdm()
    inst = reduce_3dm(t)
    N, m = t.num_elements, len(t.triples)
    assert inst.n == 2 * N + 3 * m
    assert inst.dim == 6 * N
    assert inst.k == 2 * N // 3 + m
    assert inst.s == 3
    assert inst.B == 7 * N


def test_tdm_distance_laws():
    t = small_tdm()
    inst = reduce_3dm(t)
    N = t.num_elements
    element_first = {e: inst.points[2 * (e - 1)] for e in range(1, N + 1)}
    triple_first = {j: inst.points[2 * N + 3 * (j - 1)] for j in range(1, len(t.triples) + 1)}
    member = {(g, j) for j, tr in enumerate(t.triples, start=1) for g in t._globals(tr)}
    for s_idx, t_idx in itertools.combinations(range(1, len(t.triples) + 1), 2):
        assert lp_distance(triple_first[s_idx], triple_first[t_idx], 0).exact == 6
    for e in range(1, N + 1):
        for j in range(1, len(t.triples) + 1):
            want = 7 if (e, j) in member else 9
            assert lp_distance(element_first[e], triple_first[j], 0).exact == want
    for a, b in itertools.combinations(range(1, N + 1), 2):
        assert lp_distance(element_first[a], element_first[b], 0).exact == 12


def test_tdm_planted_matching_costs_seven_per_element():
    t = small_tdm()
    inst = reduce_3dm(t)
    planted = planted_3dm_clustering(t, [1, 2])
    planted.validate_equal(inst.ids(), inst.k)
    assert clustering_cost(inst, planted).exact == 7 * t.num_elements


def test_tdm_occurrence_cap():
    with pytest.raises(ValueError):
        TdmInstance(2, ((1, 1, 1), (1, 2, 2), (1, 1, 2), (1, 2, 1)))


def test_tdm_rejects_bad_matchings():
    t = small_tdm()
    with pytest.raises(ValueError):
        planted_3dm_clustering(t, [1, 4])  # overlaps on side-Y element 1
    with pytest.raises(ValueError):
        planted_3dm_clustering(t, [1])


# ---------------------------------------------------------------------------
# both constructions, pinned byte for byte

def _planted_hypergraph(rng, r):
    # a perfect matching on n = r * q vertices, plus random edges, in random order
    n = r * rng.randint(1, 3)
    order = rng.sample(range(1, n + 1), n)
    matching = [tuple(order[i:i + r]) for i in range(0, n, r)]
    extra = [tuple(rng.sample(range(1, n + 1), r)) for _ in range(rng.randint(0, 4))]
    edges = matching + extra
    rng.shuffle(edges)
    chosen = [edges.index(e) + 1 for e in matching]
    return Hypergraph(r, n, tuple(edges)), chosen


def _planted_tdm(rng):
    # a perfect matching on n elements per side, plus triples that keep every
    # element in at most three, in random order
    n = rng.randint(1, 5)
    ys, zs = rng.sample(range(1, n + 1), n), rng.sample(range(1, n + 1), n)
    matching = [(x, ys[x - 1], zs[x - 1]) for x in range(1, n + 1)]
    counts = {(side, v): 1 for side in range(3) for v in range(1, n + 1)}
    triples = list(matching)
    for _ in range(rng.randint(0, 2 * n)):
        triple = tuple(rng.randint(1, n) for _ in range(3))
        if all(counts[(side, v)] < 3 for side, v in enumerate(triple)):
            for side, v in enumerate(triple):
                counts[(side, v)] += 1
            triples.append(triple)
    rng.shuffle(triples)
    chosen = [triples.index(t) + 1 for t in matching]
    return TdmInstance(n, tuple(triples)), chosen


def test_reductions_and_certificates_are_pinned():
    # any change to a reduced instance, its point order or a planted
    # clustering moves the digest
    rng = random.Random(20261020)
    cases = [(reduce_rsm, planted_rsm_clustering, *_planted_hypergraph(rng, r))
             for r in (3, 4) for _ in range(30)]
    cases += [(reduce_3dm, planted_3dm_clustering, *_planted_tdm(rng)) for _ in range(60)]
    digest = hashlib.sha256()
    for reduce, plant, problem, matching in cases:
        inst = reduce(problem)
        planted = plant(problem, matching)
        planted.validate_equal(inst.ids(), inst.k)
        digest.update(format_instance(inst).encode())
        digest.update(" ".join(str(planted.assignment[i]) for i in inst.ids()).encode() + b"\n")
    assert digest.hexdigest() == "afe3fd5b957a5e33d4b036a23205311ddeb58b92b7597ce3c50f634a97bddc64"
