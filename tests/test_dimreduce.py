import itertools
import random

import pytest

from eqclus import dimreduce
from eqclus.core import Clustering, clustering_cost, distance_leq_budget, make_instance
from eqclus.dimreduce import greedy_partition, reduce_dimension
from eqclus.generators import gen_random
from eqclus.oracle import enumerate_equal_partitions
from eqclus.verify import coordinate_budget_exponent


def test_partition_by_chaining():
    inst = make_instance([(0,), (1,), (2,), (50,)], p=1, k=2, B=2)
    assert greedy_partition(inst) == [[0, 1, 2], [3]]


def test_partition_all_identical():
    inst = make_instance([(4, 4)] * 5, p=0, k=5, B=0)
    assert greedy_partition(inst) == [[0, 1, 2, 3, 4]]


def test_partition_strict_separation_at_budget_plus_one():
    for B in range(0, 4):
        inst = make_instance([(0,), (B + 1,)], p=1, k=2, B=B)
        assert greedy_partition(inst) == [[0], [1]]
        inst2 = make_instance([(0,), (B,)], p=1, k=2, B=B) if B else None
        if inst2:
            assert greedy_partition(inst2) == [[0, 1]]


def _per_point_partition(inst):
    # reference: the closure over single points, seeded by the lowest id
    left = sorted(inst.points, key=lambda pt: pt.id)
    parts = []
    while left:
        part = [left.pop(0)]
        for pt in part:
            near = [q for q in left if distance_leq_budget(pt, q, inst.p, inst.B)]
            part.extend(near)
            left = [q for q in left if q not in near]
        parts.append(sorted(pt.id for pt in part))
    return parts


def _record_checks(monkeypatch):
    # the id pairs greedy_partition checks through dimreduce's budget test
    checked = []
    real = dimreduce.distance_leq_budget

    def recording(x, y, p, B):
        checked.append(frozenset((x.id, y.id)))
        return real(x, y, p, B)

    monkeypatch.setattr(dimreduce, "distance_leq_budget", recording)
    return checked


def test_partition_matches_per_point_closure(monkeypatch):
    checked = _record_checks(monkeypatch)
    rng = random.Random(23)
    for p, B in itertools.product([0, 1, 2, 3], range(5)):  # B >= d occurs for every d below
        for _ in range(80):
            n = rng.randint(1, 16)
            d = rng.randint(1, 4)
            bound = rng.randint(0, 6)
            rows = [[rng.randint(-bound, bound) for _ in range(d)] for _ in range(n)]
            if rng.random() < 0.1:  # a single distinct vector
                rows = [rows[0]] * n
            inst = make_instance(rows, p=p, k=1, B=B, ids=sorted(rng.sample(range(50), n)))
            checked.clear()
            assert greedy_partition(inst) == _per_point_partition(inst)
            assert len(checked) == len(set(checked))  # no pair checked twice


@pytest.mark.parametrize("p", [0, 1])
def test_partition_checks_grow_linearly_on_separated_clusters(p, monkeypatch):
    # generic-shaped: 1200 centers 10 apart in every coordinate, each with
    # 6 copies, except two clusters that trade a copy for a point moved by 1;
    # the all-pairs closure makes about g^2/2 = 720 000 checks here
    k, s, d, B = 1200, 6, 4, 2
    rng = random.Random(8)
    perms = [rng.sample(range(k), k) for _ in range(d)]
    rows = []
    for i in range(k):
        center = [10 * perms[h][i] for h in range(d)]
        rows.extend([center] * (s - (i < 2)))
        if i < 2:
            rows.append([c + (h == i) for h, c in enumerate(center)])
    rng.shuffle(rows)
    inst = make_instance(rows, p=p, k=k, B=B)
    checked = _record_checks(monkeypatch)
    parts = greedy_partition(inst)
    g = len({tuple(row) for row in rows})
    assert g == k + 2 and len(parts) == k
    assert 0 < len(checked) <= 10 * g


def test_reduce_hand_trace():
    inst = make_instance([(7, 0), (7, 1)], p=1, k=1, B=1)
    reduced = reduce_dimension(inst)
    # the uniform first coordinate is dropped, and one part gets no sentinel
    assert [pt.coords for pt in reduced.points] == [(0,), (1,)]
    assert reduced.dim == 1
    # the one cluster costs 1 before and after
    c = Clustering({0: 1, 1: 1}, 1)
    assert clustering_cost(inst, c).exact == 1
    assert clustering_cost(reduced, c).exact == 1


def test_reduce_reports_no_budget_when_parts_exceed_k():
    inst = make_instance([(0,), (10,)], p=1, k=1, B=3)
    assert reduce_dimension(inst) is None


def test_reduce_lone_uniform_part_keeps_one_zeroed_coordinate():
    inst = make_instance([(5, 5, 5)] * 6, p=1, k=3, B=2)
    reduced = reduce_dimension(inst)
    assert reduced.dim == 1
    assert all(pt.coords == (0,) for pt in reduced.points)


def test_reduce_hamming_sentinels_only_between_parts():
    # one part: no sentinel, so one ranked coordinate whatever the budget
    reduced = reduce_dimension(make_instance([(0,), (100,)], p=0, k=1, B=100_000))
    assert [pt.coords for pt in reduced.points] == [(0,), (1,)]
    # one uniform part keeps a single coordinate
    reduced = reduce_dimension(make_instance([(5, 5, 5)] * 6, p=0, k=3, B=2))
    assert [pt.coords for pt in reduced.points] == [(0,)] * 6
    # two uniform parts: only the B + 1 sentinels, carrying the part index
    reduced = reduce_dimension(make_instance([(0, 0), (0, 0), (9, 9), (9, 9)], p=0, k=2, B=1))
    assert [pt.coords for pt in reduced.points] == [(0, 0)] * 2 + [(1, 1)] * 2


def test_reduce_distinct_value_guard():
    # one chained part with more than k(2B+1) = 3 distinct values
    inst = make_instance([(0,), (1,), (2,), (3,)], p=1, k=1, B=1)
    assert reduce_dimension(inst) is None


def test_reduce_hamming_crossing_clusters_stay_expensive():
    # regression: two Hamming parts whose projections collide; with a single
    # value-gap sentinel the crossing partition would cost 2 <= B after
    # reduction while costing 8 > B before it
    inst = make_instance([(0, 0, 0, 0), (1, 1, 0, 0), (5, 5, 5, 5), (5, 5, 6, 6)],
                         p=0, k=2, B=2)
    reduced = reduce_dimension(inst)
    assert reduced.dim == 2 + inst.B + 1  # two kept coordinates, B + 1 sentinels
    crossing = Clustering({0: 1, 2: 1, 1: 2, 3: 2}, 2)
    assert clustering_cost(inst, crossing).exact > inst.B
    assert clustering_cost(reduced, crossing).exact > inst.B
    within = Clustering({0: 1, 1: 1, 2: 2, 3: 2}, 2)
    assert clustering_cost(inst, within).exact == clustering_cost(reduced, within).exact


def test_reduce_hamming_rank_compression_bounds_magnitudes():
    # values far apart numerically but Hamming-close land in one part; ranks
    # keep the output coordinates small
    inst = make_instance([(0,), (1000,), (0,), (1000,)], p=0, k=2, B=1)
    reduced = reduce_dimension(inst)
    worst = max(abs(c) for pt in reduced.points for c in pt.coords)
    assert worst <= inst.B * (inst.k * (2 * inst.B + 1) - 1)
    # Hamming costs are equality patterns; they must survive the remap
    pairing = Clustering({0: 1, 1: 1, 2: 2, 3: 2}, 2)
    assert clustering_cost(inst, pairing).exact == clustering_cost(reduced, pairing).exact == 2


def test_reduce_preserves_identity_and_distinctness():
    rng = random.Random(11)
    for _ in range(30):
        n, k = rng.choice([(6, 2), (6, 3), (8, 2), (8, 4)])
        inst = gen_random(n=n, k=k, d=rng.randint(1, 3), coord_bound=rng.randint(0, 3),
                          p=rng.choice([0, 1]), B=rng.randint(1, 4),
                          seed=rng.randrange(10**6))
        reduced = reduce_dimension(inst)
        if reduced is None:
            continue
        assert reduced.n == inst.n and reduced.k == inst.k and reduced.B == inst.B
        assert [pt.id for pt in reduced.points] == [pt.id for pt in inst.points]
        lookup = {pt.id: pt.coords for pt in reduced.points}
        for part in greedy_partition(inst):
            for a, b in itertools.combinations(part, 2):
                same_in = inst.by_id[a].coords == inst.by_id[b].coords
                same_out = lookup[a] == lookup[b]
                assert same_in == same_out
        # identical inputs map to identical outputs across the whole instance
        for a, b in itertools.combinations(inst.ids(), 2):
            if inst.by_id[a].coords == inst.by_id[b].coords:
                assert lookup[a] == lookup[b]


def _all_partition_costs(inst, k):
    ids = sorted(inst.by_id)
    for parts in enumerate_equal_partitions(inst.n, k):
        clusters = [[ids[i - 1] for i in part] for part in parts]
        yield clusters, clustering_cost(inst, Clustering.from_clusters(clusters))


@pytest.mark.parametrize("p", [0, 1])
def test_reduce_cost_correspondence_exhaustive(p):
    rng = random.Random(500 + p)
    checked = 0
    while checked < 12:
        n, k = rng.choice([(4, 2), (6, 2), (6, 3), (8, 4)])
        B = rng.randint(1, 4)
        inst = gen_random(n=n, k=k, d=rng.randint(1, 2), coord_bound=rng.randint(1, 3),
                          p=p, B=B, seed=rng.randrange(10**6))
        reduced = reduce_dimension(inst)
        if reduced is None:
            continue
        checked += 1
        for clusters, cost_x in _all_partition_costs(inst, k):
            cost_y = clustering_cost(reduced, Clustering.from_clusters(clusters))
            if cost_x.exact <= B or cost_y.exact <= B:
                assert cost_x.exact == cost_y.exact
            else:
                assert cost_x.exact > B and cost_y.exact > B


def test_reduce_size_and_magnitude_bounds():
    rng = random.Random(77)
    checked = 0
    for _ in range(60):
        p = rng.choice([0, 1, 2])
        n, k = rng.choice([(6, 2), (6, 3), (8, 2), (9, 3)])
        B = rng.randint(0, 3)
        inst = gen_random(n=n, k=k, d=rng.randint(1, 4), coord_bound=rng.randint(0, 4),
                          p=p, B=B, seed=rng.randrange(10**6))
        reduced = reduce_dimension(inst)
        if reduced is None:
            continue
        checked += 1
        beta = coordinate_budget_exponent(p, B)
        assert reduced.dim <= k * beta * (2 * B + 1) + 1
        coord_bound = max(B * (k * (2 * B + 1) - 1), (k - 1) * (B + 1))
        worst = max(abs(c) for pt in reduced.points for c in pt.coords)
        assert worst <= coord_bound
    assert checked >= 10
