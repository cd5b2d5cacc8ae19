import math
import random
import tracemalloc

import pytest

from eqclus import oracle
from eqclus.core import Clustering, clustering_cost, make_instance, optimum_median
from eqclus.exact_large import solve_large
from eqclus.generators import gen_random
from eqclus.oracle import (
    GuardExceededError,
    best_equal_partition,
    brute_force_opt,
    canonical_clusters,
    enumerate_equal_partitions,
    partition_count,
)
from eqclus.verify import check_lossy_ratio, check_structure


# ---------------------------------------------------------------------------
# enumeration

def test_three_partitions_of_four_into_two():
    parts = list(enumerate_equal_partitions(4, 2))
    assert parts == [((1, 2), (3, 4)), ((1, 3), (2, 4)), ((1, 4), (2, 3))]


def test_partition_counts():
    assert partition_count(4, 2) == 3
    assert partition_count(6, 2) == 10
    assert partition_count(3, 3) == 1
    assert len(list(enumerate_equal_partitions(6, 2))) == 10
    assert len(list(enumerate_equal_partitions(3, 3))) == 1


def test_enumeration_is_canonical_and_duplicate_free():
    seen = set()
    for parts in enumerate_equal_partitions(8, 4):
        assert [p[0] for p in parts] == sorted(p[0] for p in parts)
        for part in parts:
            assert part[0] == min(part)
        frozen = frozenset(frozenset(p) for p in parts)
        assert frozen not in seen
        seen.add(frozen)
    assert len(seen) == partition_count(8, 4)


def test_guard_rejects_oversized_enumeration():
    assert partition_count(20, 10) > 10**7
    with pytest.raises(GuardExceededError):
        enumerate_equal_partitions(20, 10)
    with pytest.raises(GuardExceededError):
        brute_force_opt(make_instance([(0,)] * 20, p=1, k=10, B=0))


# ---------------------------------------------------------------------------
# exhaustive optimum

def test_brute_force_line_example():
    inst = make_instance([(0,), (1,), (2,), (9,)], p=1, k=2, B=0)
    clustering, cost = brute_force_opt(inst)
    assert cost.exact == 8
    assert canonical_clusters(clustering) == ((0, 1), (2, 3))


def test_brute_force_identical_points():
    inst = make_instance([(5, 5)] * 6, p=0, k=3, B=0)
    _, cost = brute_force_opt(inst)
    assert cost.exact == 0


def test_brute_force_binary_square():
    inst = make_instance([(0, 0), (0, 1), (1, 0), (1, 1)], p=0, k=2, B=0)
    _, cost = brute_force_opt(inst)
    assert cost.exact == 2


def test_brute_force_requires_exact_norm():
    inst = make_instance([(0,), (1,)], p=2, k=1, B=0)
    with pytest.raises(ValueError):
        brute_force_opt(inst)


def test_brute_force_is_deterministic():
    inst = gen_random(n=8, k=2, d=2, coord_bound=3, p=1, B=0, seed=17)
    a = brute_force_opt(inst)
    b = brute_force_opt(inst)
    assert a[1] == b[1]
    assert canonical_clusters(a[0]) == canonical_clusters(b[0])


def test_brute_force_never_beaten_by_pipeline():
    rng = random.Random(64)
    for _ in range(20):
        inst = gen_random(n=10, k=2, d=1, coord_bound=1, p=1, B=1,
                          seed=rng.randrange(10**6))
        _, opt = brute_force_opt(inst)
        got = solve_large(inst)
        if got is not None:
            assert opt.exact <= clustering_cost(inst, got[0]).exact


# ---------------------------------------------------------------------------
# exhaustive search against enumeration and the median routine

def first_minimum_cases(rng):
    small = [(4, 2), (6, 2), (6, 3), (8, 2), (8, 4), (9, 3), (10, 2), (10, 5)]
    for _ in range(30):
        yield rng.choice(small), 4
    # values in [-1, 1] make ties and duplicate points common, where the
    # price table and the forced last cluster could pick a later optimum
    for _ in range(10):
        yield rng.choice(small), 1
    yield from [((12, 3), 4), ((12, 3), 1), ((12, 4), 4), ((12, 4), 1)]


def first_minimum_of_enumeration(inst):
    # each part priced once at its optimum median, as clustering_cost prices it
    prices = {}
    first_min = None
    for parts in enumerate_equal_partitions(inst.n, inst.k):
        cost = 0
        for part in parts:
            if part not in prices:
                # enumeration ids are 1..n, instance ids 0..n-1
                pts = [inst.by_id[i - 1] for i in part]
                prices[part] = optimum_median(pts, inst.p)[1].exact
            cost += prices[part]
        if first_min is None or cost < first_min[0]:
            candidate = Clustering.from_clusters([[i - 1 for i in part] for part in parts])
            first_min = (cost, candidate)
    assert clustering_cost(inst, first_min[1]).exact == first_min[0]
    return first_min


@pytest.mark.parametrize("p", [0, 1])
def test_brute_force_returns_first_minimum_of_enumeration(p):
    rng = random.Random(4000 + p)
    for (n, k), b in first_minimum_cases(rng):
        d = rng.randint(1, 3)
        inst = make_instance([[rng.randint(-b, b) for _ in range(d)] for _ in range(n)],
                             p=p, k=k, B=0)
        first_min = first_minimum_of_enumeration(inst)
        clustering, cost = brute_force_opt(inst)
        assert cost.exact == first_min[0]
        assert canonical_clusters(clustering) == canonical_clusters(first_min[1])


def test_engine_prices_each_cluster_once(monkeypatch):
    calls = []
    price = oracle._cluster_cost

    def counting(coords, members, p):
        calls.append(members)
        return price(coords, members, p)

    monkeypatch.setattr(oracle, "_cluster_cost", counting)
    rng = random.Random(90)
    coords = [tuple(rng.randint(-10, 10) for _ in range(2)) for _ in range(12)]
    for p in (0, 1):
        calls.clear()
        best_equal_partition(coords, 3, p)
        # C(11, 3) first-level clusters hold point 0, C(11, 4) clusters do not
        assert len(calls) <= math.comb(11, 3) + math.comb(11, 4) == 495


def test_engine_keeps_no_price_table_for_two_clusters():
    rng = random.Random(91)
    coords = [tuple(rng.randint(-3, 3) for _ in range(2)) for _ in range(16)]
    inst = make_instance(coords, p=1, k=2, B=0)
    first_min = first_minimum_of_enumeration(inst)
    cost, assignment = best_equal_partition(coords, 2, 1)
    assert cost == first_min[0]
    assert canonical_clusters(Clustering({i: c + 1 for i, c in enumerate(assignment)}, 2)) \
        == canonical_clusters(first_min[1])
    # the call above warmed the interpreter's per-code caches; a table of the
    # C(15, 8) = 6435 clusters below the first level would take far more
    tracemalloc.start()
    try:
        assert best_equal_partition(coords, 2, 1) == (cost, assignment)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_brute_force_exact_on_huge_coordinates():
    big = 2**62
    rows = [(big,), (-big,), (big,), (-big,)]
    clustering, cost = brute_force_opt(make_instance(rows, p=1, k=2, B=0))
    assert cost.exact == 0
    assert canonical_clusters(clustering) == ((0, 2), (1, 3))
    _, cost = brute_force_opt(make_instance(rows, p=1, k=1, B=0))
    assert cost.exact == 2**64


@pytest.mark.parametrize("p", [0, 1])
@pytest.mark.parametrize("n", range(1, 9))
def test_singleton_clusters_match_first_minimum_of_enumeration(n, p):
    rng = random.Random(700 + 10 * n + p)
    coords = [tuple(rng.randint(-3, 3) for _ in range(2)) for _ in range(n)]
    inst = make_instance(coords, p=p, k=n, B=0)
    first_min = None
    for parts in enumerate_equal_partitions(n, n):
        candidate = [0] * n
        for idx, part in enumerate(parts):
            for i in part:
                candidate[i - 1] = idx
        cost = clustering_cost(inst, Clustering({i: c + 1 for i, c in enumerate(candidate)}, n))
        if first_min is None or cost.exact < first_min[0]:
            first_min = (cost.exact, candidate)
    assert best_equal_partition(coords, n, p) == first_min


def test_brute_force_singleton_clusters_at_scale():
    n = 2000
    clustering, cost = brute_force_opt(make_instance([(i,) for i in range(n)], p=1, k=n, B=1))
    assert cost.exact == 0
    assert canonical_clusters(clustering) == tuple((i,) for i in range(n))


@pytest.mark.parametrize("p", [0, 1])
def test_engine_single_cluster_cost_matches_median_routine(p):
    rng = random.Random(321 + p)
    for _ in range(40):
        m = rng.randint(1, 7)
        d = rng.randint(1, 3)
        inst = make_instance([[rng.randint(-5, 5) for _ in range(d)] for _ in range(m)],
                             p=p, k=1, B=0)
        _, cost = brute_force_opt(inst)
        _, expected = optimum_median(list(inst.points), p)
        assert cost.exact == expected.exact


# ---------------------------------------------------------------------------
# eqclus.verify's checkers against the exhaustive optimum

def test_ratio_report_zero_optimum_counts_as_ratio_one():
    # Opt = 0, so no violation means the lifted clustering costs 0 as well
    inst = make_instance([(3,)] * 6, p=1, k=2, B=1)
    assert brute_force_opt(inst)[1].exact == 0
    assert check_lossy_ratio(inst) == []


def test_ratio_report_on_random_batch():
    rng = random.Random(777)
    for _ in range(15):
        inst = gen_random(n=12, k=3, d=2, coord_bound=2, p=rng.choice([0, 1]),
                          B=rng.randint(1, 3), seed=rng.randrange(10**6))
        assert check_lossy_ratio(inst) == []


def test_structure_report_on_large_regime_optimum():
    inst = make_instance([(0,)] * 5 + [(5,)] * 4 + [(6,)], p=1, k=2, B=1)
    clustering, cost = solve_large(inst)
    assert cost.leq(inst.B)  # so the identical-points law is checked as well
    assert check_structure(inst, clustering) == []


def test_structure_report_flags_nothing_on_exhaustive_optima():
    rng = random.Random(31)
    for _ in range(15):
        inst = gen_random(n=8, k=2, d=1, coord_bound=1, p=1, B=2,
                          seed=rng.randrange(10**6))
        best, _ = brute_force_opt(inst)
        assert check_structure(inst, best) == []


def test_structure_exchange_bound_is_exact_for_p1_at_large_coordinates():
    # both sides of the exchange bound are 54043195528445957, which a float
    # comparison rounds apart
    big = 2 ** 54 - 1
    rows = [2, big, -2, 0, big, 0, 2 * big + 3, big - 1]
    inst = make_instance([(v,) for v in rows], p=1, k=4, B=0)
    clustering = Clustering({0: 1, 1: 1, 4: 2, 5: 2, 6: 3, 7: 3, 2: 4, 3: 4}, 4)
    assert check_structure(inst, clustering) == []
