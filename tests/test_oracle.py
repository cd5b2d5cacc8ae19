import random

import pytest

from eqclus.core import Clustering, clustering_cost, make_instance, optimum_median
from eqclus.exact_large import solve_large
from eqclus.generators import gen_random
from eqclus.oracle import (
    GuardExceededError,
    brute_force_opt,
    canonical_clusters,
    check_lossy_ratio,
    check_structure,
    enumerate_equal_partitions,
    partition_count,
)


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

@pytest.mark.parametrize("p", [0, 1])
def test_brute_force_returns_first_minimum_of_enumeration(p):
    rng = random.Random(4000 + p)
    for _ in range(30):
        n, k = rng.choice([(4, 2), (6, 2), (6, 3), (8, 2), (8, 4), (9, 3), (10, 2), (10, 5)])
        d = rng.randint(1, 3)
        inst = make_instance([[rng.randint(-4, 4) for _ in range(d)] for _ in range(n)],
                             p=p, k=k, B=0)
        first_min = None
        for parts in enumerate_equal_partitions(n, k):
            # enumeration ids are 1..n, instance ids 0..n-1
            candidate = Clustering.from_clusters([[i - 1 for i in part] for part in parts])
            cost = clustering_cost(inst, candidate).exact
            if first_min is None or cost < first_min[0]:
                first_min = (cost, candidate)
        clustering, cost = brute_force_opt(inst)
        assert cost.exact == first_min[0]
        assert canonical_clusters(clustering) == canonical_clusters(first_min[1])


def test_brute_force_exact_on_huge_coordinates():
    big = 2**62
    rows = [(big,), (-big,), (big,), (-big,)]
    clustering, cost = brute_force_opt(make_instance(rows, p=1, k=2, B=0))
    assert cost.exact == 0
    assert canonical_clusters(clustering) == ((0, 2), (1, 3))
    _, cost = brute_force_opt(make_instance(rows, p=1, k=1, B=0))
    assert cost.exact == 2**64


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
# reports

def test_ratio_report_zero_optimum_counts_as_ratio_one():
    inst = make_instance([(3,)] * 6, p=1, k=2, B=1)
    report = check_lossy_ratio(inst)
    assert report.ok
    assert report.opt_truncated == 0 and report.lifted_truncated == 0
    assert report.ratio == 1.0


def test_ratio_report_on_random_batch():
    rng = random.Random(777)
    for _ in range(15):
        inst = gen_random(n=12, k=3, d=2, coord_bound=2, p=rng.choice([0, 1]),
                          B=rng.randint(1, 3), seed=rng.randrange(10**6))
        report = check_lossy_ratio(inst)
        assert report.ok, report.violations
        assert report.ratio <= 2.0


def test_structure_report_on_large_regime_optimum():
    inst = make_instance([(0,)] * 5 + [(5,)] * 4 + [(6,)], p=1, k=2, B=1)
    clustering, _ = solve_large(inst)
    report = check_structure(inst, clustering)
    assert report.ok, report.violations
    assert report.within_budget


def test_structure_report_flags_nothing_on_exhaustive_optima():
    rng = random.Random(31)
    for _ in range(15):
        inst = gen_random(n=8, k=2, d=1, coord_bound=1, p=1, B=2,
                          seed=rng.randrange(10**6))
        best, _ = brute_force_opt(inst)
        report = check_structure(inst, best)
        assert report.ok, report.violations
