import itertools
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqclus import core
from eqclus.core import (
    Clustering,
    CostValue,
    Instance,
    InvalidClusteringError,
    InvalidInstanceError,
    Median,
    Point,
    cluster_cost,
    clustering_cost,
    distance_leq_budget,
    extract_full_blocks,
    identical_groups,
    lp_distance,
    make_instance,
    optimum_median,
    truncated_cost,
)
from eqclus.kernel import LiftContext


def pts(*rows):
    return [Point(tuple(r), i) for i, r in enumerate(rows)]


# ---------------------------------------------------------------------------
# distances

def test_hamming_distance_counts_differing_coordinates():
    a, b = pts((0, 0), (1, 1))
    assert lp_distance(a, b, 0).exact == 2


def test_distance_to_self_is_zero_for_all_norms():
    (a,) = pts((3, -2, 7))
    for p in (0, 1, 2, 3):
        d = lp_distance(a, a, p)
        assert d.amount == 0.0
        if p <= 1:
            assert d.exact == 0


def test_l1_distance_exact_and_symmetric():
    a, b = pts((0, 5), (3, 1))
    assert lp_distance(a, b, 1).exact == 7
    assert lp_distance(b, a, 1).exact == 7


def test_l2_distance_has_no_exact_integer():
    a, b = pts((0, 0), (3, 4))
    d = lp_distance(a, b, 2)
    assert d.exact is None
    assert d.amount == pytest.approx(5.0)


def test_high_norm_distance_beyond_float_power_sum():
    # 10**400 + 3**400 is beyond float range; the distance itself is not
    a, b = pts((0, 0), (10, 3))
    assert lp_distance(a, b, 400).amount == pytest.approx(10.0)
    # a distance beyond float range still raises
    with pytest.raises(OverflowError):
        lp_distance(Point((10 ** 400,), 0), Point((0,), 1), 2)


def test_distance_dimension_mismatch():
    a = Point((0, 0), 0)
    b = Point((0,), 1)
    with pytest.raises(ValueError):
        lp_distance(a, b, 1)


def test_budget_comparison_boundary_equality():
    a, b = pts((0,), (3,))
    assert distance_leq_budget(a, b, 1, 3)
    assert not distance_leq_budget(a, b, 1, 2)


def test_budget_comparison_p2_integer_check():
    a, b = pts((1, 1), (2, 2))
    # squared distance 2 > B^2 = 1
    assert not distance_leq_budget(a, b, 2, 1)
    assert distance_leq_budget(a, b, 2, 2)


def test_budget_comparison_identical_points_zero_budget():
    a = Point((4, 4), 0)
    b = Point((4, 4), 1)
    for p in (0, 1, 2, 5):
        assert distance_leq_budget(a, b, p, 0)


@given(st.lists(st.integers(-20, 20), min_size=1, max_size=4),
       st.lists(st.integers(-20, 20), min_size=1, max_size=4),
       st.sampled_from([0, 1, 2, 3]),
       st.integers(0, 30))
def test_budget_comparison_matches_real_distance(xs, ys, p, B):
    d = min(len(xs), len(ys))
    a = Point(tuple(xs[:d]), 0)
    b = Point(tuple(ys[:d]), 1)
    assert distance_leq_budget(a, b, p, B) == (lp_distance(a, b, p).amount <= B + 1e-9)


@given(st.integers(0, 2), st.data())
def test_triangle_inequality(p, data):
    d = data.draw(st.integers(1, 3))
    coord = st.tuples(*[st.integers(-10, 10)] * d)
    x = Point(data.draw(coord), 0)
    y = Point(data.draw(coord), 1)
    z = Point(data.draw(coord), 2)
    lhs = lp_distance(x, z, p).amount
    rhs = lp_distance(x, y, p).amount + lp_distance(y, z, p).amount
    assert lhs <= rhs + 1e-9


# ---------------------------------------------------------------------------
# cluster costs and medians

def test_cluster_cost_direct_sum():
    members = pts((0,), (0,), (3,))
    assert cluster_cost(members, Median((0,)), 1).exact == 3


def test_cluster_cost_hamming_majority_center():
    members = pts((0, 0), (0, 1), (1, 1))
    assert cluster_cost(members, Median((0, 1)), 0).exact == 2


def test_cluster_cost_four_fives_one_six():
    members = pts((5,), (5,), (5,), (5,), (6,))
    assert cluster_cost(members, Median((5,)), 1).exact == 1


def test_cluster_cost_sums_exactly_or_left_to_right():
    big = 2 ** 60
    members = pts((big,), (big + 1,), (0,))
    assert cluster_cost(members, Median((0,)), 1).exact == 2 * big + 1
    # an integral float center is exact too, beyond the 53-bit float mantissa
    assert cluster_cost(pts((big + 1,)), Median((0.0,)), 1).exact == big + 1
    assert lp_distance(Point((big + 1,), 0), Median((0.0,)), 1).exact == big + 1
    members = pts((0, 0), (1, 1), (2, 3), (5, 1), (1, 7))
    center = Median((1, 2))
    want = 0.0
    for pt in members:
        want += lp_distance(pt, Point(center.coords, -1), 2).amount
    cost = cluster_cost(members, center, 2)
    assert cost.exact is None and cost.amount == want


def test_cluster_cost_non_integral_center_is_float():
    members = pts((0,), (1,))
    cost = cluster_cost(members, Median((0.5,)), 1)
    assert cost.exact is None
    assert cost.amount == pytest.approx(1.0)


def test_majority_median_example():
    med, cost = optimum_median(pts((0, 0), (0, 1), (1, 1)), 0)
    assert med.coords == (0, 1)
    assert cost.exact == 2


def test_majority_median_tie_prefers_smaller_value():
    med, _ = optimum_median(pts((0,), (1,)), 0)
    assert med.coords == (0,)


def test_lower_median_example():
    med, cost = optimum_median(pts((0,), (0,), (3,)), 1)
    assert med.coords == (0,)
    assert cost.exact == 3


def test_identical_points_are_their_own_median():
    for p in (0, 1, 2, 4):
        med, cost = optimum_median(pts((2, 3), (2, 3), (2, 3)), p)
        assert med.coords == (2, 3)
        assert cost.amount == 0.0


def test_geometric_median_close_to_exact_optimum():
    # three unit-square corners: the l2 median is interior
    members = pts((0, 0), (1, 0), (0, 1))
    med, cost = optimum_median(members, 2)
    grid = [(x / 100.0, y / 100.0) for x in range(0, 101) for y in range(0, 101)]
    best = min(cluster_cost(members, Median(g), 2).amount for g in grid)
    assert cost.amount <= best + 1e-4


def _grid_candidates(members, d):
    lo = min(c for pt in members for c in pt.coords) - 1
    hi = max(c for pt in members for c in pt.coords) + 1
    return itertools.product(range(lo, hi + 1), repeat=d)


@pytest.mark.parametrize("p", [0, 1, 2, 3])
def test_median_beats_every_grid_center(p):
    # exact for p <= 1; an iterative p >= 2 median may lose 1e-9 relative
    slack = 1.0 if p <= 1 else 1.0 + 1e-9
    rng = random.Random(1234 + p)
    for _ in range(40):
        d = rng.randint(1, 2)
        m = rng.randint(1, 6)
        members = [Point(tuple(rng.randint(0, 9) for _ in range(d)), i)
                   for i in range(m)]
        _, cost = optimum_median(members, p)
        for cand in _grid_candidates(members, d):
            cand_cost = cluster_cost(members, Median(cand), p)
            assert cost.amount <= cand_cost.amount * slack, (members, cand)


def _median_corpus(p):
    # ten seeded clusters per p: four uniform, three heavy (copies of one
    # point plus a few near it) and three big
    rng = random.Random(7 + p)
    for shape in ["uniform"] * 4 + ["heavy"] * 3 + ["big"] * 3:
        if shape == "uniform":
            m, d, b = rng.randint(2, 12), rng.randint(1, 4), rng.randint(1, 20)
            rows = [[rng.randint(-b, b) for _ in range(d)] for _ in range(m)]
        elif shape == "heavy":
            d = rng.randint(1, 4)
            base = [rng.randint(-20, 20) for _ in range(d)]
            rows = [base] * rng.randint(3, 10)
            rows += [[v + rng.randint(-2, 2) for v in base] for _ in range(rng.randint(1, 4))]
        else:
            m, d = rng.randint(20, 60), rng.randint(2, 5)
            rows = [[rng.randint(-100, 100) for _ in range(d)] for _ in range(m)]
        yield [Point(tuple(row), i) for i, row in enumerate(rows)]


# the corpus's optimum_median costs under the former medians: numpy's
# Weiszfeld iteration for p = 2 and scipy's Powell search for p >= 3
FORMER_MEDIAN_COSTS = {
    2: [79.76696477923703, 160.22921085128735, 70.0, 48.0, 6.605551276130695,
        5.82842712494516, 3.000000000149683, 2466.287850452832, 2253.1420512042214,
        3357.325229420074],
    3: [72.00000000000504, 31.999999999999996, 35.0, 125.4529798937171, 5.091123690532289,
        5.000000000039549, 1.0, 4574.080397676295, 2490.050247544407, 2449.435080747547],
    4: [112.05246906180324, 3.0000000000020797, 7.070360598993517, 12.0, 7.533945582491759,
        6.061086369756598, 3.9482220388673954, 4376.31572459533, 2233.4316238682795,
        2251.633480482141],
    5: [121.89275203673238, 27.867753810533742, 21.003212698398336, 138.29457688489595,
        6.3800733781724075, 3.000000000016964, 5.000000000001292, 1813.8583346850078,
        2585.6137148478697, 2079.539247458566],
}


@pytest.mark.parametrize("p", sorted(FORMER_MEDIAN_COSTS))
def test_median_costs_no_worse_than_the_former_medians(p):
    for members, former in zip(_median_corpus(p), FORMER_MEDIAN_COSTS[p], strict=True):
        _, cost = optimum_median(members, p)
        assert cost.amount <= former * (1 + 1e-7), ([pt.coords for pt in members], former)


def test_median_at_a_member_is_that_member():
    # three unit steps out of (0, 0) pull with dual norm < 2, its multiplicity,
    # so the optimum is the kink at (0, 0) itself, returned exactly
    members = pts((0, 0), (0, 0), (1, 0), (0, 1), (-1, -1))
    for p in (2, 3, 5):
        med, cost = optimum_median(members, p)
        assert med.coords == (0, 0)
        assert cost.amount == cluster_cost(members, Median((0, 0)), p).amount


def test_higher_norm_medians_need_no_numpy_or_scipy():
    # -S leaves site-packages off the path, so the medians could not import them
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); "
             "from eqclus.core import Point, optimum_median; "
             "members = [Point((0, 0), 0), Point((3, 1), 1), Point((1, 4), 2)]; "
             "costs = [optimum_median(members, p)[1].amount for p in (2, 3)]; "
             "print(*costs, 'numpy' in sys.modules, 'scipy' in sys.modules)")
    src = str(Path(core.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-S", "-c", probe, src],
                          capture_output=True, text=True, check=True)
    *costs, numpy_loaded, scipy_loaded = proc.stdout.split()
    assert all(0 < float(c) < 8 for c in costs)
    assert (numpy_loaded, scipy_loaded) == ("False", "False")


def test_optimum_median_rejects_empty():
    with pytest.raises(ValueError):
        optimum_median([], 1)


def test_higher_norm_median_on_a_segment():
    # for p = 3 any center on the segment is optimal with cost |a - b|
    members = pts((0,), (10,))
    med, cost = optimum_median(members, 3)
    assert 0.0 <= med.coords[0] <= 10.0
    assert cost.amount == pytest.approx(10.0, abs=1e-6)


# ---------------------------------------------------------------------------
# clustering costs

def test_clustering_cost_and_truncation():
    # single cluster of cost 3, then 7, then 4, all against B = 4
    for coords, expect, expect_trunc in [((0, 0, 3), 3, 3), ((0, 0, 7), 7, 5),
                                         ((0, 0, 4), 4, 4)]:
        inst = make_instance([(c,) for c in coords], p=1, k=1, B=4)
        c = Clustering({0: 1, 1: 1, 2: 1}, 1)
        assert clustering_cost(inst, c).exact == expect
        assert truncated_cost(inst, c).exact == expect_trunc


def test_clustering_cost_rejects_unequal_sizes():
    inst = make_instance([(0,), (1,), (2,), (3,)], p=1, k=2, B=0)
    with pytest.raises(InvalidClusteringError):
        clustering_cost(inst, Clustering({0: 1, 1: 1, 2: 1, 3: 2}, 2))


def test_clustering_cost_rejects_missing_ids():
    inst = make_instance([(0,), (1,)], p=1, k=1, B=0)
    with pytest.raises(InvalidClusteringError):
        clustering_cost(inst, Clustering({0: 1, 7: 1}, 1))


def test_clustering_from_clusters_rejects_duplicates():
    with pytest.raises(InvalidClusteringError):
        Clustering.from_clusters([[0, 1], [1, 2]])


# ---------------------------------------------------------------------------
# instances

def test_instance_requires_divisibility():
    with pytest.raises(InvalidInstanceError):
        make_instance([(0,), (1,), (2,)], p=1, k=2, B=0)


def test_instance_rejects_duplicate_ids():
    # ids increase along the points, so a repeated or a decreasing id is rejected
    for ids in ([0, 0], [1, 0]):
        with pytest.raises(InvalidInstanceError):
            make_instance([(0,), (1,)], p=1, k=1, B=0, ids=ids)


def test_instance_rejects_mixed_dimension():
    from eqclus.core import Instance
    with pytest.raises(InvalidInstanceError):
        Instance((Point((0,), 0), Point((0, 1), 1)), p=1, k=1, B=0)


@pytest.mark.parametrize("pt", [Point((True,), 0), Point((0.25,), 0), Point((0,), 0.5),
                                Point((0,), False)])
def test_instance_rejects_non_integer_coordinates_and_ids(pt):
    from eqclus.core import Instance
    with pytest.raises(InvalidInstanceError):
        Instance((pt,), p=1, k=1, B=0)


def test_cost_value_addition_preserves_exactness():
    a = CostValue(2)
    assert (a + CostValue(3)).exact == 5
    c = CostValue(1.5)
    assert (a + c).exact is None
    assert (a + c).amount == pytest.approx(3.5)


def test_cost_value_is_exact_beyond_float_range():
    big = CostValue(10 ** 400)
    assert big.exact == 10 ** 400
    assert big.leq(10 ** 400) and not big.leq(10 ** 400 - 1)
    assert big.truncated(5).exact == 6
    assert (big + CostValue(1)).exact == 10 ** 400 + 1


# ---------------------------------------------------------------------------
# records

def test_records_are_immutable():
    inst = make_instance([(0,), (1,)], p=1, k=1, B=0)
    records = [(Point((0,), 0), "id"), (Median((0,)), "coords"), (CostValue(1), "amount"),
               (Clustering({0: 1, 1: 1}, 1), "k"),
               (LiftContext("large-no", (0, 1), 1), "branch"), (inst, "points"),
               (inst, "dim")]
    for record, name in records:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        del inst.p


def test_records_are_tuples_of_their_fields():
    pt = Point((1, 2), 7)
    assert pt == ((1, 2), 7) and hash(pt) == hash(((1, 2), 7))
    coords, pid = pt
    assert (coords, pid) == ((1, 2), 7)
    assert LiftContext("large-no", (0,), 1, None).blocks is None


def test_equal_instances_compare_and_hash_alike():
    a = make_instance([(0, 1), (2, 3)], p=1, k=1, B=2)
    b = Instance((Point((0, 1), 0), Point((2, 3), 1)), p=1, k=1, B=2)
    assert a == b and hash(a) == hash(b) and a is not b
    assert a.dim == 2
    assert a != make_instance([(0, 1), (2, 3)], p=1, k=1, B=3)
    assert a != a.points  # an instance is not a tuple of its fields
    assert repr(make_instance([(5,)], p=1, k=1, B=0)) == (
        "Instance(points=(Point(coords=(5,), id=0),), p=1, k=1, B=0)")


def test_instance_groups_are_computed_once(monkeypatch):
    calls = []

    def counting(points):
        calls.append(1)
        return identical_groups(points)

    monkeypatch.setattr(core, "identical_groups", counting)
    inst = make_instance([(0,), (0,), (1,), (1,)], p=1, k=2, B=0)
    other = make_instance([(0,), (0,), (1,), (1,)], p=1, k=2, B=0)
    assert inst.groups is inst.groups
    assert len(calls) == 1
    assert other.groups == inst.groups and len(calls) == 2


# ---------------------------------------------------------------------------
# block extraction

def test_extract_two_blocks_of_one_value():
    inst = make_instance([(7,)] * 6, p=1, k=2, B=0)
    blocks, rest = extract_full_blocks(inst)
    assert len(blocks) == 2
    assert rest is None


def test_extract_single_block_hand_trace():
    inst = make_instance([(0,)] * 4 + [(9,), (9,), (9,), (10,)], p=1, k=2, B=1)
    blocks, rest = extract_full_blocks(inst)
    assert len(blocks) == 1
    assert [pt.id for pt in blocks[0]] == [0, 1, 2, 3]
    assert sorted(pt.coords[0] for pt in rest.points) == [9, 9, 9, 10]
    assert rest.k == 1


def test_extract_nothing_when_no_value_reaches_s():
    inst = make_instance([(0,), (0,), (1,), (1,)], p=1, k=1, B=0)  # s = 4
    blocks, rest = extract_full_blocks(inst)
    assert blocks == []
    assert rest == inst


def test_extract_removes_lowest_ids_first():
    rows = [(3,), (5,), (3,), (5,), (3,), (5,)]
    inst = make_instance(rows, p=1, k=3, B=0)  # s = 2
    blocks, rest = extract_full_blocks(inst)
    # first-occurrence order: value 3 then value 5, lowest ids first
    assert [[pt.id for pt in b] for b in blocks] == [[0, 2], [1, 3]]
    assert rest.n == 2 and {pt.id for pt in rest.points} == {4, 5}
    assert rest.k == 1


@given(st.lists(st.integers(0, 2), min_size=2, max_size=12),
       st.integers(1, 4))
@settings(max_examples=200)
def test_extract_blocks_partition_property(vals, k):
    if len(vals) % k:
        k = 1
    inst = make_instance([(v,) for v in vals], p=1, k=k, B=0)
    blocks, rest = extract_full_blocks(inst)
    s = inst.s
    block_ids = [pt.id for blk in blocks for pt in blk]
    assert len(set(block_ids)) == len(block_ids)
    for blk in blocks:
        assert len(blk) == s
        assert len({pt.coords for pt in blk}) == 1
    if rest is None:
        assert sorted(block_ids) == sorted(inst.ids()) and len(blocks) == k
    else:
        assert sorted(block_ids + [pt.id for pt in rest.points]) == sorted(inst.ids())
        assert rest.k == k - len(blocks)
        # no full block survives in the remainder
        from collections import Counter
        assert max(Counter(pt.coords for pt in rest.points).values()) < s
    # deterministic
    blocks2, rest2 = extract_full_blocks(inst)
    assert [[pt.id for pt in b] for b in blocks2] == [[pt.id for pt in b] for b in blocks]
    assert rest2 == rest
