import itertools
import math
import random
import signal

import pytest

from eqclus import assign
from eqclus.assign import (
    FlowNetwork,
    InfeasibleFlowError,
    assign_to_medians,
    min_cost_flow,
)
from eqclus.core import Median, cluster_cost, make_instance
from eqclus.oracle import min_assignment_cost_exhaustive


def medians(*rows):
    return [Median(tuple(r)) for r in rows]


# ---------------------------------------------------------------------------
# min-cost flow

def test_single_arc_flow():
    net = FlowNetwork(2, 0, 1)
    net.add_arc(0, 1, 3, 2)
    res = min_cost_flow(net, 3)
    assert res.cost.exact == 6
    assert res.flows == (3,)


def test_two_by_two_diagonal_beats_cross():
    # supplies 0->{1,2}, sinks {3,4}->5, unit capacities, costs [[0,5],[5,0]]
    net = FlowNetwork(6, 0, 5)
    net.add_arc(0, 1, 1, 0)
    net.add_arc(0, 2, 1, 0)
    a13 = net.add_arc(1, 3, 1, 0)
    net.add_arc(1, 4, 1, 5)
    net.add_arc(2, 3, 1, 5)
    a24 = net.add_arc(2, 4, 1, 0)
    net.add_arc(3, 5, 1, 0)
    net.add_arc(4, 5, 1, 0)
    res = min_cost_flow(net, 2)
    # both matchings cost 0 and 10; the diagonal wins
    assert res.cost.exact == 0
    assert res.flows[a13] == 1 and res.flows[a24] == 1


def test_flow_volume_beyond_capacity_is_infeasible():
    net = FlowNetwork(2, 0, 1)
    net.add_arc(0, 1, 3, 2)
    with pytest.raises(InfeasibleFlowError):
        min_cost_flow(net, 4)


def test_negative_cost_arc_rejected_at_construction():
    net = FlowNetwork(2, 0, 1)
    with pytest.raises(ValueError):
        net.add_arc(0, 1, 1, -1)


def test_flow_conservation_and_integrality():
    rng = random.Random(7)
    for trial in range(20):
        nodes = rng.randint(4, 7)
        net = FlowNetwork(nodes, 0, nodes - 1)
        for _ in range(rng.randint(4, 12)):
            a = rng.randrange(nodes - 1)
            b = rng.randrange(1, nodes)
            if a == b:
                continue
            net.add_arc(a, b, rng.randint(0, 3), rng.randint(0, 9))
        volume = rng.randint(0, 3)
        try:
            res = min_cost_flow(net, volume)
        except InfeasibleFlowError:
            continue
        balance = [0] * nodes
        for f, arc in zip(res.flows, net.arcs):
            assert isinstance(f, int) and 0 <= f <= arc.capacity
            balance[arc.tail] -= f
            balance[arc.head] += f
        for v in range(nodes):
            if v not in (net.source, net.target):
                assert balance[v] == 0
        assert balance[net.target] == volume == -balance[net.source]


# ---------------------------------------------------------------------------
# equal assignment to fixed centers

def test_assignment_separated_pairs():
    inst = make_instance([(0,), (0,), (10,), (10,)], p=1, k=2, B=0)
    clustering, cost = assign_to_medians(inst, medians((0,), (10,)))
    assert cost.exact == 0
    assert clustering.clusters() == [[0, 1], [2, 3]]


def test_assignment_minimizes_over_equal_bipartitions():
    inst = make_instance([(0,), (1,), (2,), (9,)], p=1, k=2, B=0)
    meds = medians((0,), (9,))
    clustering, cost = assign_to_medians(inst, meds)
    # independent check: all 3 equal bipartitions cost 8, 10, 24
    costs = []
    ids = [0, 1, 2, 3]
    for left in itertools.combinations(ids, 2):
        if 0 not in left:
            continue
        right = [i for i in ids if i not in left]
        c = sum(abs(inst.by_id[i].coords[0] - 0) for i in left) + \
            sum(abs(inst.by_id[i].coords[0] - 9) for i in right)
        costs.append(c)
    assert sorted(costs) == [8, 10, 24]
    assert cost.exact == 8
    assert clustering.clusters() == [[0, 1], [2, 3]]


def test_assignment_k1_equals_cluster_cost():
    inst = make_instance([(0,), (4,), (5,)], p=1, k=1, B=0)
    med = medians((2,))
    clustering, cost = assign_to_medians(inst, med)
    assert clustering.clusters() == [[0, 1, 2]]
    assert cost.exact == cluster_cost(list(inst.points), med[0], 1).exact == 7


def test_assignment_requires_k_medians():
    inst = make_instance([(0,), (1,)], p=1, k=2, B=0)
    with pytest.raises(ValueError):
        assign_to_medians(inst, medians((0,)))
    # k medians, but of the wrong dimension
    with pytest.raises(ValueError):
        assign_to_medians(inst, medians((0, 0), (1, 1)))


@pytest.mark.parametrize("p", [0, 1])
def test_assignment_matches_exhaustive_minimum(p):
    rng = random.Random(100 + p)
    for _ in range(25):
        k = rng.choice([1, 2, 4])
        s = rng.choice([1, 2])
        n = k * s
        if n > 8:
            continue
        d = rng.randint(1, 2)
        inst = make_instance(
            [[rng.randint(0, 4) for _ in range(d)] for _ in range(n)], p=p, k=k, B=0)
        meds = [Median(tuple(rng.randint(0, 4) for _ in range(d)))
                for _ in range(k)]
        _, cost = assign_to_medians(inst, meds)
        want = min_assignment_cost_exhaustive(inst, meds)
        assert cost.exact == want.exact


@pytest.mark.parametrize("p", [0, 1])
def test_grouped_assignment_matches_exhaustive_on_repeated_points(p):
    rng = random.Random(300 + p)
    for _ in range(30):
        k, s = rng.choice([(2, 2), (2, 3), (2, 4), (4, 2), (3, 2)])
        d = rng.randint(1, 2)
        vectors = [[rng.randint(0, 3) for _ in range(d)] for _ in range(rng.randint(2, 3))]
        inst = make_instance([rng.choice(vectors) for _ in range(k * s)], p=p, k=k, B=0)
        meds = [Median(tuple(rng.randint(0, 3) for _ in range(d)))
                for _ in range(k)]
        clustering, cost = assign_to_medians(inst, meds)
        clustering.validate_equal(inst.ids(), inst.k)
        assert cost.exact == min_assignment_cost_exhaustive(inst, meds).exact


def capture_networks(monkeypatch):
    nets = []

    def capture(net, volume):
        nets.append(net)
        return min_cost_flow(net, volume)

    monkeypatch.setattr(assign, "min_cost_flow", capture)
    return nets


def test_flow_has_one_supply_node_per_distinct_point(monkeypatch):
    nets = capture_networks(monkeypatch)
    inst = make_instance([(0, 0), (5, 5), (0, 0), (5, 5), (0, 0), (1, 0)], p=1, k=2, B=0)
    _, cost = assign_to_medians(inst, medians((0, 0), (5, 5)))
    assert cost.exact == 9
    assert len(nets) == 1 and nets[0].num_nodes == 3 + 2 + 2


@pytest.mark.parametrize("p", [0, 1, 2])
def test_budget_keeps_only_arcs_within_budget(monkeypatch, p):
    # centers 10 apart in every coordinate, each with up to two points moved
    # by 1 in one coordinate: every group lies within B = 1 of exactly one
    # center (Hamming distance d >= 2 > B from the others for p = 0)
    nets = capture_networks(monkeypatch)
    rng = random.Random(500 + p)
    for _ in range(10):
        k, d = rng.randint(1, 4), rng.randint(2, 3)
        centers = [(10 * c,) * d for c in range(k)]
        rows = []
        for c in centers:
            moves = rng.sample([(h, sign) for h in range(d) for sign in (1, -1)], rng.randint(0, 2))
            rows += [c] * (5 - len(moves))
            rows += [tuple(x + sign * (h == i) for i, x in enumerate(c)) for h, sign in moves]
        inst = make_instance(rows, p=p, k=k, B=1)
        g = len(set(rows))
        _, pruned = assign_to_medians(inst, medians(*centers), budget=1)
        _, dense = assign_to_medians(inst, medians(*centers))
        assert len(nets[-2].arcs) == 2 * g + k
        assert len(nets[-1].arcs) == g * k + g + k
        assert pruned == dense


def test_group_beyond_budget_of_every_center_is_infeasible(monkeypatch):
    nets = capture_networks(monkeypatch)
    inst = make_instance([(0,), (0,), (0,), (7,)], p=1, k=1, B=1)
    with pytest.raises(InfeasibleFlowError):
        assign_to_medians(inst, medians((0,)), budget=1)
    assert nets == []  # decided before any flow runs


def test_identical_points_fill_clusters_lowest_id_first():
    # four copies of (0,) and two of (3,); the zeros split 3 / 1
    inst = make_instance([(0,), (3,), (0,), (0,), (3,), (0,)], p=1, k=2, B=0,
                         ids=[1, 2, 4, 5, 8, 9])
    clustering, cost = assign_to_medians(inst, medians((0,), (3,)))
    assert cost.exact == 3
    assert clustering.clusters() == [[1, 4, 5], [2, 8, 9]]


def test_float_costs_terminate_at_the_exhaustive_minimum():
    # p = 2: rounded float potentials once left reduced costs slightly
    # negative and Dijkstra never returned
    rows = [(0, -1), (2, 2), (-2, 0), (1, 2), (0, 0), (1, -1)]
    centers = [(-1, 1), (-1, 0)]
    inst = make_instance(rows, p=2, k=2, B=0)

    def timeout(signum, frame):
        raise TimeoutError("min_cost_flow did not return")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.setitimer(signal.ITIMER_REAL, 5)
    try:
        clustering, cost = assign_to_medians(inst, medians(*centers))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    clustering.validate_equal(inst.ids(), inst.k)
    want = min(sum(math.dist(rows[i], centers[0] if i in first else centers[1])
                   for i in range(6))
               for first in itertools.combinations(range(6), 3))
    assert cost.exact is None
    assert abs(cost.amount - want) <= 1e-9
