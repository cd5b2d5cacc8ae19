import itertools
import random

import pytest

from eqclus.assign import (
    FlowNetwork,
    InfeasibleFlowError,
    assign_to_medians,
    min_cost_flow,
)
from eqclus.core import Median, cluster_cost, make_instance
from eqclus.oracle import min_assignment_cost_exhaustive


def medians(*rows):
    return [Median(tuple(r), "data-point") for r in rows]


# ---------------------------------------------------------------------------
# min-cost flow

def test_single_arc_flow():
    net = FlowNetwork(2, 0, 1)
    net.add_arc(0, 1, 3, 2)
    res = min_cost_flow(net, 3)
    assert res.cost.exact == 6
    assert res.volume == 3
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
        try:
            res = min_cost_flow(net, rng.randint(0, 3))
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
        assert balance[net.target] == res.volume == -balance[net.source]


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
        meds = [Median(tuple(rng.randint(0, 4) for _ in range(d)), "data-point")
                for _ in range(k)]
        _, cost = assign_to_medians(inst, meds)
        want = min_assignment_cost_exhaustive(inst, meds)
        assert cost.exact == want.exact

