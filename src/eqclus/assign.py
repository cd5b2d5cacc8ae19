"""Minimum-cost flow and optimal equal-size assignment of points to fixed centers.

The equal assignment is solved as a transportation problem over the distinct
coordinate vectors: each group of identical points supplies as many units as
it has members, every center sinks exactly s units. With integral capacities
the successive-shortest-path optimum is integral, which makes it equivalent
to a minimum-weight perfect matching on a bipartite graph with one node per
point and s copies of every center, at the cost of one node per distinct
vector and k sink nodes. Identical points are interchangeable, so the group
flows expand back to point ids without changing the cost.
"""

from __future__ import annotations

import heapq
from typing import NamedTuple, Sequence

from .core import (
    Clustering,
    CostValue,
    Instance,
    Median,
    distance_leq_budget,
    lp_distance,
)


class InfeasibleFlowError(ValueError):
    """The requested flow volume exceeds the maximum flow of the network."""


class Arc(NamedTuple):
    tail: int
    head: int
    capacity: int
    cost: int | float


class FlowNetwork:
    """Directed graph with integer capacities and nonnegative arc costs."""

    def __init__(self, num_nodes: int, source: int, target: int):
        if not (0 <= source < num_nodes and 0 <= target < num_nodes):
            raise ValueError("source/target out of range")
        if source == target:
            raise ValueError("source and target must differ")
        self.num_nodes = num_nodes
        self.source = source
        self.target = target
        self.arcs: list[Arc] = []

    def add_arc(self, tail: int, head: int, capacity: int, cost: int | float) -> int:
        if not (0 <= tail < self.num_nodes and 0 <= head < self.num_nodes):
            raise ValueError("arc endpoint out of range")
        if not isinstance(capacity, int) or capacity < 0:
            raise ValueError("capacity must be a nonnegative integer")
        if cost < 0:
            raise ValueError("negative-cost arcs are rejected")
        self.arcs.append(Arc(tail, head, capacity, cost))
        return len(self.arcs) - 1


class FlowResult(NamedTuple):
    flows: tuple[int, ...]  # per arc, in insertion order
    cost: CostValue


def min_cost_flow(net: FlowNetwork, volume: int) -> FlowResult:
    """Integral flow of exactly `volume` units at minimum cost.

    Successive shortest paths with node potentials; Dijkstra ties resolve to
    the lowest node index, so results are deterministic in arc order.
    Raises InfeasibleFlowError when the maximum flow is below `volume`.
    """
    if volume < 0:
        raise ValueError("volume must be >= 0")
    n = net.num_nodes
    # residual arcs: even index forward, odd index its reverse
    to: list[int] = []
    cap: list[int] = []
    cost: list[int | float] = []
    adj: list[list[int]] = [[] for _ in range(n)]
    for arc in net.arcs:
        adj[arc.tail].append(len(to))
        to.append(arc.head)
        cap.append(arc.capacity)
        cost.append(arc.cost)
        adj[arc.head].append(len(to))
        to.append(arc.tail)
        cap.append(0)
        cost.append(-arc.cost)

    potential: list[int | float] = [0] * n
    shipped = 0
    while shipped < volume:
        dist: list[int | float | None] = [None] * n
        prev_arc: list[int] = [-1] * n
        dist[net.source] = 0
        heap: list[tuple[int | float, int]] = [(0, net.source)]
        while heap:
            d, u = heapq.heappop(heap)
            if dist[u] is None or d > dist[u]:
                continue
            for aid in adj[u]:
                if cap[aid] <= 0:
                    continue
                v = to[aid]
                # float costs (p >= 2) can round a zero reduced cost to a tiny
                # negative one, which would let Dijkstra re-relax a cycle forever
                reduced = cost[aid] + potential[u] - potential[v]
                nd = d + reduced if reduced > 0 else d
                if dist[v] is None or nd < dist[v]:
                    dist[v] = nd
                    prev_arc[v] = aid
                    heapq.heappush(heap, (nd, v))
        if dist[net.target] is None:
            raise InfeasibleFlowError(
                f"maximum flow {shipped} is less than requested volume {volume}")
        for v in range(n):
            if dist[v] is not None:
                potential[v] += dist[v]
        # bottleneck along the shortest path, capped by remaining volume
        push = volume - shipped
        v = net.target
        while v != net.source:
            aid = prev_arc[v]
            push = min(push, cap[aid])
            v = to[aid ^ 1]
        v = net.target
        while v != net.source:
            aid = prev_arc[v]
            cap[aid] -= push
            cap[aid ^ 1] += push
            v = to[aid ^ 1]
        shipped += push

    flows = tuple(cap[2 * i + 1] for i in range(len(net.arcs)))
    total: int | float = 0
    for f, arc in zip(flows, net.arcs):
        total += f * arc.cost
    return FlowResult(flows, CostValue(total))


def assign_to_medians(inst: Instance, medians: Sequence[Median],
                      budget: int | None = None) -> tuple[Clustering, CostValue]:
    """Equal k-clustering minimizing total distance to the given centers.

    The flow runs over groups of identical points; within a group the lowest
    ids go to the lowest-indexed centers the group ships to. The reported cost
    is measured against the given centers, not re-optimized.

    With a budget, a group gets an arc only to the centers within distance
    `budget` of it, decided exactly by `distance_leq_budget` (the centers
    must be integral). No point of an assignment costing at most `budget` is
    farther than that from its center, so whenever such an assignment exists
    the pruned optimum equals the dense one. When none exists the flow may
    fail instead: InfeasibleFlowError is raised, at once when some group has
    no center within budget, else by the flow.
    """
    k = inst.k
    if len(medians) != k:
        raise ValueError(f"need {k} medians, got {len(medians)}")
    for med in medians:
        if len(med.coords) != inst.dim:
            raise ValueError("median dimension does not match instance")
    groups = inst.groups
    g = len(groups)
    source = 0
    target = g + k + 1
    net = FlowNetwork(g + k + 2, source, target)
    for a, grp in enumerate(groups):
        net.add_arc(source, 1 + a, len(grp), 0)
    group_arcs: list[list[tuple[int, int]]] = []  # per group: (cluster index, arc id)
    for a, grp in enumerate(groups):
        rep = grp[0]
        arcs = [(j, net.add_arc(1 + a, 1 + g + j, len(grp), lp_distance(rep, med, inst.p).amount))
                for j, med in enumerate(medians)
                if budget is None or distance_leq_budget(rep, med, inst.p, budget)]
        if not arcs:
            raise InfeasibleFlowError(
                f"points at {rep.coords} lie farther than {budget} from every center")
        group_arcs.append(arcs)
    for j in range(k):
        net.add_arc(1 + g + j, target, inst.s, 0)
    result = min_cost_flow(net, inst.n)
    assignment: dict[int, int] = {}
    for grp, arcs in zip(groups, group_arcs):
        members = iter(grp)  # sorted by id
        for j, aid in arcs:  # in center order
            for _ in range(result.flows[aid]):
                assignment[next(members).id] = j + 1
    return Clustering(assignment, k), result.cost

