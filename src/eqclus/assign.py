"""Minimum-cost flow and optimal equal-size assignment of points to fixed centers.

The equal assignment is solved as a transportation problem: every point
supplies one unit, every center sinks exactly s units. With integral
capacities the successive-shortest-path optimum is integral, which makes it
equivalent to a minimum-weight perfect matching on a bipartite graph with
s copies of every center, at the cost of only k sink nodes.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Sequence

from .core import (
    Clustering,
    CostValue,
    Instance,
    Median,
    Point,
    distance_to_center,
    exact_zero,
)


class InfeasibleFlowError(ValueError):
    """The requested flow volume exceeds the maximum flow of the network."""


@dataclass(frozen=True)
class Arc:
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


@dataclass(frozen=True)
class FlowResult:
    flows: tuple[int, ...]  # per arc, in insertion order
    cost: CostValue
    volume: int


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
                nd = d + cost[aid] + potential[u] - potential[v]
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
    if isinstance(total, int):
        cv = CostValue.of_int(total)
    else:
        cv = CostValue.of_float(total)
    return FlowResult(flows, cv, shipped)


def assign_to_medians(inst: Instance, medians: Sequence[Median]) -> tuple[Clustering, CostValue]:
    """Equal k-clustering minimizing total distance to the given centers.

    The reported cost is measured against the given centers, not re-optimized.
    """
    k = inst.k
    if len(medians) != k:
        raise ValueError(f"need {k} medians, got {len(medians)}")
    for med in medians:
        if len(med.coords) != inst.dim:
            raise ValueError("median dimension does not match instance")
    n = inst.n
    s = inst.s
    source = 0
    target = n + k + 1
    net = FlowNetwork(n + k + 2, source, target)
    point_arcs: dict[int, tuple[int, int]] = {}  # arc id -> (point pos, median pos)
    for i in range(n):
        net.add_arc(source, 1 + i, 1, 0)
    for i, pt in enumerate(inst.points):
        for j, med in enumerate(medians):
            aid = net.add_arc(1 + i, 1 + n + j, 1, _arc_cost(pt, med, inst.p))
            point_arcs[aid] = (i, j)
    for j in range(k):
        net.add_arc(1 + n + j, target, s, 0)
    result = min_cost_flow(net, n)
    assignment: dict[int, int] = {}
    for aid, (i, j) in point_arcs.items():
        if result.flows[aid] == 1:
            assignment[inst.points[i].id] = j + 1
    clustering = Clustering(assignment, k)
    cost = exact_zero(inst.p)
    for pid, idx in assignment.items():
        cost = cost + distance_to_center(inst.by_id[pid], medians[idx - 1], inst.p)
    return clustering, cost


def _arc_cost(pt: Point, med: Median, p: int) -> int | float:
    cv = distance_to_center(pt, med, p)
    return cv.exact if cv.exact is not None else cv.value

