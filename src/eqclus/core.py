"""Domain types and exact cost primitives for equal-size k-median clustering.

Points are integer vectors carrying a stable id, so duplicated coordinates
remain distinct elements of an instance. Costs are measured in an l_p norm
chosen per instance: p = 0 is the Hamming norm (number of differing
coordinates), p >= 1 the usual (sum |x[i]|^p)^(1/p). Every combinatorial
decision against the budget B is made in exact integer arithmetic (pth-power
form for p >= 1); floating point only appears in reported costs and in
medians for p >= 2, which have no closed form.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

FERMAT_WEBER_TOL = 1e-9
FERMAT_WEBER_MAX_ITER = 10_000


class InvalidInstanceError(ValueError):
    """Structural requirement on an instance is violated (e.g. k does not divide n)."""


class InvalidClusteringError(ValueError):
    """Clustering does not form an equal partition of the instance ids."""


@dataclass(frozen=True)
class Point:
    """Integer vector plus a stable nonnegative id, unique within an instance."""

    coords: tuple[int, ...]
    id: int


@dataclass(frozen=True)
class CostValue:
    """A nonnegative cost; `exact` carries the integer value when one exists.

    For p in {0, 1} with integral centers all costs are exact integers and
    `value` is just the float image of `exact`. For p >= 2, `exact` is None.
    """

    value: float
    exact: int | None = None

    @classmethod
    def of_int(cls, v: int) -> "CostValue":
        return cls(float(v), int(v))

    @classmethod
    def of_float(cls, v: float) -> "CostValue":
        return cls(float(v), None)

    def __add__(self, other: "CostValue") -> "CostValue":
        if self.exact is not None and other.exact is not None:
            return CostValue.of_int(self.exact + other.exact)
        return CostValue(self.value + other.value, None)

    def leq(self, bound: int) -> bool:
        """Exact `cost <= bound` whenever the exact integer is available."""
        if self.exact is not None:
            return self.exact <= bound
        return self.value <= bound


def exact_zero(p: int) -> CostValue:
    return CostValue.of_int(0) if p <= 1 else CostValue(0.0)


@dataclass(frozen=True)
class Median:
    """A cluster center. Coordinates are integral except for iterative medians."""

    coords: tuple[float, ...]
    provenance: str  # "data-point" | "coordinatewise-exact" | "iterative-approximate"

    @classmethod
    def from_point(cls, pt: Point) -> "Median":
        return cls(tuple(pt.coords), "data-point")


@dataclass(frozen=True)
class Instance:
    """A multiset of points with norm index p, cluster count k, and budget B.

    n must be divisible by k and, for k >= 1, the common cluster size
    s = n/k must be at least 1. k = 0 is permitted only for the empty
    remainder left after removing all points in full blocks.
    """

    points: tuple[Point, ...]
    p: int
    k: int
    B: int
    dim: int = -1

    def __post_init__(self):
        if self.p < 0:
            raise InvalidInstanceError(f"norm index p must be >= 0, got {self.p}")
        if self.B < 0:
            raise InvalidInstanceError(f"budget B must be >= 0, got {self.B}")
        if self.k < 0:
            raise InvalidInstanceError(f"k must be >= 0, got {self.k}")
        n = len(self.points)
        if self.k == 0:
            if n != 0:
                raise InvalidInstanceError("k = 0 requires an empty point set")
        else:
            if n % self.k != 0:
                raise InvalidInstanceError(f"n = {n} is not divisible by k = {self.k}")
            if n < self.k:
                raise InvalidInstanceError(f"need n >= k for cluster size >= 1 (n={n}, k={self.k})")
        dim = self.dim
        if n > 0:
            d0 = len(self.points[0].coords)
            if dim == -1:
                dim = d0
            for pt in self.points:
                if len(pt.coords) != dim:
                    raise InvalidInstanceError("points of mixed dimension")
                if pt.id < 0:
                    raise InvalidInstanceError("point ids must be nonnegative")
                for c in pt.coords:
                    if not isinstance(c, int):
                        raise InvalidInstanceError("coordinates must be integers")
            if dim < 1:
                raise InvalidInstanceError("dimension must be >= 1")
            ids = [pt.id for pt in self.points]
            if len(set(ids)) != n:
                raise InvalidInstanceError("point ids must be unique")
        elif dim == -1:
            dim = 0
        object.__setattr__(self, "dim", dim)

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def s(self) -> int:
        if self.k == 0:
            raise InvalidInstanceError("cluster size undefined for k = 0")
        return self.n // self.k

    @cached_property
    def by_id(self) -> dict[int, Point]:
        return {pt.id: pt for pt in self.points}

    def ids(self) -> list[int]:
        return [pt.id for pt in self.points]


def make_instance(rows: Iterable[Sequence[int]], p: int, k: int, B: int,
                  ids: Sequence[int] | None = None, dim: int = -1) -> Instance:
    """Build an Instance from coordinate rows; ids default to 0..n-1."""
    rows = [tuple(int(c) for c in row) for row in rows]
    if ids is None:
        ids = range(len(rows))
    pts = tuple(Point(row, int(i)) for row, i in zip(rows, ids, strict=True))
    return Instance(pts, p=p, k=k, B=B, dim=dim)


@dataclass(frozen=True)
class Clustering:
    """Map from point id to 1-based cluster index."""

    assignment: Mapping[int, int]
    k: int

    @classmethod
    def from_clusters(cls, clusters: Sequence[Iterable[int]]) -> "Clustering":
        assignment: dict[int, int] = {}
        for idx, members in enumerate(clusters, start=1):
            for pid in members:
                if pid in assignment:
                    raise InvalidClusteringError(f"point id {pid} assigned twice")
                assignment[pid] = idx
        return cls(assignment, len(clusters))

    def clusters(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.k)]
        for pid in sorted(self.assignment):
            idx = self.assignment[pid]
            if not 1 <= idx <= self.k:
                raise InvalidClusteringError(f"cluster index {idx} out of range 1..{self.k}")
            out[idx - 1].append(pid)
        return out

    def validate_equal(self, inst: Instance) -> None:
        if self.k != inst.k:
            raise InvalidClusteringError(f"clustering has k={self.k}, instance k={inst.k}")
        if set(self.assignment) != set(inst.by_id):
            raise InvalidClusteringError("clustering ids do not match instance ids")
        if self.k == 0:
            return
        sizes = Counter(self.assignment.values())
        s = inst.s
        for idx in range(1, self.k + 1):
            if sizes.get(idx, 0) != s:
                raise InvalidClusteringError(
                    f"cluster {idx} has {sizes.get(idx, 0)} members, expected {s}")


# ---------------------------------------------------------------------------
# distances and costs

def _check_same_dim(a: Sequence, b: Sequence) -> None:
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")


def _center_distance(coords: Sequence[int], center: Sequence[float], p: int) -> CostValue:
    _check_same_dim(coords, center)
    if p == 0:
        return CostValue.of_int(sum(1 for a, c in zip(coords, center) if a != c))
    if p == 1:
        total = 0
        integral = True
        for a, c in zip(coords, center):
            total += abs(a - c)
            integral = integral and (isinstance(c, int) or float(c).is_integer())
        if integral:
            return CostValue.of_int(int(round(total)))
        return CostValue.of_float(total)
    acc = sum(abs(a - c) ** p for a, c in zip(coords, center))
    return CostValue.of_float(acc ** (1.0 / p))


def lp_distance(x: Point, y: Point, p: int) -> CostValue:
    """l_p distance between two points; exact integer for p in {0, 1}."""
    return _center_distance(x.coords, y.coords, p)


def distance_leq_budget(x: Point, y: Point, p: int, B: int) -> bool:
    """Decide ||x - y||_p <= B in exact integer arithmetic.

    Uses the Hamming count for p = 0 and the pth-power comparison
    sum |dx|^p <= B^p for p >= 1, so no floating point is involved.
    """
    _check_same_dim(x.coords, y.coords)
    if B < 0:
        return False
    if p == 0:
        return sum(1 for a, b in zip(x.coords, y.coords) if a != b) <= B
    acc = 0
    bound = B ** p
    for a, b in zip(x.coords, y.coords):
        acc += abs(a - b) ** p
        if acc > bound:
            return False
    return True


def distance_to_center(pt: Point, center: Median, p: int) -> CostValue:
    return _center_distance(pt.coords, center.coords, p)


def cluster_cost(points: Sequence[Point], center: Median, p: int) -> CostValue:
    """Sum of l_p distances from the members to the given center."""
    if not points:
        raise ValueError("cluster_cost on empty collection")
    total = _center_distance(points[0].coords, center.coords, p)
    for pt in points[1:]:
        total = total + _center_distance(pt.coords, center.coords, p)
    return total


def _majority_median(points: Sequence[Point]) -> tuple[int, ...]:
    # per coordinate: most frequent value; ties go to the smallest value
    d = len(points[0].coords)
    out = []
    for h in range(d):
        counts = Counter(pt.coords[h] for pt in points)
        best = min(counts.items(), key=lambda kv: (-kv[1], kv[0]))[0]
        out.append(best)
    return tuple(out)


def _lower_median(points: Sequence[Point]) -> tuple[int, ...]:
    d = len(points[0].coords)
    m = len(points)
    out = []
    for h in range(d):
        vals = sorted(pt.coords[h] for pt in points)
        out.append(vals[(m - 1) // 2])
    return tuple(out)


def _weiszfeld(points: Sequence[Point]) -> tuple[float, ...]:
    import numpy as np

    arr = np.asarray([pt.coords for pt in points], dtype=float)
    c = arr.mean(axis=0)
    prev = None
    for _ in range(FERMAT_WEBER_MAX_ITER):
        diff = arr - c
        dist = np.sqrt((diff * diff).sum(axis=1))
        dist = np.maximum(dist, 1e-12)
        w = 1.0 / dist
        c = (arr * w[:, None]).sum(axis=0) / w.sum()
        obj = float(dist.sum())
        if prev is not None and abs(prev - obj) <= FERMAT_WEBER_TOL * max(obj, 1.0):
            break
        prev = obj
    return tuple(float(v) for v in c)


def _iterative_lp_median(points: Sequence[Point], p: int) -> tuple[float, ...]:
    # p >= 3: derivative-free convex minimization of the l_p median objective
    import numpy as np
    from scipy.optimize import minimize

    arr = np.asarray([pt.coords for pt in points], dtype=float)

    def objective(c):
        return float(((np.abs(arr - c) ** p).sum(axis=1) ** (1.0 / p)).sum())

    res = minimize(objective, arr.mean(axis=0), method="Powell",
                   options={"xtol": FERMAT_WEBER_TOL, "ftol": FERMAT_WEBER_TOL,
                            "maxiter": FERMAT_WEBER_MAX_ITER, "maxfev": 200_000})
    return tuple(float(v) for v in res.x)


def optimum_median(points: Sequence[Point], p: int) -> tuple[Median, CostValue]:
    """An optimum (for p in {0, 1}: exact, coordinatewise) median and its cost.

    p = 0 uses the per-coordinate majority value with ties broken toward the
    smallest value; p = 1 the per-coordinate lower median; p >= 2 an iterative
    approximation (exact only when all members coincide).
    """
    if not points:
        raise ValueError("optimum_median on empty collection")
    first = points[0].coords
    for pt in points[1:]:
        _check_same_dim(first, pt.coords)
    if all(pt.coords == first for pt in points):
        med = Median(tuple(first), "data-point")
        return med, exact_zero(p)
    if p == 0:
        med = Median(_majority_median(points), "coordinatewise-exact")
    elif p == 1:
        med = Median(_lower_median(points), "coordinatewise-exact")
    elif p == 2:
        med = Median(_weiszfeld(points), "iterative-approximate")
    else:
        med = Median(_iterative_lp_median(points, p), "iterative-approximate")
    return med, cluster_cost(points, med, p)


def clustering_cost(inst: Instance, c: Clustering) -> CostValue:
    """Cost of an equal clustering, each cluster priced at its optimum median."""
    c.validate_equal(inst)
    total = exact_zero(inst.p)
    for members in c.clusters():
        pts = [inst.by_id[i] for i in members]
        _, cost = optimum_median(pts, inst.p)
        total = total + cost
    return total


def truncated_cost(inst: Instance, c: Clustering) -> CostValue:
    """Clustering cost truncated at the budget: the cost if <= B, else B + 1."""
    cost = clustering_cost(inst, c)
    if cost.leq(inst.B):
        return cost
    return CostValue.of_int(inst.B + 1)


def cost_with_medians(inst: Instance, c: Clustering, medians: Sequence[Median]) -> CostValue:
    """Cost of a clustering priced at the given centers (cluster i at medians[i])."""
    c.validate_equal(inst)
    if len(medians) != c.k:
        raise ValueError(f"need {c.k} medians, got {len(medians)}")
    total = exact_zero(inst.p)
    for members, med in zip(c.clusters(), medians):
        pts = [inst.by_id[i] for i in members]
        total = total + cluster_cost(pts, med, inst.p)
    return total


def identical_groups(points: Iterable[Point]) -> list[list[Point]]:
    """Maximal groups of identical points in order of first occurrence, each by id."""
    groups: dict[tuple[int, ...], list[Point]] = {}
    for pt in points:
        groups.setdefault(pt.coords, []).append(pt)
    return [sorted(group, key=lambda pt: pt.id) for group in groups.values()]


def extract_full_blocks(inst: Instance) -> tuple[list[tuple[Point, ...]], Instance]:
    """Remove blocks of s identical points while any exist; each removal drops k by one.

    Distinct coordinate values are scanned in order of first occurrence and the
    lowest-id copies are removed first, so the result is deterministic. The
    remainder keeps the original ids, point order, p and B.
    """
    if inst.k == 0:
        return [], inst
    s = inst.s
    blocks: list[tuple[Point, ...]] = []
    removed: set[int] = set()
    for copies in identical_groups(inst.points):
        for b in range(len(copies) // s):
            block = tuple(copies[b * s:(b + 1) * s])
            blocks.append(block)
            removed.update(pt.id for pt in block)
    remaining = tuple(pt for pt in inst.points if pt.id not in removed)
    rest = Instance(remaining, p=inst.p, k=inst.k - len(blocks), B=inst.B, dim=inst.dim)
    return blocks, rest
