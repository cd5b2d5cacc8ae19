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
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple, Sequence

FERMAT_WEBER_TOL = 1e-9
FERMAT_WEBER_MAX_ITER = 10_000


class InvalidInstanceError(ValueError):
    """Structural requirement on an instance is violated (e.g. k does not divide n)."""


class InvalidClusteringError(ValueError):
    """Clustering does not form an equal partition of the instance ids."""


class Point(NamedTuple):
    """Integer vector plus a stable nonnegative id; ids increase along an instance."""

    coords: tuple[int, ...]
    id: int


class CostValue(NamedTuple):
    """A nonnegative cost: an `int` exactly when the cost is exact, else a float.

    For p in {0, 1} with integral centers every cost is an exact integer of
    any size, with no float copy; for p >= 2 it is a float.
    """

    amount: int | float

    @property
    def exact(self) -> int | None:
        return self.amount if type(self.amount) is int else None

    def __add__(self, other: "CostValue") -> "CostValue":
        return CostValue(self.amount + other.amount)

    def leq(self, bound: int) -> bool:
        """`cost <= bound`; exact for integers, and Python compares int with float exactly."""
        return self.amount <= bound

    def truncated(self, bound: int) -> "CostValue":
        """This cost if it is at most `bound`, else bound + 1."""
        return self if self.leq(bound) else CostValue(bound + 1)


def exact_zero(p: int) -> CostValue:
    return CostValue(0) if p <= 1 else CostValue(0.0)


class Median(NamedTuple):
    """A cluster center. Coordinates are integral except for iterative medians."""

    coords: tuple[float, ...]

    @classmethod
    def from_point(cls, pt: Point) -> "Median":
        return cls(tuple(pt.coords))


class Instance:
    """A nonempty multiset of points with norm index p, cluster count k, and budget B.

    k must be at least 1 and divide n, so the common cluster size s = n/k is
    at least 1; the dimension is read off the first point. Ids increase along
    the points, so point order is id order.

    Immutable, equal and hashed by (points, p, k, B). A plain class rather
    than a NamedTuple, because the cached `by_id` and `groups` live in the
    instance's `__dict__`.
    """

    def __init__(self, points: tuple[Point, ...], p: int, k: int, B: int):
        if p < 0:
            raise InvalidInstanceError(f"norm index p must be >= 0, got {p}")
        if B < 0:
            raise InvalidInstanceError(f"budget B must be >= 0, got {B}")
        if k < 1:
            raise InvalidInstanceError(f"k must be >= 1, got {k}")
        n = len(points)
        if n % k != 0:
            raise InvalidInstanceError(f"n = {n} is not divisible by k = {k}")
        if n < k:
            raise InvalidInstanceError(f"need n >= k for cluster size >= 1 (n={n}, k={k})")
        dim = len(points[0].coords)
        last_id = -1
        for pt in points:
            if len(pt.coords) != dim:
                raise InvalidInstanceError("points of mixed dimension")
            if type(pt.id) is not int or pt.id <= last_id:
                raise InvalidInstanceError("point ids must be increasing nonnegative integers")
            last_id = pt.id
            for c in pt.coords:
                if type(c) is not int:  # bool is an int subclass, and not a coordinate
                    raise InvalidInstanceError("coordinates must be integers")
        if dim < 1:
            raise InvalidInstanceError("dimension must be >= 1")
        self.__dict__.update(points=points, p=p, k=k, B=B, dim=dim)

    def _key(self) -> tuple:
        return (self.points, self.p, self.k, self.B)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"Instance(points={self.points!r}, p={self.p!r}, k={self.k!r}, B={self.B!r})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def s(self) -> int:
        return self.n // self.k

    @cached_property
    def by_id(self) -> dict[int, Point]:
        return {pt.id: pt for pt in self.points}

    @cached_property
    def groups(self) -> list[list[Point]]:
        """`identical_groups(self.points)`, computed once; callers must not mutate it."""
        return identical_groups(self.points)

    def ids(self) -> list[int]:
        return [pt.id for pt in self.points]


def make_instance(rows: Iterable[Sequence[int]], p: int, k: int, B: int,
                  ids: Sequence[int] | None = None) -> Instance:
    """Build an Instance from coordinate rows; ids default to 0..n-1."""
    rows = [tuple(row) for row in rows]
    if ids is None:
        ids = range(len(rows))
    pts = tuple(Point(row, i) for row, i in zip(rows, ids, strict=True))
    return Instance(pts, p=p, k=k, B=B)


class Clustering(NamedTuple):
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

    def validate_equal(self, ids: Iterable[int], k: int) -> None:
        """InvalidClusteringError unless this is a partition of `ids` into k equal clusters."""
        ids = set(ids)
        if self.k != k:
            raise InvalidClusteringError(f"clustering has k={self.k}, needs k={k}")
        if set(self.assignment) != ids:
            raise InvalidClusteringError("clustering ids do not match instance ids")
        sizes = Counter(self.assignment.values())
        s = len(ids) // k
        for idx in range(1, self.k + 1):
            if sizes.get(idx, 0) != s:
                raise InvalidClusteringError(
                    f"cluster {idx} has {sizes.get(idx, 0)} members, expected {s}")


# ---------------------------------------------------------------------------
# distances and costs

def _check_same_dim(a: Sequence, b: Sequence) -> None:
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")


def _center_distance(coords: Sequence[int], center: Sequence[float], p: int) -> int | float:
    # an int exactly when the distance is exact (p = 0, or p = 1 at an integral center)
    _check_same_dim(coords, center)
    if p == 0:
        return sum(1 for a, c in zip(coords, center) if a != c)
    if p == 1:
        total = 0
        for a, c in zip(coords, center):
            if isinstance(c, float) and c.is_integer():
                c = int(c)  # an integral gap stays exact at any size
            total += abs(a - c)
        return total
    acc = sum(abs(a - c) ** p for a, c in zip(coords, center))
    try:
        return acc ** (1.0 / p)
    except OverflowError:  # the power sum is beyond float range: scale by the largest gap
        m = max(abs(a - c) for a, c in zip(coords, center))
        return m * sum((abs(a - c) / m) ** p for a, c in zip(coords, center)) ** (1.0 / p)


def lp_distance(x: Point, y: Point | Median, p: int) -> CostValue:
    """l_p distance to a point or center; exact integer for p in {0, 1} at integral y."""
    return CostValue(_center_distance(x.coords, y.coords, p))


def distance_leq_budget(x: Point, y: Point | Median, p: int, B: int) -> bool:
    """Decide ||x - y||_p <= B in exact integer arithmetic.

    Uses the Hamming count for p = 0 and the pth-power comparison
    sum |dx|^p <= B^p for p >= 1, so no floating point is involved as long
    as y is integral (a point or a data-point median).
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


def cluster_cost(points: Sequence[Point], center: Median, p: int) -> CostValue:
    """Sum of l_p distances from the members to the given center."""
    if not points:
        raise ValueError("cluster_cost on empty collection")
    # plain left-to-right sum, not sum(), whose float rounding may differ
    total = _center_distance(points[0].coords, center.coords, p)
    for pt in points[1:]:
        total += _center_distance(pt.coords, center.coords, p)
    return CostValue(total)


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
        med = Median(tuple(first))
        return med, exact_zero(p)
    if p == 0:
        med = Median(_majority_median(points))
    elif p == 1:
        med = Median(_lower_median(points))
    elif p == 2:
        med = Median(_weiszfeld(points))
    else:
        med = Median(_iterative_lp_median(points, p))
    return med, cluster_cost(points, med, p)


def clustering_cost(inst: Instance, c: Clustering) -> CostValue:
    """Cost of an equal clustering, each cluster priced at its optimum median."""
    c.validate_equal(inst.by_id, inst.k)
    total = exact_zero(inst.p)
    for members in c.clusters():
        pts = [inst.by_id[i] for i in members]
        _, cost = optimum_median(pts, inst.p)
        total = total + cost
    return total


def truncated_cost(inst: Instance, c: Clustering) -> CostValue:
    """Clustering cost truncated at the budget: the cost if <= B, else B + 1."""
    return clustering_cost(inst, c).truncated(inst.B)


def identical_groups(points: Iterable[Point]) -> list[list[Point]]:
    """Maximal groups of identical points in order of first occurrence, each in point order."""
    groups: dict[tuple[int, ...], list[Point]] = {}
    for pt in points:
        groups.setdefault(pt.coords, []).append(pt)
    return list(groups.values())


def extract_full_blocks(inst: Instance) -> tuple[list[tuple[Point, ...]], Instance | None]:
    """Remove blocks of s identical points while any exist; each removal drops k by one.

    Distinct coordinate values are scanned in order of first occurrence and the
    lowest-id copies are removed first, so the result is deterministic. The
    remainder keeps the original ids, point order, p and B; it is None when
    every point lies in a block.
    """
    s = inst.s
    blocks: list[tuple[Point, ...]] = []
    removed: set[int] = set()
    for copies in inst.groups:
        for b in range(len(copies) // s):
            block = tuple(copies[b * s:(b + 1) * s])
            blocks.append(block)
            removed.update(pt.id for pt in block)
    if len(blocks) == inst.k:
        return blocks, None
    remaining = tuple(pt for pt in inst.points if pt.id not in removed)
    return blocks, Instance(remaining, p=inst.p, k=inst.k - len(blocks), B=inst.B)
