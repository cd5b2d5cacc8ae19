"""Optimum medians in an l_p norm with p >= 2, in pure Python.

The objective, the sum of l_p distances from a cluster's members to a center,
is convex, and for p >= 2 its minimizer has no closed form. `lp_median` runs
Polak-Ribiere conjugate gradients from the mean, restarted along the gradient
every d steps. Each step is an exact line search: bisection on the slope of
the objective along the step. Descent stops once a step changes the cost by
at most `FERMAT_WEBER_TOL` relative, or after `FERMAT_WEBER_MAX_ITER` steps.

The objective has a kink at each member, and descent only approaches a kink.
So the member nearest the result is returned instead when it is optimal: when
the gradient of the other members' distances there has dual norm (q = p/(p-1))
at most the member's multiplicity, which is the condition for zero to be a
subgradient at a kink.

`core.optimum_median` imports this module on its first p >= 2 median, so no
command on p <= 1 input compiles it.
"""

from __future__ import annotations

from typing import Sequence

from .core import CostValue, Median, Point, cluster_cost, lp_distance

FERMAT_WEBER_TOL = 1e-9
FERMAT_WEBER_MAX_ITER = 10_000
BISECTIONS = 60


def _gradient(rows: Sequence[Sequence[int]], c: Sequence[float], p: int) -> list[float]:
    # gradient at c of the summed l_p distances to the rows; a row at c adds nothing
    out = [0.0] * len(c)
    for x in rows:
        gaps = [a - b for a, b in zip(c, x)]
        norm = sum(abs(g) ** p for g in gaps) ** (1 / p)
        if norm:
            for h, g in enumerate(gaps):
                out[h] += (abs(g) / norm) ** (p - 1) * (1 if g > 0 else -1)
    return out


def _line_search(rows: Sequence[Sequence[int]], c: list[float], step: list[float],
                 p: int) -> list[float]:
    """The minimizer of the objective on the ray c + t * step, t >= 0."""
    def slope(t: float) -> float:
        at = [a + t * b for a, b in zip(c, step)]
        return sum(a * b for a, b in zip(step, _gradient(rows, at, p)))

    lo, hi = 0.0, 1.0
    while slope(hi) < 0:  # the objective grows without bound along any ray
        lo, hi = hi, 2 * hi
    for _ in range(BISECTIONS):
        t = (lo + hi) / 2
        lo, hi = (lo, t) if slope(t) > 0 else (t, hi)
    return [a + (lo + hi) / 2 * b for a, b in zip(c, step)]


def _descend(points: Sequence[Point], p: int) -> tuple[float, ...]:
    rows = [pt.coords for pt in points]
    c = [sum(col) / len(rows) for col in zip(*rows)]
    grad = _gradient(rows, c, p)
    step = [-g for g in grad]
    prev = None
    for it in range(1, FERMAT_WEBER_MAX_ITER + 1):
        c = _line_search(rows, c, step, p)
        new = _gradient(rows, c, p)
        norm2 = sum(g * g for g in grad) if it % len(c) else 0.0  # 0 restarts every d steps
        beta = max(0.0, sum(a * (a - b) for a, b in zip(new, grad)) / norm2) if norm2 else 0.0
        step = [beta * s - g for g, s in zip(new, step)]
        grad = new
        center = Median(tuple(c))
        obj = cluster_cost(points, center, p).amount
        if not obj < float("inf"):  # a power sum overflowed to inf
            raise OverflowError
        if prev is not None and abs(prev - obj) <= FERMAT_WEBER_TOL * max(obj, 1.0):
            break
        prev = obj
    y = min(points, key=lambda pt: lp_distance(pt, center, p).amount).coords
    pull = sum(abs(g) ** (p / (p - 1)) for g in _gradient(rows, y, p)) ** ((p - 1) / p)
    return y if pull <= rows.count(y) else center.coords


def lp_median(points: Sequence[Point], p: int) -> tuple[Median, CostValue]:
    """An optimum median of the members for p >= 2, and its cost.

    OverflowError, naming p, when a power the cost needs is beyond
    floating-point range.
    """
    try:
        med = Median(_descend(points, p))
        return med, cluster_cost(points, med, p)
    except OverflowError:
        raise OverflowError(
            f"at p = {p} the l_p cost needs powers beyond floating-point range") from None
