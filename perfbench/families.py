"""Seeded instance families of the benchmark, built without the package under test.

The planted families have an optimum known from their construction, which
the benchmark's output checks rely on; test_families.py confirms it by
exhaustive search on shrunken members of the same construction. The random
family has no known optimum; its outputs are checked against properties that
every optimum has.

An instance is a plain dict, so the families and the text writer below do not
depend on the code the benchmark measures.
"""

from __future__ import annotations

import random

CENTER_SPACING = 10   # centers differ by a multiple of this in every coordinate


def _centers(rng: random.Random, k: int, d: int) -> list[list[int]]:
    # one random permutation of 0..k-1 per coordinate: any two centers differ
    # by at least CENTER_SPACING in every coordinate, so they are at l1
    # distance >= CENTER_SPACING*d and Hamming distance d, and a point moved
    # by 1 from its center coincides with no other center or moved point
    perms = [rng.sample(range(k), k) for _ in range(d)]
    return [[CENTER_SPACING * perms[h][i] for h in range(d)] for i in range(k)]


def _moved(rng: random.Random, center: list[int], count: int) -> list[list[int]]:
    # `count` distinct points at distance exactly 1 (l1 and Hamming) from center
    d = len(center)
    moves = rng.sample([(h, sign) for h in range(d) for sign in (1, -1)], count)
    out = []
    for h, sign in moves:
        row = list(center)
        row[h] += sign
        out.append(row)
    return out


def planted(rng: random.Random, k: int, s: int, d: int, p: int, B: int,
            moved_per_cluster: list[int]) -> dict:
    """k clusters of s points: s - m copies of a center plus m points moved by 1.

    The planted clustering costs one per moved point, M = sum(moved_per_cluster),
    and for p in {0, 1} this is the optimum in the two shapes used here. A
    cluster pays at least one per member off its (integral) median. If every
    m is the same m >= 1, no vector occurs more than s - m times, so every
    cluster pays at least m. If every m is 0 or 1, only the centers with m = 0
    occur s times, so at most that many clusters are free and the M others
    pay at least one each. Points are shuffled, so ids carry no cluster
    structure.
    """
    rows: list[list[int]] = []
    for center, m in zip(_centers(rng, k, d), moved_per_cluster):
        rows.extend([list(center) for _ in range(s - m)])
        rows.extend(_moved(rng, center, m))
    rng.shuffle(rows)
    return {"p": p, "k": k, "B": B, "rows": rows, "opt": sum(moved_per_cluster)}


def large_instance(rng: random.Random, index: int, k: int, s: int, d: int,
                   B: int, p: int) -> dict:
    """Large regime (s >= 4B+1): YES (Opt = k) at even index, NO (Opt = 2k) at odd."""
    per_cluster = 1 if index % 2 == 0 else 2
    inst = planted(rng, k, s, d, p, B, [per_cluster] * k)
    inst["yes"] = inst["opt"] <= B
    return inst


def generic_instance(rng: random.Random, index: int, k: int, s: int, d: int,
                     B: int) -> dict:
    """Small regime: k - 2 full blocks and two clusters with one moved point (Opt = 2).

    p = 1 at even index, p = 0 at odd.
    """
    return planted(rng, k, s, d, 1 - index % 2, B, [1, 1] + [0] * (k - 2))


def exhaustive_instance(rng: random.Random, index: int, n: int, k: int, d: int,
                        bounds: tuple[int, int]) -> dict:
    """Uniform coordinates in [-b, b]: p = 1 with b = bounds[0] at even index,
    p = 0 with b = bounds[1] at odd.

    Under the Hamming norm a wide range makes almost every pair of values
    differ, so the p = 0 range is narrower.
    """
    p = 1 - index % 2
    b = bounds[1 - p]
    rows = [[rng.randint(-b, b) for _ in range(d)] for _ in range(n)]
    return {"p": p, "k": k, "B": 0, "rows": rows}


# workload -> (family, its shape, instances per pass); README.md gives the
# reasons for each choice
WORKLOADS = {
    "large": (large_instance, dict(k=10, s=41, d=2, B=10, p=1), 8),
    "generic": (generic_instance, dict(k=120, s=6, d=4, B=2), 24),
    "exhaustive": (exhaustive_instance, dict(n=12, k=3, d=2, bounds=(10, 3)), 96),
}


def make(workload: str, seed: int) -> list[dict]:
    """The fixed list of instances one run of `workload` passes over."""
    family, shape, count = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    return [family(rng, i, **shape) for i in range(count)]


def instance_text(inst: dict) -> str:
    """The instance in the package's plain-text format (`ECL 1`, header, rows)."""
    rows = inst["rows"]
    lines = ["ECL 1", f"{inst['p']} {len(rows[0])} {len(rows)} {inst['k']} {inst['B']}"]
    lines.extend(" ".join(map(str, row)) for row in rows)
    return "\n".join(lines) + "\n"


def parse_assignment(text: str, n: int, k: int) -> list[int]:
    """0-based cluster of each point from a clustering file; checks it is equal-size.

    Raises ValueError unless the file is `ASSIGN 1 n k` followed by n indices
    in 1..k, each used exactly n/k times.
    """
    tokens = text.split()
    if tokens[:4] != ["ASSIGN", "1", str(n), str(k)] or len(tokens) != 4 + n:
        raise ValueError(f"not a clustering of {n} points into {k} clusters")
    labels = [int(t) - 1 for t in tokens[4:]]
    sizes = [0] * k
    for c in labels:
        if not 0 <= c < k:
            raise ValueError(f"cluster index {c + 1} out of range 1..{k}")
        sizes[c] += 1
    if any(size != n // k for size in sizes):
        raise ValueError(f"cluster sizes {sizes} are not all {n // k}")
    return labels
