"""Lossy (factor-2) and exact kernelization with solution lifting.

The lossy pipeline: in the large regime (s >= 4B+1) the instance is solved
outright and replaced by a constant-size stand-in; otherwise the instance is
dimension-reduced exactly, full blocks of s identical points are greedily
stripped into free clusters with the budget doubled to pay for the
approximation, and the survivors are dimension-reduced once more so the
kernel's size depends on the budget alone. Every branch records what the
lifting step needs; lifting itself is purely index-based because both
reductions and the block removal preserve point ids.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import IO

from .core import (
    Clustering,
    Instance,
    InvalidClusteringError,
    extract_full_blocks,
    make_instance,
)
from .dimreduce import ReduceMap, reduce_dimension
from .exact_large import solve_large
from .formats import FormatError

BRANCH_LARGE_YES = "large-yes"
BRANCH_LARGE_NO = "large-no"
BRANCH_DIMREDUCE_NO = "dimreduce-no"
BRANCH_EMPTY_AFTER_GREEDY = "empty-after-greedy"
BRANCH_KPRIME_TOO_BIG = "kprime-too-big"
BRANCH_GENERIC = "generic"

CONTEXT_FORMAT = "ECLCTX"
CONTEXT_VERSION = 1


@dataclass(frozen=True)
class LiftContext:
    """Everything needed to map a kernel clustering back to the original instance."""

    branch: str
    original: Instance
    kernel: Instance
    blocks: tuple[tuple[int, ...], ...] | None = None  # removed block ids, removal order
    first_map: ReduceMap | None = None
    second_map: ReduceMap | None = None
    solved: Clustering | None = None                   # precomputed optimum (large-yes)


def trivial_no_instance(p: int) -> Instance:
    """Two distinct points, one cluster, budget 0: optimum cost is 1 > B."""
    return make_instance([(0,), (1,)], p=p, k=1, B=0)


def trivial_yes_instance(p: int) -> Instance:
    """One point, one cluster, budget 0: optimum cost is 0."""
    return make_instance([(0,)], p=p, k=1, B=0)


def _arbitrary_clustering(inst: Instance) -> Clustering:
    ids = sorted(inst.by_id)
    s = inst.s
    return Clustering.from_clusters([ids[i * s:(i + 1) * s] for i in range(inst.k)])


def lossy_kernelize(inst: Instance) -> tuple[Instance, LiftContext]:
    """Reduce to an instance whose size is bounded by the budget alone.

    Any c-approximate solution of the output lifts (via lift_solution) to a
    2c-approximate solution of the input, measured in budget-truncated cost.
    On the generic branch the output has at most 8B^2 points, at most 2B
    clusters, and the doubled budget B' = 2B.
    """
    p = inst.p
    if inst.s >= 4 * inst.B + 1:
        solved = solve_large(inst)
        if solved is None:
            kernel = trivial_no_instance(p)
            return kernel, LiftContext(BRANCH_LARGE_NO, inst, kernel)
        clustering, _ = solved
        kernel = trivial_yes_instance(p)
        return kernel, LiftContext(BRANCH_LARGE_YES, inst, kernel, solved=clustering)

    first = reduce_dimension(inst)
    if first is None:
        kernel = trivial_no_instance(p)
        return kernel, LiftContext(BRANCH_DIMREDUCE_NO, inst, kernel)
    reduced, first_map = first

    blocks, rest = extract_full_blocks(reduced)
    block_ids = tuple(tuple(pt.id for pt in blk) for blk in blocks)
    b_doubled = 2 * inst.B
    if rest.k > b_doubled:
        kernel = trivial_no_instance(p)
        return kernel, LiftContext(BRANCH_KPRIME_TOO_BIG, inst, kernel)
    if rest.k == 0:
        kernel = trivial_yes_instance(p)
        return kernel, LiftContext(BRANCH_EMPTY_AFTER_GREEDY, inst, kernel,
                                   blocks=block_ids, first_map=first_map)

    rest = Instance(rest.points, p=p, k=rest.k, B=b_doubled, dim=rest.dim)
    second = reduce_dimension(rest)
    if second is None:
        kernel = trivial_no_instance(p)
        return kernel, LiftContext(BRANCH_DIMREDUCE_NO, inst, kernel)
    kernel, second_map = second
    return kernel, LiftContext(BRANCH_GENERIC, inst, kernel, blocks=block_ids,
                               first_map=first_map, second_map=second_map)


def lift_solution(ctx: LiftContext, kernel_clustering: Clustering | None) -> Clustering:
    """Map a kernel clustering back to an equal k-clustering of the original.

    The kernel clustering is ignored on every branch that already settled the
    instance; on the generic branch its cluster indices transfer directly to
    the surviving original ids and the removed blocks are prepended as free
    clusters.
    """
    if ctx.branch == BRANCH_LARGE_YES:
        assert ctx.solved is not None
        return ctx.solved
    if ctx.branch in (BRANCH_LARGE_NO, BRANCH_DIMREDUCE_NO, BRANCH_KPRIME_TOO_BIG):
        return _arbitrary_clustering(ctx.original)
    if ctx.branch == BRANCH_EMPTY_AFTER_GREEDY:
        assert ctx.blocks is not None
        return Clustering.from_clusters(ctx.blocks)
    assert ctx.branch == BRANCH_GENERIC and ctx.blocks is not None
    if kernel_clustering is None:
        raise InvalidClusteringError("generic branch needs a kernel clustering")
    kernel_clustering.validate_equal(ctx.kernel)
    t = len(ctx.blocks)
    assignment = {pid: idx for idx, members in enumerate(ctx.blocks, start=1)
                  for pid in members}
    for pid, idx in kernel_clustering.assignment.items():
        assignment[pid] = t + idx
    return Clustering(assignment, ctx.original.k)


def exact_kernelize(inst: Instance) -> Instance:
    """Decision-equivalent instance with at most 4Bk points, or a trivial stand-in.

    The large regime is solved outright; otherwise one exact dimension
    reduction bounds the dimension and coordinate magnitudes in k and B.
    """
    if inst.s >= 4 * inst.B + 1:
        if solve_large(inst) is None:
            return trivial_no_instance(inst.p)
        return trivial_yes_instance(inst.p)
    reduced = reduce_dimension(inst)
    if reduced is None:
        return trivial_no_instance(inst.p)
    return reduced[0]


# ---------------------------------------------------------------------------
# serialization, so kernelize / lift can run as separate CLI invocations

def _instance_to_dict(inst: Instance) -> dict:
    return {"p": inst.p, "k": inst.k, "B": inst.B, "dim": inst.dim,
            "ids": [pt.id for pt in inst.points],
            "coords": [list(pt.coords) for pt in inst.points]}


def _instance_from_dict(d: dict) -> Instance:
    _check_fields(d, _INSTANCE_FIELDS)
    return make_instance(d["coords"], p=d["p"], k=d["k"], B=d["B"],
                         ids=d["ids"], dim=d["dim"])


def _map_to_dict(m: ReduceMap | None) -> dict | None:
    if m is None:
        return None
    return {"p": m.p,
            "parts": [list(x) for x in m.parts],
            "r_sets": [list(x) for x in m.r_sets],
            "shifts": [list(x) for x in m.shifts],
            "codebooks": ([[list(b) for b in part] for part in m.codebooks]
                          if m.codebooks is not None else None),
            "dim_in": m.dim_in, "dim_out": m.dim_out,
            "sentinel_width": m.sentinel_width, "step": m.step}


def _map_from_dict(d: dict | None) -> ReduceMap | None:
    if d is None:
        return None
    _check_fields(d, _MAP_FIELDS)
    return ReduceMap(p=d["p"],
                     parts=tuple(tuple(x) for x in d["parts"]),
                     r_sets=tuple(tuple(x) for x in d["r_sets"]),
                     shifts=tuple(tuple(x) for x in d["shifts"]),
                     codebooks=(tuple(tuple(tuple(b) for b in part)
                                      for part in d["codebooks"])
                                if d["codebooks"] is not None else None),
                     dim_in=d["dim_in"], dim_out=d["dim_out"],
                     sentinel_width=d["sentinel_width"], step=d["step"])


def save_context(ctx: LiftContext, fp: IO[str]) -> None:
    doc = {
        "format": CONTEXT_FORMAT,
        "version": CONTEXT_VERSION,
        "branch": ctx.branch,
        "original": _instance_to_dict(ctx.original),
        "kernel": _instance_to_dict(ctx.kernel),
        "blocks": [list(b) for b in ctx.blocks] if ctx.blocks is not None else None,
        "first_map": _map_to_dict(ctx.first_map),
        "second_map": _map_to_dict(ctx.second_map),
        "solved": ({"k": ctx.solved.k,
                    "assignment": {str(i): c for i, c in ctx.solved.assignment.items()}}
                   if ctx.solved is not None else None),
    }
    json.dump(doc, fp, indent=1)
    fp.write("\n")


# JSON type of every field save_context writes, per object
_OPTIONAL_LIST = (list, type(None))
_OPTIONAL_DICT = (dict, type(None))
_CONTEXT_FIELDS = {"branch": str, "original": dict, "kernel": dict, "blocks": _OPTIONAL_LIST,
                   "first_map": _OPTIONAL_DICT, "second_map": _OPTIONAL_DICT,
                   "solved": _OPTIONAL_DICT}
_INSTANCE_FIELDS = {"p": int, "k": int, "B": int, "dim": int, "ids": list, "coords": list}
_MAP_FIELDS = {"p": int, "parts": list, "r_sets": list, "shifts": list,
               "codebooks": _OPTIONAL_LIST, "dim_in": int, "dim_out": int,
               "sentinel_width": int, "step": int}
_SOLVED_FIELDS = {"k": int, "assignment": dict}
# the field each branch's lifting reads besides the instances
_BRANCH_NEEDS = {BRANCH_LARGE_YES: "solved", BRANCH_LARGE_NO: None, BRANCH_DIMREDUCE_NO: None,
                 BRANCH_KPRIME_TOO_BIG: None, BRANCH_EMPTY_AFTER_GREEDY: "blocks",
                 BRANCH_GENERIC: "blocks"}


def _check_fields(d: dict, fields: dict) -> None:
    for key, kind in fields.items():
        if key not in d:
            raise FormatError(f"lift context: missing field {key!r}")
        if isinstance(d[key], bool) or not isinstance(d[key], kind):
            raise FormatError(f"lift context: field {key!r} has the wrong type")


def load_context(fp: IO[str]) -> LiftContext:
    """Read a context written by save_context; FormatError if the file is anything else."""
    try:
        doc = json.load(fp)
    except ValueError as exc:  # also bytes that are not UTF-8
        raise FormatError(f"lift context: not JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise FormatError("lift context: not a JSON object")
    _check_fields(doc, {"format": str, "version": int})
    if doc["format"] != CONTEXT_FORMAT or doc["version"] != CONTEXT_VERSION:
        raise FormatError(f"lift context: not an {CONTEXT_FORMAT} version {CONTEXT_VERSION} file")
    _check_fields(doc, _CONTEXT_FIELDS)
    if doc["branch"] not in _BRANCH_NEEDS:
        raise FormatError(f"lift context: unknown branch {doc['branch']!r}")
    needed = _BRANCH_NEEDS[doc["branch"]]
    if needed is not None and doc[needed] is None:
        raise FormatError(f"lift context: branch {doc['branch']} needs field {needed!r}")
    try:
        solved = None
        if doc["solved"] is not None:
            _check_fields(doc["solved"], _SOLVED_FIELDS)
            solved = Clustering({int(i): int(c) for i, c in doc["solved"]["assignment"].items()},
                                doc["solved"]["k"])
        return LiftContext(
            branch=doc["branch"],
            original=_instance_from_dict(doc["original"]),
            kernel=_instance_from_dict(doc["kernel"]),
            blocks=(tuple(tuple(b) for b in doc["blocks"])
                    if doc["blocks"] is not None else None),
            first_map=_map_from_dict(doc["first_map"]),
            second_map=_map_from_dict(doc["second_map"]),
            solved=solved,
        )
    except FormatError:
        raise
    except (TypeError, ValueError) as exc:  # entries of the wrong type or value
        raise FormatError(f"lift context: {exc}") from None
