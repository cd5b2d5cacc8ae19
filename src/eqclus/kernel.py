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
from .dimreduce import reduce_dimension
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

    reduced = reduce_dimension(inst)
    if reduced is None:
        kernel = trivial_no_instance(p)
        return kernel, LiftContext(BRANCH_DIMREDUCE_NO, inst, kernel)

    blocks, rest = extract_full_blocks(reduced)
    block_ids = tuple(tuple(pt.id for pt in blk) for blk in blocks)
    b_doubled = 2 * inst.B
    if rest.k > b_doubled:
        kernel = trivial_no_instance(p)
        return kernel, LiftContext(BRANCH_KPRIME_TOO_BIG, inst, kernel)
    if rest.k == 0:
        kernel = trivial_yes_instance(p)
        return kernel, LiftContext(BRANCH_EMPTY_AFTER_GREEDY, inst, kernel, blocks=block_ids)

    rest = Instance(rest.points, p=p, k=rest.k, B=b_doubled, dim=rest.dim)
    kernel = reduce_dimension(rest)
    if kernel is None:
        kernel = trivial_no_instance(p)
        return kernel, LiftContext(BRANCH_DIMREDUCE_NO, inst, kernel)
    return kernel, LiftContext(BRANCH_GENERIC, inst, kernel, blocks=block_ids)


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
    return reduced


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


def save_context(ctx: LiftContext, fp: IO[str]) -> None:
    doc = {
        "format": CONTEXT_FORMAT,
        "version": CONTEXT_VERSION,
        "branch": ctx.branch,
        "original": _instance_to_dict(ctx.original),
        "kernel": _instance_to_dict(ctx.kernel),
        "blocks": [list(b) for b in ctx.blocks] if ctx.blocks is not None else None,
        "solved": ({"k": ctx.solved.k,
                    "assignment": {str(i): c for i, c in ctx.solved.assignment.items()}}
                   if ctx.solved is not None else None),
    }
    fp.write(json.dumps(doc) + "\n")


# JSON type of every field save_context writes, per object
_OPTIONAL_LIST = (list, type(None))
_OPTIONAL_DICT = (dict, type(None))
_CONTEXT_FIELDS = {"branch": str, "original": dict, "kernel": dict, "blocks": _OPTIONAL_LIST,
                   "solved": _OPTIONAL_DICT}
_INSTANCE_FIELDS = {"p": int, "k": int, "B": int, "dim": int, "ids": list, "coords": list}
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


def _check_lifted_ids(ctx: LiftContext) -> None:
    """FormatError unless lifting yields an equal clustering of the original's ids."""
    original = ctx.original
    if ctx.branch == BRANCH_LARGE_YES:
        ctx.solved.validate_equal(original)
    if ctx.branch not in (BRANCH_GENERIC, BRANCH_EMPTY_AFTER_GREEDY):
        return
    ids = [pid for blk in ctx.blocks for pid in blk]
    clusters = len(ctx.blocks)
    if ctx.branch == BRANCH_GENERIC:
        ids += ctx.kernel.ids()
        clusters += ctx.kernel.k
    if sorted(ids) != sorted(original.ids()):
        raise FormatError("lift context: blocks and kernel ids do not partition the original's ids")
    if clusters != original.k or any(len(blk) != original.s for blk in ctx.blocks):
        raise FormatError("lift context: blocks and kernel clusters do not fit the original's k")


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
            assignment = doc["solved"]["assignment"]
            if any(type(c) is not int for c in assignment.values()):
                raise FormatError("lift context: cluster indices must be integers")
            solved = Clustering({int(i): c for i, c in assignment.items()}, doc["solved"]["k"])
        ctx = LiftContext(
            branch=doc["branch"],
            original=_instance_from_dict(doc["original"]),
            kernel=_instance_from_dict(doc["kernel"]),
            blocks=(tuple(tuple(b) for b in doc["blocks"])
                    if doc["blocks"] is not None else None),
            solved=solved,
        )
        _check_lifted_ids(ctx)
        return ctx
    except FormatError:
        raise
    except (TypeError, ValueError) as exc:  # entries of the wrong type or value
        raise FormatError(f"lift context: {exc}") from None
