"""Lossy (factor-2) and exact kernelization with solution lifting.

The lossy pipeline: in the large regime (s >= 4B+1) the instance is solved
outright and replaced by a constant-size stand-in; otherwise the instance is
dimension-reduced exactly, full blocks of s identical points are greedily
stripped into free clusters with the budget doubled to pay for the
approximation, and the survivors are dimension-reduced once more so the
kernel's size depends on the budget alone. Both reductions and the block
removal keep point ids and point order, so lifting is index work alone: a
context carries the original's ids and k, and on a YES branch the clusters
fixed before the kernel (the removed blocks, or the large-regime optimum).
The generic kernel's points are the original's less the blocks', in id
order (`LiftContext.kernel_ids`). A NO branch lifts to an arbitrary
clustering; a YES branch lifts to the fixed clusters followed by the kernel's
clusters.
"""

from __future__ import annotations

import json
from typing import IO, NamedTuple

from .core import (
    Clustering,
    Instance,
    InvalidClusteringError,
    extract_full_blocks,
    make_instance,
)
from .dimreduce import reduce_dimension
from .exact_large import in_large_regime, solve_large
from .formats import FormatError

BRANCH_LARGE_YES = "large-yes"
BRANCH_LARGE_NO = "large-no"
BRANCH_DIMREDUCE_NO = "dimreduce-no"
BRANCH_EMPTY_AFTER_GREEDY = "empty-after-greedy"
BRANCH_KPRIME_TOO_BIG = "kprime-too-big"
BRANCH_GENERIC = "generic"

CONTEXT_FORMAT = "ECLCTX"
CONTEXT_VERSION = 3
# branches whose lift puts fixed clusters (ctx.blocks) first; the others lift arbitrarily
YES_BRANCHES = (BRANCH_LARGE_YES, BRANCH_EMPTY_AFTER_GREEDY, BRANCH_GENERIC)


class LiftContext(NamedTuple):
    """Everything needed to map a kernel clustering back to the original instance."""

    branch: str
    ids: tuple[int, ...]  # the original's point ids, increasing
    k: int                # the original's cluster count
    blocks: tuple[tuple[int, ...], ...] | None = None  # fixed clusters of a YES branch

    def kernel_ids(self) -> list[int]:
        """The generic kernel's point ids, increasing: the original's ids less the blocks'."""
        removed = {pid for blk in self.blocks for pid in blk}
        return [pid for pid in self.ids if pid not in removed]


def trivial_no_instance(p: int) -> Instance:
    """Two distinct points, one cluster, budget 0: optimum cost is 1 > B."""
    return make_instance([(0,), (1,)], p=p, k=1, B=0)


def trivial_yes_instance(p: int) -> Instance:
    """One point, one cluster, budget 0: optimum cost is 0."""
    return make_instance([(0,)], p=p, k=1, B=0)


def _arbitrary_clustering(ids: tuple[int, ...], k: int) -> Clustering:
    s = len(ids) // k
    return Clustering.from_clusters([ids[i * s:(i + 1) * s] for i in range(k)])


def lossy_kernelize(inst: Instance) -> tuple[Instance, LiftContext]:
    """Reduce to an instance whose size is bounded by the budget alone.

    Any c-approximate solution of the output lifts (via lift_solution) to a
    2c-approximate solution of the input, measured in budget-truncated cost.
    On the generic branch the output has at most 8B^2 points, at most 2B
    clusters, and the doubled budget B' = 2B.
    """
    p = inst.p

    def done(branch: str, kernel: Instance, blocks=None) -> tuple[Instance, LiftContext]:
        return kernel, LiftContext(branch, tuple(inst.ids()), inst.k, blocks)

    if in_large_regime(inst):
        solved = solve_large(inst)
        if solved is None:
            return done(BRANCH_LARGE_NO, trivial_no_instance(p))
        clusters = tuple(tuple(c) for c in solved[0].clusters())
        return done(BRANCH_LARGE_YES, trivial_yes_instance(p), clusters)

    reduced = reduce_dimension(inst)
    if reduced is None:
        return done(BRANCH_DIMREDUCE_NO, trivial_no_instance(p))

    blocks, rest = extract_full_blocks(reduced)
    block_ids = tuple(tuple(pt.id for pt in blk) for blk in blocks)
    if rest is None:
        return done(BRANCH_EMPTY_AFTER_GREEDY, trivial_yes_instance(p), block_ids)
    b_doubled = 2 * inst.B
    if rest.k > b_doubled:
        return done(BRANCH_KPRIME_TOO_BIG, trivial_no_instance(p))

    rest = Instance(rest.points, p=p, k=rest.k, B=b_doubled)
    kernel = reduce_dimension(rest)
    if kernel is None:
        return done(BRANCH_DIMREDUCE_NO, trivial_no_instance(p))
    return done(BRANCH_GENERIC, kernel, block_ids)


def lift_solution(ctx: LiftContext, kernel_clustering: Clustering | None) -> Clustering:
    """Map a kernel clustering back to an equal k-clustering of the original.

    A NO branch lifts to an arbitrary clustering. A YES branch lifts to its
    fixed clusters, followed on the generic branch by the kernel clustering's
    clusters in index order; every other branch ignores the kernel clustering.
    """
    if ctx.branch not in YES_BRANCHES:
        return _arbitrary_clustering(ctx.ids, ctx.k)
    rest: list[list[int]] = []
    if ctx.branch == BRANCH_GENERIC:
        if kernel_clustering is None:
            raise InvalidClusteringError("generic branch needs a kernel clustering")
        kernel_clustering.validate_equal(ctx.kernel_ids(), ctx.k - len(ctx.blocks))
        rest = kernel_clustering.clusters()
    return Clustering.from_clusters([*ctx.blocks, *rest])


def exact_kernelize(inst: Instance) -> Instance:
    """Decision-equivalent instance with at most 4Bk points, or a trivial stand-in.

    The large regime is solved outright; otherwise one exact dimension
    reduction bounds the dimension and coordinate magnitudes in k and B.
    """
    if in_large_regime(inst):
        if solve_large(inst) is None:
            return trivial_no_instance(inst.p)
        return trivial_yes_instance(inst.p)
    reduced = reduce_dimension(inst)
    if reduced is None:
        return trivial_no_instance(inst.p)
    return reduced


# ---------------------------------------------------------------------------
# serialization, so kernelize / lift can run as separate CLI invocations

def save_context(ctx: LiftContext, fp: IO[str]) -> None:
    doc = {
        "format": CONTEXT_FORMAT,
        "version": CONTEXT_VERSION,
        "branch": ctx.branch,
        "original": {"k": ctx.k, "ids": list(ctx.ids)},
        "blocks": [list(b) for b in ctx.blocks] if ctx.blocks is not None else None,
    }
    fp.write(json.dumps(doc) + "\n")


# JSON type of every field load_context reads, per object
_CONTEXT_FIELDS = {"branch": str, "original": dict, "blocks": (list, type(None))}
_BRANCHES = (BRANCH_LARGE_NO, BRANCH_DIMREDUCE_NO, BRANCH_KPRIME_TOO_BIG, *YES_BRANCHES)


def _check_fields(d: dict, fields: dict) -> None:
    for key, kind in fields.items():
        if key not in d:
            raise FormatError(f"lift context: missing field {key!r}")
        if isinstance(d[key], bool) or not isinstance(d[key], kind):
            raise FormatError(f"lift context: field {key!r} has the wrong type")


def _are_ids(values: list) -> bool:
    # bool is an int subclass, and not an id
    return all(type(v) is int for v in values)


def _check_lifted_ids(ctx: LiftContext) -> None:
    """FormatError unless the blocks are disjoint clusters of the original's ids, of
    size s, that leave a kernel on the generic branch and every id on the others."""
    if ctx.branch not in YES_BRANCHES:
        return
    ids = [pid for blk in ctx.blocks for pid in blk]
    if len(set(ids)) != len(ids) or not set(ids) <= set(ctx.ids):
        raise FormatError("lift context: the blocks are not disjoint sets of the original's ids")
    s = len(ctx.ids) // ctx.k
    fits = len(ctx.blocks) < ctx.k if ctx.branch == BRANCH_GENERIC else len(ctx.blocks) == ctx.k
    if not fits or any(len(blk) != s for blk in ctx.blocks):
        raise FormatError("lift context: the blocks do not fit the original's k")


def load_context(fp: IO[str]) -> LiftContext:
    """Read a context as save_context writes it; FormatError if the file is anything else.

    Keys the reader does not know are ignored."""
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
    branch = doc["branch"]
    if branch not in _BRANCHES:
        raise FormatError(f"lift context: unknown branch {branch!r}")
    _check_fields(doc["original"], {"k": int, "ids": list})
    ids, k = doc["original"]["ids"], doc["original"]["k"]
    if not _are_ids(ids) or any(a >= b for a, b in zip([-1, *ids], ids)):
        raise FormatError(
            "lift context: the original's ids must be increasing nonnegative integers")
    if k < 1 or len(ids) < k or len(ids) % k:
        raise FormatError(f"lift context: k = {k} does not split {len(ids)} ids equally")
    blocks = doc["blocks"]
    if blocks is None:
        if branch in YES_BRANCHES:
            raise FormatError(f"lift context: branch {branch} needs field 'blocks'")
    elif not all(isinstance(b, list) and _are_ids(b) for b in blocks):
        raise FormatError("lift context: the blocks must be lists of integer ids")
    else:
        blocks = tuple(map(tuple, blocks))
    ctx = LiftContext(branch=branch, ids=tuple(ids), k=k, blocks=blocks)
    _check_lifted_ids(ctx)
    return ctx
