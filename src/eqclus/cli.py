"""Command-line front end over the plain-text formats.

Every command writes all of its outputs or none (`_emit`); "-" is stdin or
stdout for every file flag, at most one input and one output each, and logs
and errors go to stderr. Exit codes: 0 ok, 1 verification violation, 2 usage
(also two inputs or two outputs on "-"), 3 malformed or unusable file (also a
clustering that is no equal clustering of its instance or kernel), 4
infeasible parameters, numeric overflow or guard overflow.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import io
import os
import sys

# generators and verify are imported only by the commands that use them
# (gen, reduce-*, verify): generators imports dataclasses, and verify holds
# the suites, which no other command should pay to compile
from . import formats, kernel, oracle
from .assign import assign_to_medians
from .core import (
    CostValue,
    InvalidClusteringError,
    InvalidInstanceError,
    Median,
    clustering_cost,
)
from .exact_large import in_large_regime, solve_large

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_FORMAT = 3
EXIT_INFEASIBLE = 4


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _emit(outputs: list[tuple[str | None, str]]) -> None:
    """Write all of a command's rendered (destination, text) outputs, or none.

    None and "-" are stdout: one output at most, written last. Files go to temp
    files beside them, renamed into place once all are written; devices and
    pipes (/dev/null, >(...)) are written in place after the renames."""
    to_stdout = [text for dest, text in outputs if dest in (None, "-")]
    if len(to_stdout) > 1:
        raise UsageError("at most one output can go to stdout")
    staged: list[tuple[str, str, str]] = []  # (destination, temp file, target)
    in_place: list[tuple[str, str]] = []
    try:
        for i, (dest, text) in enumerate(outputs):
            if dest in (None, "-"):
                continue
            if os.path.isdir(dest):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
            if os.path.exists(dest) and not os.path.isfile(dest):
                in_place.append((dest, text))
                continue
            target = os.path.realpath(dest)  # through a symlink, as open() writes
            tmp = f"{target}.{os.getpid()}-{i}.tmp"
            with open(tmp, "x", encoding="utf-8") as fh:
                staged.append((dest, tmp, target))
                fh.write(text)
        for dest, tmp, target in staged:
            os.replace(tmp, target)
        for dest, text in in_place:
            with open(dest, "w", encoding="utf-8") as fh:
                fh.write(text)
    except BaseException as exc:
        for _, tmp, _ in staged:
            with contextlib.suppress(OSError):
                os.remove(tmp)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, dest) from None
        raise
    if to_stdout:
        sys.stdout.write(to_stdout[0])


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _cost_text(cost: CostValue) -> str:
    """repr of a cost's amount, with Python's int-to-str digit limit lifted for this call alone.

    An exact cost sums at most n*d coordinate gaps, so it has only a few digits
    more than the input's largest coordinate, whose length parsing keeps under
    that limit; the conversion stays cheap."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return repr(cost.amount)
    finally:
        sys.set_int_max_str_digits(limit)


# ---------------------------------------------------------------------------
# subcommands

def _cmd_gen(args) -> int:
    from . import generators

    if args.planted:
        if args.k < 1 or args.n % args.k:
            raise InvalidInstanceError(f"n = {args.n} is not divisible by k = {args.k}")
        s = args.n // args.k
        inst, planted = generators.gen_planted(
            k=args.k, s=s, d=args.d, spread=args.spread, noise=args.noise,
            p=args.p, seed=args.seed, B=args.B)
    else:
        inst = generators.gen_random(n=args.n, k=args.k, d=args.d,
                                     coord_bound=args.coord_bound, p=args.p,
                                     B=args.B, seed=args.seed)
    outputs = [(args.out, formats.format_instance(inst))]
    if args.planted and args.planted_out:
        outputs.append((args.planted_out, formats.format_clustering(planted, inst.ids())))
    _emit(outputs)
    return EXIT_OK


def _cmd_reduce(args) -> int:
    from . import generators

    if args.problem == "rsm":
        parse, reduce, plant = (formats.parse_hypergraph, generators.reduce_rsm,
                                generators.planted_rsm_clustering)
    else:
        parse, reduce, plant = (formats.parse_tdm, generators.reduce_3dm,
                                generators.planted_3dm_clustering)
    problem = parse(_read_text(args.input))
    inst = reduce(problem)
    outputs = [(args.out, formats.format_instance(inst))]
    if args.matching:
        planted = plant(problem, formats.parse_matching(_read_text(args.matching)))
        outputs.append((args.clustering_out, formats.format_clustering(planted, inst.ids())))
    _emit(outputs)
    return EXIT_OK


def _cmd_kernelize(args) -> int:
    inst = formats.parse_instance(_read_text(args.input))
    if args.mode == "lossy":
        kern, ctx = kernel.lossy_kernelize(inst)
        ctx_text = io.StringIO()
        kernel.save_context(ctx, ctx_text)
        outputs, branch = [(args.ctx, ctx_text.getvalue())], f"branch {ctx.branch}, "
    else:
        kern, outputs, branch = kernel.exact_kernelize(inst), [], ""
    _emit(outputs + [(args.out, formats.format_instance(kern))])
    _log(f"kernelize: {branch}kernel n={kern.n} k={kern.k} B={kern.B} d={kern.dim}")
    return EXIT_OK


def _cmd_lift(args) -> int:
    ctx = kernel.load_context(io.StringIO(_read_text(args.ctx)))
    kernel_clustering = None
    if args.input is not None and ctx.branch == kernel.BRANCH_GENERIC:
        kernel_clustering = formats.parse_clustering(_read_text(args.input), ctx.kernel_ids())
    lifted = kernel.lift_solution(ctx, kernel_clustering)
    _emit([(args.out, formats.format_clustering(lifted, ctx.ids))])
    return EXIT_OK


def _cmd_solve(args) -> int:
    inst = formats.parse_instance(_read_text(args.input))
    method = args.method
    if method == "auto":
        method = "large" if in_large_regime(inst) else "brute"
    if method == "large":
        result = solve_large(inst)
        if result is None:
            _emit([(None, "NOBUDGET\n")])
            return EXIT_OK
        clustering, cost = result
    elif method == "brute":
        clustering, cost = oracle.brute_force_opt(inst)
    else:  # matching
        if not args.medians:
            raise UsageError("--method matching requires --medians FILE")
        med_inst = formats.parse_instance(_read_text(args.medians))
        if med_inst.n != inst.k:
            raise formats.FormatError(
                f"medians file has {med_inst.n} points, instance needs k = {inst.k}")
        if med_inst.dim != inst.dim:
            raise formats.FormatError(
                f"medians file has dimension {med_inst.dim}, instance has dimension {inst.dim}")
        medians = [Median.from_point(pt) for pt in med_inst.points]
        clustering, cost = assign_to_medians(inst, medians)
    outputs = [(None, f"cost {_cost_text(cost)}\n")]
    if args.out:
        outputs.append((args.out, formats.format_clustering(clustering, inst.ids())))
    _emit(outputs)
    return EXIT_OK


def _cmd_eval(args) -> int:
    inst = formats.parse_instance(_read_text(args.instance))
    clustering = formats.parse_clustering(_read_text(args.clustering), inst.ids())
    cost = clustering_cost(inst, clustering)
    _emit([(None, f"cost {_cost_text(cost)}\ntruncated {_cost_text(cost.truncated(inst.B))}\n")])
    return EXIT_OK


def _cmd_verify(args) -> int:
    from . import verify

    log, out, failed = verify.run(args.count, args.seed, args.jobs)
    for line in log:
        _log(line)
    _emit([(None, "".join(line + "\n" for line in out))])
    return EXIT_VIOLATION if failed else EXIT_OK


# ---------------------------------------------------------------------------

class UsageError(Exception):
    pass


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="eqclus",
                                 description="equal-size k-median clustering toolkit")
    ap.set_defaults(inputs=())  # the input file arguments of a command that reads two
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a random or planted instance")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--k", type=int, required=True)
    g.add_argument("--d", type=int, default=2)
    g.add_argument("--p", type=int, default=1)
    g.add_argument("--B", type=int, default=0)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--coord-bound", type=int, default=10)
    g.add_argument("--planted", action="store_true")
    g.add_argument("--spread", type=int, default=20)
    g.add_argument("--noise", type=int, default=1)
    g.add_argument("--planted-out", default=None)
    g.add_argument("-o", "--out", default=None)
    g.set_defaults(func=_cmd_gen)

    for problem, what in (("rsm", "hypergraph matching"), ("3dm", "3-dimensional matching")):
        rd = sub.add_parser(f"reduce-{problem}", help=f"{what} -> instance")
        rd.add_argument("input")
        rd.add_argument("-o", "--out", default=None)
        rd.add_argument("--matching", default=None)
        rd.add_argument("--clustering-out", default=None)
        rd.set_defaults(func=_cmd_reduce, problem=problem, inputs=("input", "matching"))

    kz = sub.add_parser("kernelize", help="shrink an instance")
    kz.add_argument("input")
    kz.add_argument("--mode", choices=["lossy", "exact"], default="lossy")
    kz.add_argument("-o", "--out", default=None)
    kz.add_argument("--ctx", default=None)
    kz.set_defaults(func=_cmd_kernelize)

    lf = sub.add_parser("lift", help="map a kernel clustering back to the original")
    lf.add_argument("input", nargs="?", default=None)
    lf.add_argument("--ctx", required=True)
    lf.add_argument("-o", "--out", default=None)
    lf.set_defaults(func=_cmd_lift, inputs=("input", "ctx"))

    sv = sub.add_parser("solve", help="solve an instance")
    sv.add_argument("input")
    sv.add_argument("--method", choices=["auto", "large", "matching", "brute"],
                    default="auto")
    sv.add_argument("--medians", default=None)
    sv.add_argument("-o", "--out", default=None)
    sv.set_defaults(func=_cmd_solve, inputs=("input", "medians"))

    ev = sub.add_parser("eval", help="cost and truncated cost of a clustering")
    ev.add_argument("instance")
    ev.add_argument("clustering")
    ev.set_defaults(func=_cmd_eval, inputs=("instance", "clustering"))

    vf = sub.add_parser("verify", help="run oracle-backed property suites")
    vf.add_argument("--count", type=int, default=5)
    vf.add_argument("--seed", type=int, default=1)
    vf.add_argument("--jobs", type=int, default=1)
    vf.set_defaults(func=_cmd_verify)

    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    if args.command == "kernelize":
        if args.mode == "lossy" and not args.ctx:
            ap.error("kernelize --mode lossy requires --ctx FILE")
        if args.mode == "exact" and args.ctx:
            ap.error("--ctx applies only to --mode lossy (exact kernels need no lifting)")
    if args.command == "verify":
        if args.count < 1:
            ap.error(f"verify --count must be >= 1, got {args.count}")
        if args.jobs < 1:
            ap.error(f"verify --jobs must be >= 1, got {args.jobs}")
    try:
        # stdin can be read once: a second "-" input would read an empty file
        if [getattr(args, name) for name in args.inputs].count("-") > 1:
            raise UsageError("at most one input can come from stdin")
        return args.func(args)
    except UsageError as exc:
        _log(f"usage error: {exc}")
        return EXIT_USAGE
    except (formats.FormatError, InvalidClusteringError, UnicodeDecodeError, OSError) as exc:
        _log(f"error: {exc}")
        return EXIT_FORMAT
    except (ValueError, OverflowError, oracle.GuardExceededError) as exc:
        _log(f"error: {exc}")
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    raise SystemExit(main())
