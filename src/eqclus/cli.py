"""Command-line front end over the plain-text formats.

Data goes to stdout (or the file named by -o/--out); logs and errors go to
stderr. Exit codes: 0 ok, 1 verification violation, 2 usage, 3 malformed
file, 4 infeasible parameters or guard overflow.
"""

from __future__ import annotations

import argparse
import io
import os
import sys
from concurrent.futures import ProcessPoolExecutor

from . import formats, generators, kernel, oracle
from .assign import InfeasibleFlowError, assign_to_medians
from .core import (
    Clustering,
    CostValue,
    Instance,
    InvalidClusteringError,
    InvalidInstanceError,
    Median,
    clustering_cost,
)
from .exact_large import solve_large

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


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _cost_repr(cv: CostValue) -> str:
    return str(cv.exact) if cv.exact is not None else repr(cv.value)


def _renumber_for_file(c: Clustering, inst: Instance) -> Clustering:
    # clustering files are positional: line i describes the i-th instance point
    return Clustering({pos: c.assignment[pt.id] for pos, pt in enumerate(inst.points)}, c.k)


def _clustering_from_file(text: str, inst: Instance) -> Clustering:
    positional = formats.parse_clustering(text)
    if len(positional.assignment) != inst.n:
        raise formats.FormatError(
            f"clustering has {len(positional.assignment)} entries, instance has {inst.n}")
    return Clustering({pt.id: positional.assignment[pos]
                       for pos, pt in enumerate(inst.points)}, positional.k)


# ---------------------------------------------------------------------------
# subcommands

def _cmd_gen(args) -> int:
    if args.planted:
        if args.k < 1 or args.n % args.k:
            raise InvalidInstanceError(f"n = {args.n} is not divisible by k = {args.k}")
        s = args.n // args.k
        inst, planted = generators.gen_planted(
            k=args.k, s=s, d=args.d, spread=args.spread, noise=args.noise,
            p=args.p, seed=args.seed, B=args.B)
        _write_text(args.out, formats.format_instance(inst))
        if args.planted_out:
            _write_text(args.planted_out,
                        formats.format_clustering(_renumber_for_file(planted, inst)))
    else:
        inst = generators.gen_random(n=args.n, k=args.k, d=args.d,
                                     coord_bound=args.coord_bound, p=args.p,
                                     B=args.B, seed=args.seed)
        _write_text(args.out, formats.format_instance(inst))
    return EXIT_OK


def _cmd_reduce_rsm(args) -> int:
    h = formats.parse_hypergraph(_read_text(args.input))
    inst = generators.reduce_rsm(h)
    _write_text(args.out, formats.format_instance(inst))
    if args.matching:
        matching = formats.parse_matching(_read_text(args.matching))
        planted = generators.planted_rsm_clustering(h, matching)
        _write_text(args.clustering_out,
                    formats.format_clustering(_renumber_for_file(planted, inst)))
    return EXIT_OK


def _cmd_reduce_3dm(args) -> int:
    t = formats.parse_tdm(_read_text(args.input))
    inst = generators.reduce_3dm(t)
    _write_text(args.out, formats.format_instance(inst))
    if args.matching:
        matching = formats.parse_matching(_read_text(args.matching))
        planted = generators.planted_3dm_clustering(t, matching)
        _write_text(args.clustering_out,
                    formats.format_clustering(_renumber_for_file(planted, inst)))
    return EXIT_OK


def _cmd_kernelize(args) -> int:
    inst = formats.parse_instance(_read_text(args.input))
    if args.mode == "lossy":
        kern, ctx = kernel.lossy_kernelize(inst)
        ctx_text = io.StringIO()
        kernel.save_context(ctx, ctx_text)
        kern_text = formats.format_instance(kern)
        # a kernel is useless without its context: write the context first, so
        # no kernel reaches stdout if it fails, and remove it if the kernel fails
        with open(args.ctx, "w", encoding="utf-8") as fh:
            fh.write(ctx_text.getvalue())
        try:
            _write_text(args.out, kern_text)
        except OSError:
            os.remove(args.ctx)
            raise
        _log(f"kernelize: branch {ctx.branch}, kernel n={kern.n} k={kern.k} "
             f"B={kern.B} d={kern.dim}")
    else:
        kern = kernel.exact_kernelize(inst)
        _write_text(args.out, formats.format_instance(kern))
        _log(f"kernelize: kernel n={kern.n} k={kern.k} B={kern.B} d={kern.dim}")
    return EXIT_OK


def _cmd_lift(args) -> int:
    with open(args.ctx, "r", encoding="utf-8") as fh:
        ctx = kernel.load_context(fh)
    kernel_clustering = None
    if args.input is not None:
        kernel_clustering = _clustering_from_file(_read_text(args.input), ctx.kernel)
    lifted = kernel.lift_solution(ctx, kernel_clustering)
    _write_text(args.out, formats.format_clustering(_renumber_for_file(lifted, ctx.original)))
    return EXIT_OK


def _cmd_solve(args) -> int:
    inst = formats.parse_instance(_read_text(args.input))
    method = args.method
    if method == "auto":
        method = "large" if inst.s >= 4 * inst.B + 1 else "brute"
    if method == "large":
        result = solve_large(inst)
        if result is None:
            print("NOBUDGET")
            return EXIT_OK
        clustering, cost = result
    elif method == "brute":
        clustering, cost = oracle.brute_force_opt(inst)
    elif method == "matching":
        if not args.medians:
            raise UsageError("--method matching requires --medians FILE")
        med_inst = formats.parse_instance(_read_text(args.medians))
        if med_inst.n != inst.k:
            raise InvalidInstanceError(
                f"medians file has {med_inst.n} points, instance needs k = {inst.k}")
        medians = [Median.from_point(pt) for pt in med_inst.points]
        clustering, cost = assign_to_medians(inst, medians)
    else:  # pragma: no cover - argparse restricts choices
        raise UsageError(f"unknown method {method}")
    print(f"cost {_cost_repr(cost)}")
    if args.out:
        _write_text(args.out, formats.format_clustering(_renumber_for_file(clustering, inst)))
    return EXIT_OK


def _cmd_eval(args) -> int:
    inst = formats.parse_instance(_read_text(args.instance))
    clustering = _clustering_from_file(_read_text(args.clustering), inst)
    cost = clustering_cost(inst, clustering)
    print(f"cost {_cost_repr(cost)}")
    print(f"truncated {_cost_repr(cost.truncated(inst.B))}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verification batches

def _verify_cases(count: int, seed: int) -> list[tuple]:
    large_params = [(6, 3, 1, 0), (8, 4, 2, 0), (10, 2, 1, 1), (12, 2, 2, 1),
                    (9, 1, 2, 2), (12, 6, 1, 0), (10, 5, 2, 0), (12, 1, 3, 2)]
    small_params = [(8, 2, 2, 1), (8, 4, 1, 1), (12, 3, 2, 1), (6, 3, 1, 1),
                    (12, 6, 2, 1), (10, 2, 3, 2), (12, 4, 2, 1), (9, 3, 2, 1)]
    cases = []
    for i in range(count):
        n, k, bound, B = large_params[i % len(large_params)]
        cases.append(("large", n, k, bound, B, i % 2, seed * 7919 + i))
        n, k, bound, B = small_params[i % len(small_params)]
        cases.append(("ratio", n, k, bound, B, i % 2, seed * 104729 + i))
        cases.append(("exact-kernel", n, k, bound, B, i % 2, seed * 1299709 + i))
        nl, kl, bl, Bl = large_params[(i + 3) % len(large_params)]
        cases.append(("structure", nl, kl, bl, Bl, i % 2, seed * 15485863 + i))
    return cases


def _run_verify_case(case: tuple) -> tuple[str, list[str]]:
    suite, n, k, bound, B, p, s = case
    desc = f"{suite}(n={n},k={k},B={B},p={p},seed={s})"
    inst = generators.gen_random(n=n, k=k, d=2, coord_bound=bound, p=p, B=B, seed=s)
    violations: list[str] = []
    if suite == "large":
        if inst.s < 4 * B + 1:
            return desc, [f"internal: parameters leave s={inst.s} < 4B+1"]
        got = solve_large(inst)
        _, opt = oracle.brute_force_opt(inst)
        if got is None:
            if opt.exact <= B:
                violations.append(f"solver said no budget but Opt = {opt.exact} <= {B}")
        else:
            if opt.exact > B:
                violations.append(f"solver returned cost {got[1].exact} but Opt > B")
            elif got[1].exact != opt.exact:
                violations.append(f"solver cost {got[1].exact} != Opt {opt.exact}")
    elif suite == "ratio":
        report = oracle.check_lossy_ratio(inst)
        violations.extend(report.violations)
    elif suite == "exact-kernel":
        kern = kernel.exact_kernelize(inst)
        _, opt = oracle.brute_force_opt(inst)
        _, kopt = oracle.brute_force_opt(kern)
        if (opt.exact <= inst.B) != (kopt.exact <= kern.B):
            violations.append(
                f"decision mismatch: Opt={opt.exact} vs B={inst.B}, "
                f"kernel Opt={kopt.exact} vs B={kern.B}")
    elif suite == "structure":
        best, _ = oracle.brute_force_opt(inst)
        report = oracle.check_structure(inst, best)
        violations.extend(report.violations)
    return desc, violations


def _cmd_verify(args) -> int:
    cases = _verify_cases(args.count, args.seed)
    failures = []
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(_run_verify_case, cases))
    else:
        results = [_run_verify_case(c) for c in cases]
    per_suite: dict[str, int] = {}
    for desc, violations in results:
        per_suite[desc.split("(")[0]] = per_suite.get(desc.split("(")[0], 0) + 1
        if violations:
            failures.append((desc, violations))
    for suite, cnt in sorted(per_suite.items()):
        _log(f"verify: suite {suite}: {cnt} instances")
    if failures:
        for desc, violations in failures:
            for v in violations:
                print(f"VIOLATION {desc}: {v}")
        print(f"verify: {len(failures)} of {len(cases)} checks failed")
        return EXIT_VIOLATION
    print(f"verify: all {len(cases)} checks passed")
    return EXIT_OK


# ---------------------------------------------------------------------------

class UsageError(Exception):
    pass


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="eqclus",
                                 description="equal-size k-median clustering toolkit")
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

    rr = sub.add_parser("reduce-rsm", help="hypergraph matching -> instance")
    rr.add_argument("input")
    rr.add_argument("-o", "--out", default=None)
    rr.add_argument("--matching", default=None)
    rr.add_argument("--clustering-out", default=None)
    rr.set_defaults(func=_cmd_reduce_rsm)

    rt = sub.add_parser("reduce-3dm", help="3-dimensional matching -> instance")
    rt.add_argument("input")
    rt.add_argument("-o", "--out", default=None)
    rt.add_argument("--matching", default=None)
    rt.add_argument("--clustering-out", default=None)
    rt.set_defaults(func=_cmd_reduce_3dm)

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
    lf.set_defaults(func=_cmd_lift)

    sv = sub.add_parser("solve", help="solve an instance")
    sv.add_argument("input")
    sv.add_argument("--method", choices=["auto", "large", "matching", "brute"],
                    default="auto")
    sv.add_argument("--medians", default=None)
    sv.add_argument("-o", "--out", default=None)
    sv.set_defaults(func=_cmd_solve)

    ev = sub.add_parser("eval", help="cost and truncated cost of a clustering")
    ev.add_argument("instance")
    ev.add_argument("clustering")
    ev.set_defaults(func=_cmd_eval)

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
    try:
        return args.func(args)
    except formats.FormatError as exc:
        _log(f"error: {exc}")
        return EXIT_FORMAT
    except (InvalidInstanceError, InvalidClusteringError, oracle.GuardExceededError,
            InfeasibleFlowError) as exc:
        _log(f"error: {exc}")
        return EXIT_INFEASIBLE
    except UsageError as exc:
        _log(f"usage error: {exc}")
        return EXIT_USAGE
    except ValueError as exc:
        _log(f"error: {exc}")
        return EXIT_INFEASIBLE
    except OSError as exc:
        _log(f"error: {exc}")
        return EXIT_FORMAT


if __name__ == "__main__":
    raise SystemExit(main())
