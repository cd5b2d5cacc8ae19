"""Seeded end-to-end benchmark of the eqclus command-line pipelines.

    python3 perfbench/run.py --workload {large,generic,exhaustive} [--seed N]
                             [--seconds S] [--trace 0|1]

Drives `eqclus.cli.main(argv)` in this process, on instance files written to
a temporary directory under .perfbench/. One operation is one instance through
the workload's pipeline. After an untimed warm-up of one operation of each
shape, whole passes over the workload's seeded instance list are timed until
their operations add up to at least --seconds. A fixed calibration loop runs
after each operation, and the time metrics are stated in units of that loop.
Every output is checked after its operation, outside the timed section.

The last line of standard output is one JSON object: `correct`, `attempted`,
`failed` and `metrics` (the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1). The line before it records the run: workload, seed,
Python version, whether the compiled engine was loaded, the core count, the
passes made and this run's wall-clock figures. Both lines are also
written to .perfbench/result-<workload>-seed<N>-trace<T>.json, and a traced
run writes its spans to .perfbench/trace-<workload>-seed<N>.jsonl.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import families

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

DEFAULT_SEED = 1
SETUP_REPEATS = 7


# ---------------------------------------------------------------------------
# pipelines: the CLI calls of one operation, and the checks of their outputs

class CheckFailed(Exception):
    """An output contradicts a fact known independently of the code under test."""


def expect(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def large_steps(inst: dict, f: str) -> list[list[str]]:
    steps = [["solve", f, "--method", "large", "-o", f + ".sol"]]
    if inst["yes"]:
        steps.append(["eval", f, f + ".sol"])
    return steps


def generic_steps(inst: dict, f: str) -> list[list[str]]:
    return [["kernelize", f, "--mode", "lossy", "-o", f + ".kern", "--ctx", f + ".ctx"],
            ["solve", f + ".kern", "--method", "brute", "-o", f + ".ksol"],
            ["lift", f + ".ksol", "--ctx", f + ".ctx", "-o", f + ".lifted"],
            ["eval", f, f + ".lifted"]]


def exhaustive_steps(inst: dict, f: str) -> list[list[str]]:
    return [["solve", f, "--method", "brute", "-o", f + ".sol"],
            ["eval", f, f + ".sol"]]


def read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def clustering_cost(core, inst: dict, labels: list[int]) -> int:
    """Cost of the clustering, each cluster priced by core.optimum_median/cluster_cost."""
    return sum(cluster_cost(core, inst, [i for i, c in enumerate(labels) if c == j])
               for j in range(inst["k"]))


def cluster_cost(core, inst: dict, members: list[int]) -> int:
    pts = [core.Point(tuple(inst["rows"][i]), i) for i in members]
    median, _ = core.optimum_median(pts, inst["p"])
    return core.cluster_cost(pts, median, inst["p"]).exact


def check_large(core, inst: dict, f: str, outs: list[str], logs: list[str]) -> None:
    k, n = inst["k"], len(inst["rows"])
    if not inst["yes"]:
        expect(outs[0] == "NOBUDGET\n", f"NO instance: solve printed {outs[0]!r}")
        return
    expect(outs[0] == f"cost {k}\n", f"YES instance: solve printed {outs[0]!r}, Opt = {k}")
    families.parse_assignment(read(f + ".sol"), n, k)
    expect(outs[1] == f"cost {k}\ntruncated {k}\n", f"eval printed {outs[1]!r}, Opt = {k}")


def check_generic(core, inst: dict, f: str, outs: list[str], logs: list[str]) -> None:
    B, k, n, opt = inst["B"], inst["k"], len(inst["rows"]), inst["opt"]
    expect("branch generic" in logs[0], f"kernelize took another branch: {logs[0]!r}")
    _, _, kn, kk, _ = (int(t) for t in read(f + ".kern").split()[2:7])
    expect(kn <= 8 * B * B, f"kernel has {kn} points > 8B^2 = {8 * B * B}")
    expect(kk <= 2 * B, f"kernel has {kk} clusters > 2B = {2 * B}")
    labels = families.parse_assignment(read(f + ".lifted"), n, k)
    cost = clustering_cost(core, inst, labels)
    truncated = cost if cost <= B else B + 1
    expect(opt <= truncated <= 2 * opt,
           f"lifted truncated cost {truncated} outside [Opt, 2 Opt] = [{opt}, {2 * opt}]")
    expect(outs[3] == f"cost {cost}\ntruncated {truncated}\n",
           f"eval printed {outs[3]!r}, the lifted clustering costs {cost}")


def check_exhaustive(core, inst: dict, f: str, outs: list[str], logs: list[str]) -> None:
    k, n = inst["k"], len(inst["rows"])
    labels = families.parse_assignment(read(f + ".sol"), n, k)
    cost = clustering_cost(core, inst, labels)
    expect(outs[0] == f"cost {cost}\n", f"solve printed {outs[0]!r}, its output costs {cost}")
    expect(outs[1].startswith(f"cost {cost}\n"), f"eval printed {outs[1]!r}, expected {cost}")
    swap = improving_swap(core, inst, labels)
    expect(swap is None, f"swapping points {swap} lowers the cost of the printed optimum")


def improving_swap(core, inst: dict, labels: list[int]) -> tuple[int, int] | None:
    """Two points in different clusters whose exchange lowers the cost, if any.

    Every optimum has none, so finding one proves the clustering is not optimal.
    """
    clusters = [[i for i, c in enumerate(labels) if c == j] for j in range(inst["k"])]
    prices = [cluster_cost(core, inst, m) for m in clusters]
    for a, b in itertools.combinations(range(len(clusters)), 2):
        for x in clusters[a]:
            for y in clusters[b]:
                ma = [y if i == x else i for i in clusters[a]]
                mb = [x if i == y else i for i in clusters[b]]
                swapped = cluster_cost(core, inst, ma) + cluster_cost(core, inst, mb)
                if swapped < prices[a] + prices[b]:
                    return x, y
    return None


PIPELINES = {
    "large": (large_steps, check_large),
    "generic": (generic_steps, check_generic),
    "exhaustive": (exhaustive_steps, check_exhaustive),
}


# ---------------------------------------------------------------------------
# the run

def measure_setup(workload: str, seed: int, tmp: Path) -> float:
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "make_inputs.py"), "--workload", workload,
             "--seed", str(seed), "--dir", str(tmp)],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return statistics.median(times)


# calibration loop: interpreter work of the kinds the pipelines are made of
# (a recursive generator over tuples, itertools, small function calls, zip,
# abs and integer sums, dict stores, list allocation and a keyed sort), none
# of it in the code under test
CAL_PLANE = [((i * 37) % 11 - 5, (i * 53) % 13 - 6) for i in range(9)]
CAL_SPACE = [tuple((i * m) % 17 - 8 for m in (3, 5, 7, 11)) for i in range(48)]


def _cal_partitions(items: tuple, k: int):
    if k == 1:
        yield (items,)
        return
    first, rest = items[0], items[1:]
    for combo in itertools.combinations(rest, len(items) // k - 1):
        left = tuple(x for x in rest if x not in combo)
        for tail in _cal_partitions(left, k - 1):
            yield ((first,) + combo,) + tail


def _cal_within(x: tuple, y: tuple, bound: int) -> bool:
    acc = 0
    for a, b in zip(x, y):
        acc += abs(a - b)
        if acc > bound:
            return False
    return True


def calibration_loop() -> float:
    """Seconds taken by a fixed piece of interpreter work.

    This host's speed drifts by up to half between states that last 10 to 40
    s, and the drift slows this loop and the pipelines alike. One loop runs
    after every operation, and an operation's time divided by the loops'
    time around it is steady where its wall time is not.
    """
    t0 = time.perf_counter()
    min(sum(sum(abs(a - b) for a, b in zip(CAL_PLANE[i], CAL_PLANE[part[0]]))
            for part in parts for i in part)
        for parts in _cal_partitions(tuple(range(9)), 3))
    sum(1 for x in CAL_SPACE for y in CAL_SPACE if _cal_within(x, y, 12))
    table = {}
    for i in range(15000):
        table[i * 7919 % 4093] = [i, i + 1]
    sorted(table.items(), key=lambda kv: -kv[1][0])
    return time.perf_counter() - t0


def run_op(cli, steps, tracer) -> tuple[bool, list[str], list[str]]:
    """Run one operation's CLI calls; False if any exits nonzero or raises."""
    outs, logs = [], []
    for argv in steps:
        out, err = io.StringIO(), io.StringIO()
        span = tracer.span(f"cli.{argv[0]}") if tracer else contextlib.nullcontext()
        try:
            with span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except Exception:  # a traceback in the CLI is a failed operation
            print(f"{argv[0]} raised:", file=sys.stderr)
            traceback.print_exc()
            return False, outs, logs
        outs.append(out.getvalue())
        logs.append(err.getvalue())
        if code != 0:
            print(f"{argv[0]} exited {code}: {logs[-1].strip()}", file=sys.stderr)
            return False, outs, logs
    return True, outs, logs


def run_pair(cli, pair, tracer) -> tuple[bool, list[tuple[list[str], list[str]]]]:
    """Run one operation: both instances of the pair, each traced as its own
    instance; False as soon as one fails."""
    results = []
    for _, _, steps in pair:
        traced = tracer.operation() if tracer else contextlib.nullcontext()
        with traced:
            ok, outs, logs = run_op(cli, steps, tracer)
        if not ok:
            return False, results
        results.append((outs, logs))
    return True, results


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    if not (SRC / "eqclus" / "cli.py").is_file():
        print(f"error: no eqclus sources under {SRC}", file=sys.stderr)
        return 2
    # metric names and units, as the benchmark declares them
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    WORK.mkdir(exist_ok=True)
    tmp = WORK / f"tmp-{os.getpid()}"
    tmp.mkdir()
    try:
        setup_s = measure_setup(workload, seed, tmp)
        sys.path.insert(0, str(SRC))
        import eqclus
        from eqclus import cli, core

        tracer = None
        if trace:
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()

        instances = families.make(workload, seed)
        files = [str(tmp / f"{i}.ecl") for i in range(len(instances))]
        make_steps, check = PIPELINES[workload]
        items = [(inst, f, make_steps(inst, f)) for inst, f in zip(instances, files)]
        # one operation is two consecutive instances of the list, which are of
        # its two alternating shapes
        pairs = [items[i:i + 2] for i in range(0, len(items), 2)]

        run_pair(cli, pairs[0], None)  # warm-up: untimed, unchecked

        times: list[float] = []  # seconds of each operation, in order
        good: list[bool] = []  # whether it succeeded and passed its checks
        attempted = failed = passes = 0
        correct = True
        cal_times = [calibration_loop()]  # one before and one after each operation
        while passes == 0 or sum(times) < seconds:
            passes += 1
            for pair in pairs:
                for _, f, _ in pair:
                    for path in tmp.glob(Path(f).name + ".*"):
                        path.unlink()
                attempted += 1
                t0 = time.perf_counter()
                ok, results = run_pair(cli, pair, tracer)
                times.append(time.perf_counter() - t0)
                cal_times.append(calibration_loop())
                if ok:
                    try:
                        for (inst, f, _), (outs, logs) in zip(pair, results):
                            check(core, inst, f, outs, logs)
                    except (CheckFailed, ValueError, OSError) as exc:
                        print(f"check failed on {workload} instance {f}: {exc}",
                              file=sys.stderr)
                        ok = correct = False
                good.append(ok)
                failed += not ok

        # an operation's time in calibration loops: its seconds over the median
        # of the six loops around it, so that one loop slowed by an interrupt
        # does not skew it
        in_cal = [t / statistics.median(cal_times[max(0, i - 2):i + 4])
                  for i, t in enumerate(times)]
        latencies = [t for t, ok in zip(times, good) if ok]
        cal_latencies = [c for c, ok in zip(in_cal, good) if ok]
        end_to_end = {
            "ops_per_1000cal": 1000 * len(cal_latencies) / sum(in_cal),
            "latency_p50_cal": statistics.median(cal_latencies) if cal_latencies else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": setup_s,
        }
        if trace:
            metrics = per_layer_metrics(tracer, spec)
            tracer.write(WORK / f"trace-{workload}-seed{seed}.jsonl")
        else:
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
            metrics = {name: {"value": v, "unit": units[name]} for name, v in end_to_end.items()}
        info = {"workload": workload, "seed": seed, "trace": int(trace),
                "python": platform.python_version(), "compiled": eqclus.COMPILED,
                "cores": os.cpu_count(), "passes": passes, "ops_per_pass": len(pairs),
                "timed_s": sum(times), "end_to_end": end_to_end,
                "wall": {"ops_per_s": len(latencies) / sum(times),
                         "latency_p50_ms": statistics.median(latencies) * 1e3 if latencies else 0.0,
                         "calibration_ms": statistics.median(cal_times) * 1e3}}
        result = {"correct": correct, "attempted": attempted, "failed": failed,
                  "metrics": metrics}
        with open(WORK / f"result-{workload}-seed{seed}-trace{int(trace)}.json", "w",
                  encoding="utf-8") as fh:
            json.dump({"run": info, "result": result}, fh, indent=1)
        print(json.dumps({"run": info}))
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def per_layer_metrics(tracer, spec: dict) -> dict:
    """Median per instance of each summed time or count, over the instances
    that called it; 0 for a layer the workload never calls."""
    out = {}
    for metric in spec["per_layer"]:
        values = [op[metric["name"]] for op in tracer.ops if metric["name"] in op]
        out[metric["name"]] = {"value": statistics.median(values) if values else 0,
                               "unit": metric["unit"]}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="seeded benchmark of the eqclus CLI pipelines")
    ap.add_argument("--workload", choices=tuple(families.WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main())
