"""What perfbench/ looks up in the package must exist there.

The tracer looks each traced function up when it installs itself, and the
harness reads a few attributes off results, so a rename under src/ would
otherwise surface only as a failed benchmark run. The tracer is loaded as a
plain module here and never installed.
"""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

import eqclus
from eqclus.assign import FlowNetwork
from eqclus.core import Median, Point, cluster_cost

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

# call sites the tracer counts through a module attribute, besides TIMED
COUNTED = [("dimreduce", "distance_leq_budget"), ("exact_large", "assign_to_medians")]


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_traced_function_exists():
    tracer = load_tracer()
    hooks = [(layer, name) for layer, names in tracer.TIMED.items() for name in names]
    missing = [f"eqclus.{layer}.{name}" for layer, name in hooks + COUNTED
               if not callable(getattr(importlib.import_module(f"eqclus.{layer}"), name, None))]
    # attributes read off results: tracer._flow_counts reads the network of
    # every traced min_cost_flow call, run.py a cluster_cost result and COMPILED
    net = FlowNetwork(2, 0, 1)
    cost = cluster_cost([Point((0,), 0)], Median((1,)), 1)
    read = [("FlowNetwork", net, "num_nodes"), ("FlowNetwork", net, "arcs"),
            ("cluster_cost(...)", cost, "exact"), ("eqclus", eqclus, "COMPILED")]
    missing += [f"{what}.{attr}" for what, obj, attr in read if not hasattr(obj, attr)]
    assert not missing


def test_cli_import_loads_every_traced_layer_and_no_dataclasses():
    # the tracer installs itself right after `from eqclus import cli, core` and
    # looks each traced layer up in sys.modules, so none may be imported lazily;
    # dataclasses and eqclus.generators stay off the import, which they slow
    src = str(Path(eqclus.__file__).resolve().parent.parent)
    probe = "import sys; sys.path.insert(0, sys.argv[1]); import eqclus.cli; print(*sys.modules)"
    proc = subprocess.run([sys.executable, "-S", "-c", probe, src],
                          capture_output=True, text=True, check=True)
    loaded = set(proc.stdout.split())
    assert [layer for layer in load_tracer().TIMED if f"eqclus.{layer}" not in loaded] == []
    assert {"dataclasses", "eqclus.generators"} & loaded == set()


RUN = TRACER.parent / "run.py"

# the per-layer metrics each workload's pipeline calls, so reads as nonzero
NONZERO_LAYERS = {
    "large": {
        "cli.solve_ms", "cli.eval_ms", "formats.parse_instance_ms",
        "formats.parse_clustering_ms", "formats.format_clustering_ms",
        "core.extract_full_blocks_ms", "core.clustering_cost_ms",
        "exact_large.solve_large_ms", "exact_large.candidates",
        "assign.assign_to_medians_ms", "assign.min_cost_flow_ms", "assign.flow_nodes",
        "assign.flow_arcs", "assign.flow_volume"},
    "generic": {
        "cli.kernelize_ms", "cli.solve_ms", "cli.lift_ms", "cli.eval_ms",
        "formats.parse_instance_ms", "formats.format_instance_ms",
        "formats.parse_clustering_ms", "formats.format_clustering_ms",
        "kernel.lossy_kernelize_ms", "kernel.lift_solution_ms", "kernel.save_context_ms",
        "kernel.load_context_ms", "kernel.kernel_points", "kernel.kernel_clusters",
        "kernel.kernel_dim", "dimreduce.reduce_dimension_ms", "dimreduce.greedy_partition_ms",
        "dimreduce.budget_checks", "dimreduce.parts", "core.extract_full_blocks_ms",
        "core.clustering_cost_ms", "core.blocks_removed", "oracle.brute_force_opt_ms",
        "oracle.best_equal_partition_ms", "oracle.partition_count"},
    "exhaustive": {
        "cli.solve_ms", "cli.eval_ms", "formats.parse_instance_ms",
        "formats.parse_clustering_ms", "formats.format_clustering_ms",
        "core.clustering_cost_ms", "oracle.brute_force_opt_ms",
        "oracle.best_equal_partition_ms", "oracle.partition_count"},
}


@pytest.mark.parametrize("workload", sorted(NONZERO_LAYERS))
def test_traced_benchmark_pass_is_correct(workload):
    # one traced pass of the benchmark's pipeline, on seed 2 so that the
    # seed-1 result files stay as they are: every output checks, and the
    # tracer reads every layer the pipeline calls
    proc = subprocess.run([sys.executable, str(RUN), "--workload", workload,
                           "--seconds", "0", "--trace", "1", "--seed", "2"],
                          capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stderr
    nonzero = {name for name, metric in result["metrics"].items() if metric["value"]}
    assert nonzero == NONZERO_LAYERS[workload]
