"""The functions perfbench/tracer.py wraps by name must exist in the package.

The tracer looks each one up when it installs itself, so a rename under src/
would otherwise surface only as a failed benchmark run. The tracer is loaded
as a plain module here and never installed.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

# call sites the tracer counts through a module attribute, besides TIMED
COUNTED = [("dimreduce", "distance_leq_budget"), ("exact_large", "assign_to_medians")]


def test_every_traced_function_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    hooks = [(layer, name) for layer, names in tracer.TIMED.items() for name in names]
    missing = [f"eqclus.{layer}.{name}" for layer, name in hooks + COUNTED
               if not callable(getattr(importlib.import_module(f"eqclus.{layer}"), name, None))]
    assert not missing
