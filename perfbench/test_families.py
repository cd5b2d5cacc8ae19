"""Premises of the benchmark's output checks, confirmed by exhaustive search.

Each test builds shrunken members of an instance family (same construction,
n <= 12) and confirms with oracle.brute_force_opt that the optimum known from
the construction is the true one, or, for the exhaustive workload, that the
swap check accepts every optimum and catches a clustering that is not one.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import families  # noqa: E402
import run  # noqa: E402
from eqclus import core, oracle  # noqa: E402
from eqclus.core import make_instance  # noqa: E402


def brute_opt(inst: dict) -> int:
    _, cost = oracle.brute_force_opt(
        make_instance(inst["rows"], p=inst["p"], k=inst["k"], B=inst["B"]))
    return cost.exact


def test_benchmark_shapes_sit_in_their_regimes():
    large, generic = (families.WORKLOADS[w][1] for w in ("large", "generic"))
    assert large["s"] >= 4 * large["B"] + 1          # solve_large applies
    assert large["k"] <= large["B"] < 2 * large["k"]  # Opt = k is YES, Opt = 2k is NO
    assert generic["s"] < 4 * generic["B"] + 1       # lossy kernel reduces, not solves
    assert 2 <= generic["B"]                          # Opt = 2 is within budget


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("index", [0, 1])
def test_large_family_optimum(seed, index):
    # YES at even index (one moved point per cluster), NO at odd (two)
    inst = families.large_instance(random.Random(seed), index, k=2, s=6, d=2, B=2, p=1)
    assert inst["opt"] == (2 if index == 0 else 4)
    assert brute_opt(inst) == inst["opt"]
    assert inst["yes"] == (inst["opt"] <= inst["B"])


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("index", [0, 1])
def test_generic_family_optimum(seed, index):
    # two full blocks and two clusters with one moved point; p = 1, then p = 0
    inst = families.generic_instance(random.Random(seed), index, k=4, s=3, d=4, B=2)
    assert inst["p"] == 1 - index
    assert inst["opt"] == 2
    assert brute_opt(inst) == 2


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("index", [0, 1])
def test_swap_check_accepts_optimum(seed, index):
    shape = families.WORKLOADS["exhaustive"][1]
    inst = families.exhaustive_instance(random.Random(seed), index, **shape)
    clustering, cost = oracle.brute_force_opt(
        make_instance(inst["rows"], p=inst["p"], k=inst["k"], B=inst["B"]))
    labels = [clustering.assignment[i] - 1 for i in range(len(inst["rows"]))]
    assert run.clustering_cost(core, inst, labels) == cost.exact
    assert run.improving_swap(core, inst, labels) is None


@pytest.mark.parametrize("p", [0, 1])
def test_swap_check_rejects_non_optimum(p):
    inst = {"p": p, "k": 2, "B": 0, "rows": [[0, 0]] * 3 + [[10, 10]] * 3}
    assert run.improving_swap(core, inst, [0, 1, 0, 1, 0, 1]) is not None
