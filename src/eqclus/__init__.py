"""Equal-size k-median clustering: exact solvers, kernelization, generators."""

from .core import (
    Clustering,
    CostValue,
    Instance,
    InvalidClusteringError,
    InvalidInstanceError,
    Median,
    Point,
    cluster_cost,
    clustering_cost,
    distance_leq_budget,
    extract_full_blocks,
    lp_distance,
    make_instance,
    optimum_median,
    truncated_cost,
)
from .kernel import LiftContext, exact_kernelize, lift_solution, lossy_kernelize

__version__ = "0.1.0"

# there is no compiled engine; perfbench/run.py writes this into its run records
COMPILED = False

__all__ = [
    "COMPILED", "Clustering", "CostValue", "Instance", "InvalidClusteringError",
    "InvalidInstanceError", "LiftContext", "Median", "Point", "cluster_cost",
    "clustering_cost", "distance_leq_budget", "exact_kernelize",
    "extract_full_blocks", "lift_solution", "lossy_kernelize", "lp_distance",
    "make_instance", "optimum_median", "truncated_cost", "__version__",
]
