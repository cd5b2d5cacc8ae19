"""Equal-size k-median clustering: exact solvers, kernelization, generators."""

__version__ = "0.1.0"

# there is no compiled engine; perfbench/run.py writes this into its run records
COMPILED = False
