"""Decision support for inserting an ML pre-screening filter in front of a
slower test-based patch validator.

Given published precision/recall/FPR/latency figures for a binary classifier
and the per-patch time of a traditional validator, the package answers two
planning questions in closed form (how many extra candidate patches are
needed, and how fast the classifier must be for the insertion to pay off) and
cross-checks every closed-form answer with a seeded Monte Carlo simulation.
"""

__version__ = "0.1.0"
