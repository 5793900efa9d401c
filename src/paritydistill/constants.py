"""Shared numerical tolerance policy.

Every module imports its thresholds from here so that equality checks,
positivity floors and convergence flags are enforced consistently across
the state engine, the protocol layer and the analytics layer.
"""

# Operator-algebra comparisons: the hermiticity defect.
HERMITICITY_ATOL = 1e-12

# Smallest admissible eigenvalue of a validated density matrix.  Slightly
# negative values are rounding debris from repeated conjugations.
EIGENVALUE_FLOOR = -1e-10

# Pure-state dominance: a matrix counts as rank one when its top eigenvalue
# carries at least (1 - RANK_ONE_RTOL) of the trace.
RANK_ONE_RTOL = 1e-10

# Traces and branch probabilities below this are treated as exactly zero.
TRACE_EPSILON = 1e-14

# Exhaustive branch enumerations (measurement trees) must conserve
# probability to this tolerance after pruning.
PROBABILITY_SUM_ATOL = 1e-10

# Branches lighter than this are dropped while expanding a measurement tree.
BRANCH_PRUNE_EPSILON = 1e-14

# Truncated-series bookkeeping: the geometric bound on the neglected tail
# must fall below this for the result to be flagged as converged.
SERIES_TAIL_TOL = 1e-9
