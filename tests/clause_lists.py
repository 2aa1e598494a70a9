"""Instances written as clause lists, for tests."""

import numpy as np

from hypersat.wcnf import WcnfInstance


def make_instance(num_vars, clauses, name=""):
    """The instance of ``(literals, weight)`` pairs, each literal a signed
    1-based variable index as in DIMACS."""
    lits = np.array([lit for c, _ in clauses for lit in c], dtype=np.int64)
    return WcnfInstance(
        num_vars,
        var=np.abs(lits) - 1,
        positive=lits > 0,
        start=np.cumsum([0] + [len(c) for c, _ in clauses]),
        weight=np.array([w for _, w in clauses], dtype=np.int64),
        name=name,
    )


def random_3sat_clauses(seed, n, m, weight_hi=10):
    """m clauses of 3 distinct variables out of n, fair-coin polarities,
    weights uniform in [1, weight_hi]."""
    rng = np.random.default_rng(seed)
    clauses = []
    for _ in range(m):
        vars_ = rng.choice(n, size=3, replace=False) + 1
        signs = rng.integers(0, 2, size=3) * 2 - 1
        weight = int(rng.integers(1, weight_hi + 1))
        clauses.append(((vars_ * signs).tolist(), weight))
    return clauses
