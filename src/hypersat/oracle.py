"""Classical ground-truth solvers used for verification and baselines.

``exhaustive_optimum`` enumerates all 2^n assignments in chunks, each
scored as one batch by ``wcnf.evaluate`` (bit i of the index is the value
of variable i+1).
``local_search`` is a weighted WalkSAT-style walk: pick an unsatisfied
clause with probability proportional to its weight, then with noise 0.5
flip a random variable of it, otherwise the variable minimizing the
resulting unsatisfied weight; the best assignment seen is tracked.

A step costs O(unsatisfied clauses + occurrences of the flipped variable)
and draws the clause that ``rng.choice(m, p=w * unsat / unsat_w)`` would.
That call builds ``cdf = p.cumsum(); cdf /= cdf[-1]`` and returns
``cdf.searchsorted(rng.random(), side="right")``.  A satisfied clause adds
an exact 0.0 to the cumsum, so it cannot be the first entry above the
draw, and skipping it leaves every other cdf value unchanged.  The
unsatisfied weight is an exact int below 2^53, so dividing by the tracked
Python int gives the same floats as dividing by ``p``'s int64 sum.  The
walk reads and writes Python lists (``WcnfInstance.occurrence_lists``,
built once per instance), not numpy scalars.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import make_rng
from .wcnf import WcnfInstance, evaluate

MAX_EXHAUSTIVE_VARS = 26
_CHUNK_CELLS = 1 << 22  # assignments x literals per evaluated chunk


@dataclass(frozen=True)
class OracleResult:
    best_unsat_weight: int
    best_assignment: np.ndarray
    steps: int


def exhaustive_optimum(instance: WcnfInstance) -> OracleResult:
    """Global minimum unsatisfied weight; ties go to the lowest index."""
    n = instance.num_vars
    if n > MAX_EXHAUSTIVE_VARS:
        raise ValueError(
            f"n={n} exceeds exhaustive cap {MAX_EXHAUSTIVE_VARS}"
        )
    total = 1 << n
    chunk = max(1, _CHUNK_CELLS // len(instance.var))
    shifts = np.arange(n, dtype=np.int64)
    best_w = None
    assignment = None
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        bits = ((idx[:, None] >> shifts) & 1).astype(np.int8)
        unsat = evaluate(instance, bits).unsat_weight
        k = int(unsat.argmin())
        if best_w is None or unsat[k] < best_w:
            best_w = int(unsat[k])
            assignment = bits[k].copy()
    return OracleResult(best_w, assignment, total)


def local_search(
    instance: WcnfInstance,
    max_steps: int,
    seed: int = 0,
    noise: float = 0.5,
) -> OracleResult:
    """Weighted stochastic local search; deterministic per seed.

    With max_steps=0 this just evaluates the random initial assignment.
    Returns early if an assignment with zero unsatisfied weight is found.
    """
    if max_steps < 0:
        raise ValueError("max_steps must be >= 0")
    n = instance.num_vars
    rng = make_rng(seed, 0x15)
    initial = rng.integers(0, 2, size=n).astype(np.int8)

    occ = instance.occurrence_lists
    occurs, clause_vars, weights = occ.occurs, occ.clause_vars, occ.weight
    true_count = np.add.reduceat(
        (initial[instance.var] == instance.positive).astype(np.int64),
        instance.start[:-1],
    )
    unsat_mask = true_count == 0
    unsat_w = int(instance.weight[unsat_mask].sum())
    best_w = unsat_w
    # plain Python lists: the walk reads and writes them one item at a time
    true_count = true_count.tolist()
    assignment = initial.tolist()
    flips: list[int] = []
    best_flips = 0  # the best assignment is initial after flips[:best_flips]

    def flip_delta(var: int) -> int:
        value = assignment[var]
        delta = 0
        for j, pol in occurs[var]:
            if value == pol:
                if true_count[j] == 1:
                    delta += weights[j]  # clause breaks
            elif true_count[j] == 0:
                delta -= weights[j]  # clause becomes satisfied
        return delta

    def do_flip(var: int) -> None:
        nonlocal unsat_w
        value = assignment[var]
        for j, pol in occurs[var]:
            count = true_count[j]
            if value == pol:
                true_count[j] = count - 1
                if count == 1:
                    unsat_w += weights[j]
                    unsat_mask[j] = True
            else:
                if count == 0:
                    unsat_w -= weights[j]
                    unsat_mask[j] = False
                true_count[j] = count + 1
        assignment[var] = 1 - value
        flips.append(var)

    steps = 0
    for step in range(max_steps):
        if unsat_w == 0:
            break
        # rng.choice(m, p=w * unsat / unsat_w) bit for bit, over the
        # unsatisfied clauses only (see the module docstring)
        idx = unsat_mask.nonzero()[0]
        cdf = (instance.weight[idx] / unsat_w).cumsum()
        cdf /= cdf[-1]
        j = int(idx[cdf.searchsorted(rng.random(), side="right")])
        vars_ = clause_vars[j]
        if rng.random() < noise:
            var = vars_[int(rng.integers(len(vars_)))]
        else:
            deltas = [flip_delta(v) for v in vars_]
            var = vars_[deltas.index(min(deltas))]
        do_flip(var)
        steps = step + 1
        if unsat_w < best_w:
            best_w = unsat_w
            best_flips = steps

    flipped = np.bincount(flips[:best_flips], minlength=n).astype(np.int8) & 1
    best_assignment = initial ^ flipped
    if (found := evaluate(instance, best_assignment).unsat_weight) != best_w:
        raise RuntimeError(f"tracked unsat weight {best_w}, assignment has {found}")
    return OracleResult(best_w, best_assignment, steps)
