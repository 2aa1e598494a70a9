"""Classical ground-truth solvers used for verification and baselines.

``exhaustive_optimum`` enumerates all 2^n assignments in chunks, each
scored as one batch by ``wcnf.evaluate`` (bit i of the index is the value
of variable i+1).
``local_search`` is a weighted WalkSAT-style walk: pick an unsatisfied
clause with probability proportional to its weight, then with noise 0.5
flip a random variable of it, otherwise the variable minimizing the
resulting unsatisfied weight; the best assignment seen is tracked.
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
    chunk = max(1, _CHUNK_CELLS // len(instance.clause_table.var))
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
    n, m = instance.num_vars, instance.num_clauses
    rng = make_rng(seed, 0x15)
    assignment = rng.integers(0, 2, size=n).astype(np.int8)

    t = instance.clause_table
    weights = t.weight
    # plain Python lists: the walk indexes them one item at a time
    lit_var = t.var.tolist()
    starts = t.start.tolist()
    # occurs[v]: (clause, polarity) of each literal of variable v, in
    # clause order
    order = np.argsort(t.var, kind="stable")
    pairs = list(
        zip(t.clause_of[order].tolist(), t.positive[order].astype(int).tolist())
    )
    bounds = [0] + np.cumsum(np.bincount(t.var, minlength=n)).tolist()
    occurs = [pairs[a:b] for a, b in zip(bounds, bounds[1:])]

    true_count = np.add.reduceat(
        (assignment[t.var] == t.positive).astype(np.int64), t.start[:-1]
    )
    unsat_w = int(weights[true_count == 0].sum())
    best_w = unsat_w
    best_assignment = assignment.copy()

    def flip_delta(var: int) -> int:
        new_val = 1 - assignment[var]
        delta = 0
        for j, pol in occurs[var]:
            was_true = assignment[var] == pol
            if was_true:
                if true_count[j] == 1:
                    delta += weights[j]  # clause breaks
            else:
                if true_count[j] == 0:
                    delta -= weights[j]  # clause becomes satisfied
        return delta

    def do_flip(var: int) -> None:
        nonlocal unsat_w
        for j, pol in occurs[var]:
            if assignment[var] == pol:
                true_count[j] -= 1
                if true_count[j] == 0:
                    unsat_w += weights[j]
            else:
                if true_count[j] == 0:
                    unsat_w -= weights[j]
                true_count[j] += 1
        assignment[var] = 1 - assignment[var]

    steps = 0
    for step in range(max_steps):
        if best_w == 0:
            break
        unsat_mask = true_count == 0
        if not unsat_mask.any():
            break
        probs = weights * unsat_mask
        j = int(rng.choice(m, p=probs / probs.sum()))
        vars_ = lit_var[starts[j] : starts[j + 1]]
        if rng.random() < noise:
            var = vars_[int(rng.integers(len(vars_)))]
        else:
            var = vars_[int(np.argmin([flip_delta(v) for v in vars_]))]
        do_flip(var)
        steps = step + 1
        if unsat_w < best_w:
            best_w = int(unsat_w)
            best_assignment = assignment.copy()

    if (found := evaluate(instance, best_assignment).unsat_weight) != best_w:
        raise RuntimeError(f"tracked unsat weight {best_w}, assignment has {found}")
    return OracleResult(best_w, best_assignment, steps)
