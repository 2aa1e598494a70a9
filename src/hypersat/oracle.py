"""Classical ground-truth solvers used for verification and baselines.

``exhaustive_optimum`` enumerates all 2^n assignments (chunked, vectorized
over assignment indices; bit i of the index is the value of variable i+1).
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
_CHUNK = 1 << 16


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
    clauses = [
        (
            np.array([abs(l) - 1 for l in cl.literals], dtype=np.uint64),
            np.array([l > 0 for l in cl.literals], dtype=bool),
            cl.weight,
        )
        for cl in instance.clauses
    ]
    total = 1 << n
    best_w = None
    best_idx = 0
    explored = 0
    for start in range(0, total, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, total), dtype=np.uint64)
        unsat = np.zeros(idx.shape[0], dtype=np.int64)
        for vars_, pos, w in clauses:
            bits = (idx[:, None] >> vars_[None, :]) & np.uint64(1)
            sat = ((bits == 1) == pos[None, :]).any(axis=1)
            unsat += w * (~sat)
        k = int(unsat.argmin())
        explored += idx.shape[0]
        if best_w is None or unsat[k] < best_w:
            best_w = int(unsat[k])
            best_idx = start + k
    assignment = np.array(
        [(best_idx >> i) & 1 for i in range(n)], dtype=np.int8
    )
    return OracleResult(best_w, assignment, explored)


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

    weights = np.array([cl.weight for cl in instance.clauses], dtype=np.int64)
    clause_lits = [cl.literals for cl in instance.clauses]
    occurs: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for j, lits in enumerate(clause_lits):
        for lit in lits:
            occurs[abs(lit) - 1].append((j, 1 if lit > 0 else 0))

    true_count = np.zeros(m, dtype=np.int64)
    for j, lits in enumerate(clause_lits):
        true_count[j] = sum(
            1 for lit in lits if assignment[abs(lit) - 1] == (lit > 0)
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
        lits = clause_lits[j]
        if rng.random() < noise:
            var = abs(lits[int(rng.integers(len(lits)))]) - 1
        else:
            deltas = [flip_delta(abs(lit) - 1) for lit in lits]
            var = abs(lits[int(np.argmin(deltas))]) - 1
        do_flip(var)
        steps = step + 1
        if unsat_w < best_w:
            best_w = int(unsat_w)
            best_assignment = assignment.copy()

    if (found := evaluate(instance, best_assignment).unsat_weight) != best_w:
        raise RuntimeError(f"tracked unsat weight {best_w}, assignment has {found}")
    return OracleResult(best_w, best_assignment, steps)
