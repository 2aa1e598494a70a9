"""Classical ground-truth solvers used for verification and baselines.

``exhaustive_optimum`` enumerates all 2^n assignments in chunks, each
scored as one batch by ``wcnf.evaluate`` (bit i of the index is the value
of variable i+1).
``local_search`` is a weighted WalkSAT-style walk: pick an unsatisfied
clause with probability proportional to its weight, then with noise 0.5
flip a random variable of it, otherwise the variable minimizing the
resulting unsatisfied weight; the best assignment seen is tracked.

The walk keeps each clause's unsatisfied weight (0 if satisfied) in a
Fenwick (binary indexed) tree of Python ints.  A step costs O(log m) for
the draw and for each clause the flip breaks or mends, plus the
occurrences of the clause's variables, and calls nothing of numpy but the
generator's draws.  The draw is the exact inverse CDF: with ``u = rng.random()``, a multiple of
2^-53, it takes the first clause in index order whose int prefix sum of
unsatisfied weight exceeds u * unsat_w.  ``rng.choice(m, p=w * unsat /
unsat_w)`` approximates that with a float cdf, ``cdf = p.cumsum(); cdf /=
cdf[-1]`` and ``cdf.searchsorted(u, side="right")``, so the two draw the
same clause unless u lands within float rounding of a cdf step.  The
walk reads and writes Python lists (``WcnfInstance.occurrence_lists``,
built once per instance, and the tree, built once per walk), not numpy
scalars.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import make_rng
from .wcnf import WcnfInstance, evaluate

MAX_EXHAUSTIVE_VARS = 26
_CHUNK_CELLS = 1 << 22  # assignments x literals per evaluated chunk
_UNIT = 1 << 53  # rng.random() draws multiples of 1 / _UNIT


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


def _fenwick(values: np.ndarray) -> list[int]:
    """Fenwick (binary indexed) tree of nonnegative int64 values, whose
    sum is below 2^53.  It has size slots, size the least power of two
    not below ``len(values)``: slot 0 holds 0 and slot i sums
    ``values[i - (i & -i):i]``, counting the values past the last as 0.
    The slot of the whole sum, size, is left out (the walk keeps that
    total itself), and a descent from size / 2 needs no bound check."""
    size = 1 << (len(values) - 1).bit_length()
    prefix = np.zeros(size + 1, dtype=np.int64)
    np.cumsum(values, out=prefix[1 : len(values) + 1])
    prefix[len(values) + 1 :] = prefix[len(values)]
    i = np.arange(size)
    return (prefix[i] - prefix[i - (i & -i)]).tolist()


def _draw(tree: list[int], total: int, u: float) -> int:
    """The first index j with ``values[0] + ... + values[j] > u * total``
    for the tree's values, u in [0, 1) and total the values' sum.

    ``rng.random()`` returns a multiple of 2^-53, so ``k = u * 2^53`` is
    an exact int and ``k * total // 2^53`` is floor(u * total); an int
    prefix sum exceeds that floor just when it exceeds u * total."""
    target = int(u * _UNIT) * total // _UNIT
    pos = 0
    step = len(tree) >> 1
    while step:
        if tree[pos + step] <= target:
            pos += step
            target -= tree[pos]
        step >>= 1
    return pos


def _walk_state(
    instance: WcnfInstance, assignment: np.ndarray
) -> tuple[list[int], list[int], list[int], int]:
    """The walk's state at an assignment, as the Python lists it reads and
    writes one item at a time: the assignment, each clause's count of true
    literals, the Fenwick tree of each clause's unsatisfied weight (0 if
    satisfied), and the total unsatisfied weight."""
    true_count = np.add.reduceat(
        (assignment[instance.var] == instance.positive).astype(np.int64),
        instance.start[:-1],
    )
    unsat = np.where(true_count == 0, instance.weight, 0)
    return (
        assignment.tolist(), true_count.tolist(), _fenwick(unsat),
        int(unsat.sum()),
    )


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
    if not 0.0 <= noise <= 1.0:  # False for NaN too
        raise ValueError(f"noise must be in [0, 1], got {noise}")
    n = instance.num_vars
    rng = make_rng(seed, 0x15)
    initial = rng.integers(0, 2, size=n).astype(np.int8)

    occ = instance.occurrence_lists
    occurs, clause_vars, weights = occ.occurs, occ.clause_vars, occ.weight
    assignment, true_count, tree, unsat_w = _walk_state(instance, initial)
    best_w = unsat_w
    size = len(tree)
    flips: list[int] = []
    best_flips = 0  # the best assignment is initial after flips[:best_flips]

    def flip_delta(var: int) -> int:
        value = assignment[var]
        delta = 0
        for j in occurs[var][value]:  # true now
            if true_count[j] == 1:
                delta += weights[j]  # clause breaks
        for j in occurs[var][1 - value]:  # false now
            if true_count[j] == 0:
                delta -= weights[j]  # clause becomes satisfied
        return delta

    def do_flip(var: int) -> None:
        nonlocal unsat_w
        value = assignment[var]
        for j in occurs[var][value]:  # true now
            count = true_count[j] - 1
            true_count[j] = count
            if count == 0:  # breaks: add its weight along the tree
                w = weights[j]
                unsat_w += w
                i = j + 1
                while i < size:
                    tree[i] += w
                    i += i & -i
        for j in occurs[var][1 - value]:  # false now
            count = true_count[j]
            if count == 0:  # becomes satisfied
                w = weights[j]
                unsat_w -= w
                i = j + 1
                while i < size:
                    tree[i] -= w
                    i += i & -i
            true_count[j] = count + 1
        assignment[var] = 1 - value
        flips.append(var)

    steps = 0
    for step in range(max_steps):
        if unsat_w == 0:
            break
        j = _draw(tree, unsat_w, rng.random())
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
