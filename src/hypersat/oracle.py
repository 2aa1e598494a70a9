"""Classical ground-truth solvers used for verification and baselines.

``exhaustive_optimum`` enumerates all 2^n assignments in chunks, each
scored as one batch by ``wcnf.evaluate`` (bit i of the index is the value
of variable i+1).
``local_search`` is a weighted WalkSAT-style walk: pick an unsatisfied
clause with probability proportional to its weight, then with noise 0.5
flip a random variable of it, otherwise the variable minimizing the
resulting unsatisfied weight; the best assignment seen is tracked.

The walk keeps each clause's unsatisfied weight (0 if satisfied) in a
Fenwick (binary indexed) tree of Python ints, and two more lists in step
with the clauses' true counts: ``crit[j]``, clause j's weight when just one
of its literals is true (a flip of that literal breaks it), and
``unsat[j]``, its weight when none is (a flip of any literal mends it),
each 0 otherwise.  A step costs the tree descent of the draw, O(log m); on
a greedy step one sum over the crit and unsat items of each of the
clause's variables' occurrences; and for the flip, an update of the counts
and lists per occurrence of the flipped variable, plus one walk up the
tree, along a list of next slots, for each clause that it breaks or mends.
It calls nothing of numpy.

The walk's randomness is the generator's raw Philox words, fetched in
blocks (``_raw_draws``), from which it makes exactly the draws
``rng.random()`` and ``rng.integers(k)`` would make.  The clause draw is
the exact inverse CDF: with ``u = rng.random()``, a multiple of 2^-53, it
takes the first clause in index order whose int prefix sum of unsatisfied
weight exceeds u * unsat_w.  ``rng.choice(m, p=w * unsat / unsat_w)``
approximates that with a float cdf, ``cdf = p.cumsum(); cdf /= cdf[-1]``
and ``cdf.searchsorted(u, side="right")``, so the two draw the same clause
unless u lands within float rounding of a cdf step.  The walk reads and
writes Python lists (``WcnfInstance.occurrence_lists``, built once per
instance, and its state, built once per walk), not numpy scalars.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .rng import make_rng
from .wcnf import WcnfInstance, evaluate

MAX_EXHAUSTIVE_VARS = 26
_CHUNK_CELLS = 1 << 22  # assignments x literals per evaluated chunk
_UNIT = 1 << 53  # rng.random() draws multiples of 1 / _UNIT
_HALF = 1 << 32  # integers() draws from 32-bit halves of the raw words
_LOW = _HALF - 1
_BLOCK = 1 << 10  # raw words fetched at a time


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


def _draw(tree: list[int], total: int, k: int) -> int:
    """The first index j with ``values[0] + ... + values[j] > u * total``
    for the tree's values, u = k / 2^53 the draw of ``rng.random()`` whose
    53-bit int is k, and total the values' sum.

    ``k * total // 2^53`` is floor(u * total); an int prefix sum exceeds
    that floor just when it exceeds u * total."""
    target = k * total >> 53
    pos = 0
    step = len(tree) >> 1
    while step:
        if tree[pos + step] <= target:
            pos += step
            target -= tree[pos]
        step >>= 1
    return pos


def _raw_draws(
    rng: np.random.Generator,
) -> tuple[Callable[[], int], Callable[[int], int]]:
    """The draws of a Philox generator, made one at a time from its raw
    64-bit words, which are fetched in blocks of ``_BLOCK``.

    Returns (word, below).  ``word()`` is the next word, and ``word() >>
    11`` the 53-bit int that ``rng.random()`` scales by 2^-53.
    ``below(k)``, for 1 <= k <= 2^32, is ``rng.integers(k)``: numpy's
    Lemire draw on 32-bit halves, low half first, which takes a half h
    unless ``h * k mod 2^32`` is below ``2^32 mod k``; the high half is
    kept for the next draw, starting from the half that ``rng`` kept, and
    k = 1 draws nothing.  Both read one stream in the order called, so any
    interleaving of them makes the generator's own draws; ``rng`` is read
    ahead and must not be drawn from afterwards."""
    bits = rng.bit_generator
    state = bits.state
    spare = state["uinteger"] if state["has_uint32"] else None
    word = chain.from_iterable(
        iter(lambda: bits.random_raw(_BLOCK).tolist(), None)
    ).__next__

    def below(k: int) -> int:
        nonlocal spare
        if k == 1:
            return 0
        while True:
            if spare is None:
                w = word()
                half, spare = w & _LOW, w >> 32
            else:
                half, spare = spare, None
            m = half * k
            if m & _LOW >= _HALF % k:
                return m >> 32

    return word, below


def _walk_state(
    instance: WcnfInstance, assignment: np.ndarray
) -> tuple[list[int], list[int], list[int], list[int], list[int], int]:
    """The walk's state at an assignment, as the Python lists it reads and
    writes one item at a time: the assignment, each clause's count of true
    literals, its crit and unsat weights (see the module docstring), the
    Fenwick tree of the unsat weights, and the total unsatisfied weight."""
    true_count = np.add.reduceat(
        (assignment[instance.var] == instance.positive).astype(np.int64),
        instance.start[:-1],
    )
    crit = np.where(true_count == 1, instance.weight, 0)
    unsat = np.where(true_count == 0, instance.weight, 0)
    return (
        assignment.tolist(), true_count.tolist(), crit.tolist(),
        unsat.tolist(), _fenwick(unsat), int(unsat.sum()),
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
    word, below = _raw_draws(rng)
    # rng.random() < noise just when word() >> 11 < noise * 2^53, that is
    # when the word is below ceil(noise * 2^53) * 2^11
    noisy = math.ceil(noise * _UNIT) << 11

    occ = instance.occurrence_lists
    occurs, clause_vars, weights = occ.occurs, occ.clause_vars, occ.weight
    assignment, true_count, crit, unsat, tree, unsat_w = _walk_state(
        instance, initial
    )
    best_w = unsat_w
    size = len(tree)
    slot = np.arange(size)
    up = (slot + (slot & -slot)).tolist()  # the next slot that sums slot i
    crit_of, unsat_of = crit.__getitem__, unsat.__getitem__
    flips: list[int] = []
    best_flips = 0  # the best assignment is initial after flips[:best_flips]

    steps = 0
    for step in range(max_steps):
        if unsat_w == 0:
            break
        vars_ = clause_vars[_draw(tree, unsat_w, word() >> 11)]
        if word() < noisy:
            var = vars_[below(len(vars_))]
        else:  # the first variable whose flip leaves the least weight
            least = None
            for v in vars_:
                sides = occurs[v]
                value = assignment[v]
                # the weight of the clauses it breaks less those it mends
                delta = sum(map(crit_of, sides[value])) - sum(
                    map(unsat_of, sides[1 - value])
                )
                if least is None or delta < least:
                    least, var = delta, v
        # the flip: counts, crit and unsat weights, and the tree follow it
        value = assignment[var]
        sides = occurs[var]
        for j in sides[value]:  # true now
            count = true_count[j] - 1
            true_count[j] = count
            if count == 1:
                crit[j] = weights[j]
            elif count == 0:  # breaks: add its weight along the tree
                w = weights[j]
                crit[j] = 0
                unsat[j] = w
                unsat_w += w
                i = j + 1
                while i < size:
                    tree[i] += w
                    i = up[i]
        for j in sides[1 - value]:  # false now
            count = true_count[j]
            true_count[j] = count + 1
            if count == 0:  # becomes satisfied
                w = weights[j]
                crit[j] = w
                unsat[j] = 0
                unsat_w -= w
                i = j + 1
                while i < size:
                    tree[i] -= w
                    i = up[i]
            elif count == 1:
                crit[j] = 0
        assignment[var] = 1 - value
        flips.append(var)
        steps = step + 1
        if unsat_w < best_w:
            best_w = unsat_w
            best_flips = steps

    flipped = np.bincount(flips[:best_flips], minlength=n).astype(np.int8) & 1
    best_assignment = initial ^ flipped
    if (found := evaluate(instance, best_assignment).unsat_weight) != best_w:
        raise RuntimeError(f"tracked unsat weight {best_w}, assignment has {found}")
    return OracleResult(best_w, best_assignment, steps)
