"""Seeded workloads for the hypersat benchmark.

The benchmark draws its own instances instead of calling the program's
generators, so that a change to ``generate_random_3sat`` or
``assign_random_weights`` cannot silently change what is measured.  The
3-SAT workloads follow the same distribution as those generators: distinct
variables per clause, fair-coin polarities, integer weights uniform in
``[1, weight_hi]``.  The program only ever sees the WCNF text.

The benchmark also evaluates assignments itself, in exact integer
arithmetic, so that its correctness checks do not trust the code under test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    m: int
    mixed_arity: bool  # False: every clause has 3 literals
    weight_hi: int
    epochs: int  # SolveConfig.max_epochs
    instances: int  # instances per run; quality metrics average over them
    ls_steps: int  # local_search step budget per run
    warmup_epochs: int  # epochs of the untimed warm-up solve
    stream: int  # keeps the workloads' random streams apart


# local_search runs per instance, each with its own seed, as with
# ``hypersat bench --seeds``: averages its quality over the walk's luck.
LS_SEEDS = 4

WORKLOADS = {
    w.name: w
    for w in (
        # Fixed per-op cost dominates: tape building, closures, Adam's loop
        # over tensors.  Hides the cost of n x n attention.  Not listed in
        # BENCHMARK.json (see README.md), but runnable by name.
        Workload("small-3sat", n=100, m=430, mixed_arity=False, weight_hi=10,
                 epochs=300, instances=32, ls_steps=500, warmup_epochs=5,
                 stream=1),
        # Dense n x n attention and its tape dominate time and peak RSS;
        # the epoch cap is what users set with --epochs.
        Workload("large-3sat", n=1000, m=4260, mixed_arity=False, weight_hi=10,
                 epochs=40, instances=10, ls_steps=1000, warmup_epochs=2,
                 stream=2),
        # Long clauses: the hypergraph pair loop and the per-arity task loss
        # do real work, and wide weights make quality weight-sensitive.
        # Instance hardness varies most here, so half the default epochs buy
        # twice the instances.
        Workload("mixed-arity", n=300, m=1200, mixed_arity=True, weight_hi=1000,
                 epochs=150, instances=16, ls_steps=1000, warmup_epochs=5,
                 stream=3),
    )
}


@dataclass(frozen=True)
class Instance:
    text: str  # WCNF, the only thing the program is given
    num_vars: int
    literals: np.ndarray  # all clauses' signed literals, concatenated
    starts: np.ndarray  # offset of each clause in ``literals``
    weights: np.ndarray  # int64, one per clause
    solve_seed: int
    ls_seeds: tuple[int, ...]

    @property
    def total_weight(self) -> int:
        return int(self.weights.sum())

    def unsat_weight(self, assignment: np.ndarray) -> int:
        """Exact unsatisfied weight of a 0/1 assignment of length n."""
        values = np.asarray(assignment)[np.abs(self.literals) - 1] != 0
        true_lits = values == (self.literals > 0)
        satisfied = np.add.reduceat(true_lits.astype(np.int64), self.starts) > 0
        return int(self.weights[~satisfied].sum())


def _clause_sizes(rng: np.random.Generator, w: Workload) -> np.ndarray:
    if not w.mixed_arity:
        return np.full(w.m, 3)
    half, quarter = w.m // 2, w.m // 4
    sizes = np.concatenate([
        np.full(half, 2),
        np.full(quarter, 3),
        rng.integers(5, 26, size=w.m - half - quarter),
    ])
    return rng.permutation(sizes)


def _instance(rng: np.random.Generator, w: Workload) -> Instance:
    sizes = _clause_sizes(rng, w)
    clauses = [
        (rng.choice(w.n, size=k, replace=False) + 1)
        * (rng.integers(0, 2, size=k) * 2 - 1)
        for k in sizes
    ]
    weights = rng.integers(1, w.weight_hi + 1, size=w.m).astype(np.int64)
    lines = [f"p wcnf {w.n} {w.m}"]
    lines += [
        f"{wt} {' '.join(map(str, lits))} 0" for wt, lits in zip(weights, clauses)
    ]
    solve_seed, *ls_seeds = (int(s) for s in rng.integers(0, 2**31, size=1 + LS_SEEDS))
    return Instance(
        text="\n".join(lines) + "\n",
        num_vars=w.n,
        literals=np.concatenate(clauses),
        starts=np.concatenate([[0], np.cumsum(sizes)[:-1]]),
        weights=weights,
        solve_seed=solve_seed,
        ls_seeds=tuple(ls_seeds),
    )


def generate(w: Workload, seed: int) -> list[Instance]:
    """The workload's instances for one seed; same seed, same instances."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng([seed, w.stream])
    return [_instance(rng, w) for _ in range(w.instances)]
