"""Classical reference solvers: exhaustive enumeration and weighted
stochastic local search."""

import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypersat import oracle
from hypersat.oracle import exhaustive_optimum, local_search
from hypersat.rng import make_rng
from hypersat.wcnf import (
    Clause,
    WcnfInstance,
    assign_random_weights,
    evaluate,
    generate_random_3sat,
)


def naive_optimum(instance):
    """Independent double-loop reference over all assignments."""
    n = instance.num_vars
    best = None
    for idx in range(1 << n):
        w = sum(
            cl.weight
            for cl in instance.clauses
            if not any(((idx >> (abs(l) - 1)) & 1) == (l > 0) for l in cl.literals)
        )
        if best is None or w < best:
            best = w
    return best


def rand_instance(seed, n=6, m=20):
    return assign_random_weights(
        generate_random_3sat(n, m, seed=seed), seed=seed
    )


@given(st.integers(0, 3_000))
@settings(max_examples=25, deadline=None)
def test_exhaustive_matches_naive_reference(seed):
    inst = rand_instance(seed)
    res = exhaustive_optimum(inst)
    assert res.best_unsat_weight == naive_optimum(inst)
    assert evaluate(inst, res.best_assignment).unsat_weight == res.best_unsat_weight
    assert res.steps == 1 << inst.num_vars


def test_exhaustive_hand_case():
    # (x1) w=3, (not x1) w=5: best keeps the heavier clause satisfied
    inst = WcnfInstance(1, (Clause((1,), 3), Clause((-1,), 5)))
    res = exhaustive_optimum(inst)
    assert res.best_unsat_weight == 3
    assert res.best_assignment[0] == 0


def test_exhaustive_satisfiable_case():
    inst = WcnfInstance(2, (Clause((1, 2), 7), Clause((-1, 2), 9)))
    res = exhaustive_optimum(inst)
    assert res.best_unsat_weight == 0


def test_exhaustive_tie_breaks_to_lowest_index():
    # both assignments of x1 leave weight 1 unsatisfied; index 0 wins
    inst = WcnfInstance(1, (Clause((1,), 1), Clause((-1,), 1)))
    res = exhaustive_optimum(inst)
    assert res.best_assignment[0] == 0


def test_exhaustive_crosses_chunk_boundary():
    # n=17 means 2^17 assignments, exercising multiple 2^16 chunks
    inst = assign_random_weights(
        generate_random_3sat(17, 40, seed=5), seed=5
    )
    res = exhaustive_optimum(inst)
    assert evaluate(inst, res.best_assignment).unsat_weight == res.best_unsat_weight
    assert res.steps == 1 << 17


def test_exhaustive_rejects_large_n():
    inst = generate_random_3sat(27, 30, seed=0)
    with pytest.raises(ValueError):
        exhaustive_optimum(inst)


@given(st.integers(0, 3_000))
@settings(max_examples=25, deadline=None)
def test_local_search_result_is_consistent(seed):
    inst = rand_instance(seed, n=8, m=28)
    res = local_search(inst, max_steps=500, seed=seed)
    assert evaluate(inst, res.best_assignment).unsat_weight == res.best_unsat_weight
    assert 0 <= res.best_unsat_weight <= inst.total_weight()
    assert res.steps <= 500


@given(st.integers(0, 3_000))
@settings(max_examples=15, deadline=None)
def test_local_search_never_beats_exhaustive(seed):
    inst = rand_instance(seed, n=8, m=28)
    assert (
        local_search(inst, max_steps=2_000, seed=seed).best_unsat_weight
        >= exhaustive_optimum(inst).best_unsat_weight
    )


def test_local_search_deterministic_per_seed():
    inst = rand_instance(42, n=10, m=35)
    a = local_search(inst, max_steps=1_000, seed=7)
    b = local_search(inst, max_steps=1_000, seed=7)
    assert a.best_unsat_weight == b.best_unsat_weight
    assert np.array_equal(a.best_assignment, b.best_assignment)


def test_local_search_zero_steps_evaluates_initial():
    inst = rand_instance(3, n=10, m=35)
    res = local_search(inst, max_steps=0, seed=3)
    assert res.steps == 0
    assert evaluate(inst, res.best_assignment).unsat_weight == res.best_unsat_weight


def test_local_search_more_steps_never_worse():
    inst = rand_instance(8, n=12, m=55)
    short = local_search(inst, max_steps=50, seed=1).best_unsat_weight
    long = local_search(inst, max_steps=5_000, seed=1).best_unsat_weight
    assert long <= short


def test_local_search_stops_early_when_satisfied():
    inst = WcnfInstance(3, (Clause((1, 2), 4), Clause((-1, 3), 2)))
    res = local_search(inst, max_steps=100_000, seed=0)
    assert res.best_unsat_weight == 0
    assert res.steps < 100_000


def test_local_search_rejects_negative_steps():
    inst = rand_instance(1)
    with pytest.raises(ValueError):
        local_search(inst, max_steps=-1, seed=0)


def test_local_search_checks_its_result(monkeypatch):
    # a real check, not an assert that python -O would strip
    real_evaluate = oracle.evaluate

    def off_by_one(instance, assignment):
        res = real_evaluate(instance, assignment)
        return dataclasses.replace(res, unsat_weight=res.unsat_weight + 1)

    monkeypatch.setattr(oracle, "evaluate", off_by_one)
    with pytest.raises(RuntimeError, match="tracked unsat weight"):
        local_search(rand_instance(4), max_steps=100, seed=4)


def reference_walk(instance, max_steps, seed, noise=0.5):
    """The walk as first written: it samples with rng.choice over all m
    clauses and keeps its state in numpy arrays."""
    n, m = instance.num_vars, instance.num_clauses
    rng = make_rng(seed, 0x15)
    assignment = rng.integers(0, 2, size=n).astype(np.int8)
    weights = np.array([cl.weight for cl in instance.clauses], dtype=np.int64)
    clause_vars = [[abs(l) - 1 for l in cl.literals] for cl in instance.clauses]
    occurs = [[] for _ in range(n)]
    for j, cl in enumerate(instance.clauses):
        for lit in cl.literals:
            occurs[abs(lit) - 1].append((j, int(lit > 0)))
    true_count = np.array(
        [
            sum(assignment[abs(l) - 1] == (l > 0) for l in cl.literals)
            for cl in instance.clauses
        ],
        dtype=np.int64,
    )
    unsat_w = int(weights[true_count == 0].sum())
    best_w, best_assignment = unsat_w, assignment.copy()

    def flip_delta(var):
        delta = 0
        for j, pol in occurs[var]:
            if assignment[var] == pol:
                if true_count[j] == 1:
                    delta += weights[j]
            elif true_count[j] == 0:
                delta -= weights[j]
        return delta

    def do_flip(var):
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
        vars_ = clause_vars[j]
        if rng.random() < noise:
            var = vars_[int(rng.integers(len(vars_)))]
        else:
            var = vars_[int(np.argmin([flip_delta(v) for v in vars_]))]
        do_flip(var)
        steps = step + 1
        if unsat_w < best_w:
            best_w = int(unsat_w)
            best_assignment = assignment.copy()
    return best_w, best_assignment, steps


@st.composite
def walk_instances(draw):
    """Small instances with unit clauses, tautologies and weights up to 2^40."""
    n = draw(st.integers(1, 12))
    clauses = []
    for _ in range(draw(st.integers(1, 30))):
        vars_ = draw(
            st.lists(st.integers(1, n), min_size=1, max_size=min(n, 6), unique=True)
        )
        lits = [v if draw(st.booleans()) else -v for v in vars_]
        if draw(st.integers(0, 19)) == 0:
            lits.append(-lits[0])  # tautology
        clauses.append(Clause(tuple(lits), draw(st.integers(1, 2**40))))
    return WcnfInstance(n, tuple(clauses))


@given(
    walk_instances(),
    st.integers(0, 300),
    st.integers(0, 2**32 - 1),
    st.sampled_from([0.0, 0.5, 1.0]),
)
@settings(max_examples=150, deadline=None)
def test_local_search_walks_like_rng_choice_over_all_clauses(
    inst, max_steps, seed, noise
):
    # sampling among the unsatisfied clauses must draw the very clause that
    # rng.choice(m, p=...) draws; a change to numpy's choice fails here
    best_w, best_assignment, steps = reference_walk(inst, max_steps, seed, noise)
    res = local_search(inst, max_steps=max_steps, seed=seed, noise=noise)
    assert res.best_unsat_weight == best_w
    assert res.best_assignment.dtype == best_assignment.dtype == np.int8
    assert np.array_equal(res.best_assignment, best_assignment)
    assert res.steps == steps


def mixed_arity_instance(seed, n=300, m=1200):
    """Half binary, a quarter ternary, a quarter of 5-25 literals; weights
    1-1000."""
    rng = make_rng(seed, 0x4D)
    sizes = rng.permutation(
        np.concatenate([
            np.full(m // 2, 2),
            np.full(m // 4, 3),
            rng.integers(5, 26, size=m - m // 2 - m // 4),
        ])
    )
    clauses = []
    for k in sizes:
        vars_ = rng.choice(n, size=k, replace=False) + 1
        lits = vars_ * (rng.integers(0, 2, size=k) * 2 - 1)
        clauses.append(Clause(tuple(lits.tolist()), int(rng.integers(1, 1001))))
    return WcnfInstance(n, tuple(clauses))


@pytest.mark.parametrize(
    "kind, seed, best_w, digest",
    [
        ("3sat", 3, 378, "5266f87d1e40e273835f7fc2898474fa2bb2a509af18106acb7cd8aa3fede697"),
        ("3sat", 4, 256, "54363844178730e108a07a239c81d406c3bdb13bb644ab8d64519f388690e93d"),
        ("mixed", 6, 11078, "c6b8f75a3569b5b7d10b195aa24830d32000cc4a0bedfc36e7181268e58c6b72"),
    ],
)
def test_local_search_reproduces_recorded_walks(kind, seed, best_w, digest):
    # Recorded from the walk that sampled with rng.choice over all clauses.
    if kind == "3sat":
        inst = assign_random_weights(generate_random_3sat(1000, 4260, seed=11), seed=11)
    else:
        inst = mixed_arity_instance(5)
    res = local_search(inst, max_steps=1000, seed=seed)
    assert res.best_unsat_weight == best_w
    assert res.steps == 1000
    assert res.best_assignment.dtype == np.int8
    assert hashlib.sha256(res.best_assignment.tobytes()).hexdigest() == digest


def test_occurrence_lists_built_once_per_instance():
    inst = rand_instance(9, n=10, m=40)
    local_search(inst, max_steps=100, seed=1)
    built = vars(inst)["occurrence_lists"]
    local_search(inst, max_steps=100, seed=2)
    assert vars(inst)["occurrence_lists"] is built
