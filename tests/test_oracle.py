"""Classical reference solvers: exhaustive enumeration and weighted
stochastic local search."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypersat import oracle
from hypersat.oracle import exhaustive_optimum, local_search
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
        bits = np.array([(idx >> i) & 1 for i in range(n)], dtype=np.int8)
        w = evaluate(instance, bits).unsat_weight
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
