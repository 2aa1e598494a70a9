"""Classical reference solvers: exhaustive enumeration and weighted
stochastic local search."""

import dataclasses
import hashlib
import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clause_lists import make_instance, random_3sat_clauses
from hypersat import oracle
from hypersat.oracle import exhaustive_optimum, local_search
from hypersat.rng import make_rng
from hypersat.wcnf import (
    assign_random_weights,
    evaluate,
    generate_random_3sat,
)


def naive_optimum(n, clauses):
    """Independent double-loop reference over all assignments of n
    variables, reading ``(literals, weight)`` pairs."""
    best = None
    for idx in range(1 << n):
        w = sum(
            weight
            for lits, weight in clauses
            if not any(((idx >> (abs(l) - 1)) & 1) == (l > 0) for l in lits)
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
    clauses = random_3sat_clauses(seed, n=6, m=20)
    inst = make_instance(6, clauses)
    res = exhaustive_optimum(inst)
    assert res.best_unsat_weight == naive_optimum(6, clauses)
    assert evaluate(inst, res.best_assignment).unsat_weight == res.best_unsat_weight
    assert res.steps == 1 << inst.num_vars


def test_exhaustive_hand_case():
    # (x1) w=3, (not x1) w=5: best keeps the heavier clause satisfied
    inst = make_instance(1, [((1,), 3), ((-1,), 5)])
    res = exhaustive_optimum(inst)
    assert res.best_unsat_weight == 3
    assert res.best_assignment[0] == 0


def test_exhaustive_satisfiable_case():
    inst = make_instance(2, [((1, 2), 7), ((-1, 2), 9)])
    res = exhaustive_optimum(inst)
    assert res.best_unsat_weight == 0


def test_exhaustive_tie_breaks_to_lowest_index():
    # both assignments of x1 leave weight 1 unsatisfied; index 0 wins
    inst = make_instance(1, [((1,), 1), ((-1,), 1)])
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
    inst = make_instance(3, [((1, 2), 4), ((-1, 3), 2)])
    res = local_search(inst, max_steps=100_000, seed=0)
    assert res.best_unsat_weight == 0
    assert res.steps < 100_000


def test_local_search_greedy_step_ignores_tautologies():
    # from x = (0, 0) the greedy step must flip x1 to satisfy (x1 or x2):
    # flipping x1 cannot break (x1 or not x1), however heavy it is
    inst = make_instance(2, [((1, 2), 1), ((1, -1), 100), ((-2,), 1)])
    res = local_search(inst, max_steps=50, seed=1, noise=0.0)
    assert res.best_unsat_weight == 0


def test_local_search_rejects_negative_steps():
    inst = rand_instance(1)
    with pytest.raises(ValueError):
        local_search(inst, max_steps=-1, seed=0)


@pytest.mark.parametrize("noise", [float("nan"), -0.1, 1.5, float("inf")])
def test_local_search_rejects_noise_outside_the_unit_interval(noise):
    # a NaN noise would make every coin come up greedy
    with pytest.raises(ValueError, match="noise"):
        local_search(rand_instance(1), max_steps=10, seed=0, noise=noise)


def test_local_search_checks_its_result(monkeypatch):
    # a real check, not an assert that python -O would strip
    real_evaluate = oracle.evaluate

    def off_by_one(instance, assignment):
        res = real_evaluate(instance, assignment)
        return dataclasses.replace(res, unsat_weight=res.unsat_weight + 1)

    monkeypatch.setattr(oracle, "evaluate", off_by_one)
    with pytest.raises(RuntimeError, match="tracked unsat weight"):
        local_search(rand_instance(4), max_steps=100, seed=4)


def reference_walk(n, clauses, max_steps, seed, noise=0.5):
    """The walk as first written, over ``(literals, weight)`` pairs: it
    samples with rng.choice over all m clauses and keeps its state in numpy
    arrays.  Tautologies are left out of the occurrence lists, since no
    flip breaks or mends them."""
    m = len(clauses)
    rng = make_rng(seed, 0x15)
    assignment = rng.integers(0, 2, size=n).astype(np.int8)
    weights = np.array([w for _, w in clauses], dtype=np.int64)
    clause_vars = [[abs(l) - 1 for l in lits] for lits, _ in clauses]
    occurs = [[] for _ in range(n)]
    for j, (lits, _) in enumerate(clauses):
        if any(-lit in lits for lit in lits):
            continue
        for lit in lits:
            occurs[abs(lit) - 1].append((j, int(lit > 0)))
    true_count = np.array(
        [
            sum(assignment[abs(l) - 1] == (l > 0) for l in lits)
            for lits, _ in clauses
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


def assert_walks_like_reference(n, clauses, max_steps, seed, noise):
    best_w, best_assignment, steps = reference_walk(
        n, clauses, max_steps, seed, noise
    )
    inst = make_instance(n, clauses)
    res = local_search(inst, max_steps=max_steps, seed=seed, noise=noise)
    assert res.best_unsat_weight == best_w
    assert res.best_assignment.dtype == best_assignment.dtype == np.int8
    assert np.array_equal(res.best_assignment, best_assignment)
    assert res.steps == steps


@st.composite
def walk_instances(draw, tautology_odds=20):
    """(n, clauses) of small instances with unit clauses, tautologies (one
    clause in ``tautology_odds``) and weights up to 2^40."""
    n = draw(st.integers(1, 12))
    clauses = []
    for _ in range(draw(st.integers(1, 30))):
        vars_ = draw(
            st.lists(st.integers(1, n), min_size=1, max_size=min(n, 6), unique=True)
        )
        lits = [v if draw(st.booleans()) else -v for v in vars_]
        if draw(st.integers(1, tautology_odds)) == 1:
            lits.append(-lits[0])  # tautology
        clauses.append((tuple(lits), draw(st.integers(1, 2**40))))
    return n, clauses


@given(
    walk_instances(),
    st.integers(0, 300),
    st.integers(0, 2**32 - 1),
    st.sampled_from([0.0, 0.5, 1.0]),
)
@settings(max_examples=150, deadline=None)
def test_local_search_walks_like_rng_choice_over_all_clauses(
    instance, max_steps, seed, noise
):
    # sampling among the unsatisfied clauses must draw the very clause that
    # rng.choice(m, p=...) draws; a change to numpy's choice fails here
    assert_walks_like_reference(*instance, max_steps, seed, noise)


@given(
    walk_instances(tautology_odds=2),
    st.integers(50, 300),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=100, deadline=None)
def test_local_search_greedy_walk_with_many_tautologies(
    instance, max_steps, seed
):
    # every step greedy and about half the clauses tautologies, so the walk
    # often weighs flipping a variable whose literal is the only true one
    # of a tautology; counting that clause as broken picks another flip
    assert_walks_like_reference(*instance, max_steps, seed, 0.0)


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
        clauses.append((lits.tolist(), int(rng.integers(1, 1001))))
    return make_instance(n, clauses)


def unit_clause_instance(seed, n=301, m=900):
    """Random 3-SAT on an odd n with both unit clauses of the first 40
    variables, so that no assignment satisfies it; weights 1-10."""
    units = [
        ((sign * v,), 1 + (v + sign) % 10)
        for v in range(1, 41)
        for sign in (1, -1)
    ]
    return make_instance(n, random_3sat_clauses(seed, n, m) + units)


@pytest.mark.parametrize(
    "kind, seed, best_w, digest",
    [
        ("3sat", 3, 378, "5266f87d1e40e273835f7fc2898474fa2bb2a509af18106acb7cd8aa3fede697"),
        ("3sat", 4, 256, "54363844178730e108a07a239c81d406c3bdb13bb644ab8d64519f388690e93d"),
        ("mixed", 6, 11078, "c6b8f75a3569b5b7d10b195aa24830d32000cc4a0bedfc36e7181268e58c6b72"),
        ("units", 8, 316, "4372bb18d39933e20a62913f6064dc3039a83fbe0720341254edc750842250a3"),
    ],
)
def test_local_search_reproduces_recorded_walks(kind, seed, best_w, digest):
    # Recorded from the walk that sampled with rng.choice over all clauses;
    # the walk on unit clauses from the one that drew with rng.random() and
    # rng.integers(): n is odd, so its first integers() draw takes the half
    # word that the initial assignment left, and a unit clause draws none
    noise = 0.5
    if kind == "3sat":
        inst = assign_random_weights(generate_random_3sat(1000, 4260, seed=11), seed=11)
    elif kind == "mixed":
        inst = mixed_arity_instance(5)
    else:  # every step draws its flip
        inst, noise = unit_clause_instance(12), 1.0
    res = local_search(inst, max_steps=1000, seed=seed, noise=noise)
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


@st.composite
def draws(draw):
    """(weights, k): clause weights up to 2^40, zeros for satisfied clauses,
    and the 53-bit int k of a draw u = k / 2^53 of rng.random().  Half the
    weight lists are padded to a power-of-two total, on which u * total
    lands exactly on a prefix sum when k is drawn just at one."""
    weights = draw(
        st.lists(st.one_of(st.just(0), st.integers(1, 2**40)), min_size=1, max_size=40)
        .filter(any)
    )
    if draw(st.booleans()):
        weights.append((1 << (sum(weights) - 1).bit_length()) - sum(weights))
    total = sum(weights)
    prefixes = [p for p in (0, *itertools.accumulate(weights)) if p < total]
    at_prefix = st.sampled_from(prefixes).map(lambda p: -(-(p << 53) // total))
    return weights, draw(st.one_of(st.integers(0, 2**53 - 1), at_prefix))


@given(draws())
@example(([1, 0, 3, 4], 2**50))  # u * total = 1, the first two prefix sums
@settings(max_examples=500, deadline=None)
def test_draw_is_the_exact_inverse_cdf(drawn):
    # the first clause whose prefix sum exceeds u * total (searchsorted's
    # side="right"), in exact rationals
    weights, k = drawn
    total = sum(weights)
    expected = next(
        j
        for j, prefix in enumerate(itertools.accumulate(weights))
        if prefix > Fraction(k, 2**53) * total
    )
    tree = oracle._fenwick(np.array(weights, dtype=np.int64))
    assert oracle._draw(tree, total, k) == expected
    assert weights[expected] > 0


@given(
    walk_instances(),
    st.integers(0, 300),
    st.integers(0, 2**32 - 1),
    st.sampled_from([0.0, 0.5, 1.0]),
)
@settings(max_examples=100, deadline=None)
def test_walk_state_equals_one_rebuilt_from_its_assignment(
    instance, max_steps, seed, noise
):
    # the walk updates its counts, its crit and unsat weights and its tree
    # in place; after it they must equal those built afresh from where it
    # stopped (a tautology's count, and so its crit weight, is left as it
    # was: no flip can break or mend it)
    states = []
    build = oracle._walk_state

    def recorded(inst, assignment):
        states.append(build(inst, assignment))
        return states[-1]

    inst = make_instance(*instance)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "_walk_state", recorded)
        local_search(inst, max_steps=max_steps, seed=seed, noise=noise)
    assignment, true_count, crit, unsat, tree, _ = states[0]
    rebuilt = build(inst, np.array(assignment, dtype=np.int8))
    kept = ~inst.tautology
    for got, want in zip((true_count, crit), rebuilt[1:3]):
        assert np.array_equal(np.array(want)[kept], np.array(got)[kept])
    assert rebuilt[3:5] == (unsat, tree)


BOUNDS = [*range(1, 31), 2**31 + 1, 3 * 10**9]


def assert_draws_like_the_generator(key, n, calls):
    # after the initial integers(0, 2, size=n) the walk makes, the raw-word
    # draws must be the generator's own, whatever their order; None stands
    # for a random() draw, k for integers(k)
    rng = np.random.Generator(np.random.Philox(key=key))
    same = np.random.Generator(np.random.Philox(key=key))
    assert np.array_equal(rng.integers(0, 2, size=n), same.integers(0, 2, size=n))
    word, below = oracle._raw_draws(rng)
    for k in calls:
        if k is None:
            assert (word() >> 11) / 2**53 == same.random()
        else:
            assert below(k) == same.integers(k)


@given(
    st.integers(0, 2**64 - 1),
    st.integers(0, 9),
    st.lists(st.one_of(st.none(), st.sampled_from(BOUNDS)), max_size=80),
)
@settings(max_examples=300, deadline=None)
def test_raw_draws_equal_the_generators(key, n, calls):
    # k = 2^31 + 1 and 3 * 10^9 take Lemire's rejection branch often, the
    # clause sizes almost never
    assert_draws_like_the_generator(key, n, calls)


@pytest.mark.parametrize("n", [300, 301])
def test_raw_draws_equal_the_generators_across_blocks(n):
    # many blocks of raw words, after an even and an odd initial draw
    rng = np.random.default_rng(n)
    calls = [
        None if pick < len(BOUNDS) else BOUNDS[pick % len(BOUNDS)]
        for pick in rng.integers(0, 2 * len(BOUNDS), size=6 * oracle._BLOCK)
    ]
    assert_draws_like_the_generator(n, n, calls)
