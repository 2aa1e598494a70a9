"""Parsing, serialization, evaluation, and generation of weighted CNF."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypersat.rng import make_rng
from hypersat.wcnf import (
    Clause,
    WcnfInstance,
    WcnfParseError,
    assign_random_weights,
    evaluate,
    generate_random_3sat,
    parse_cnf,
    parse_wcnf,
    write_wcnf,
)


def reference_evaluate(instance, values):
    """Per-clause loop: (sat weight, unsat weight, satisfied flags)."""
    flags = []
    sat = unsat = 0
    for cl in instance.clauses:
        ok = any((lit > 0) == bool(values[abs(lit) - 1]) for lit in cl.literals)
        flags.append(ok)
        if ok:
            sat += cl.weight
        else:
            unsat += cl.weight
    return sat, unsat, flags


def random_instance(rng, n):
    """1 to n distinct variables per clause; some clauses are tautologies."""
    clauses = []
    for _ in range(int(rng.integers(1, 4 * n))):
        vars_ = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
        lits = [int(v + 1) * int(rng.choice([-1, 1])) for v in vars_]
        if len(lits) > 1 and rng.random() < 0.3:
            lits[1] = -lits[0]
            lits = list(dict.fromkeys(lits))
        clauses.append(Clause(tuple(lits), int(rng.integers(1, 1000))))
    return WcnfInstance(n, tuple(clauses))

CNF_SIMPLE = """\
c a comment
p cnf 3 2
1 -2 3 0
-1 2 0
"""

WCNF_SIMPLE = """\
p wcnf 3 2
5 1 -2 3 0
2 -1 2 0
"""


def test_parse_cnf_basic():
    inst = parse_cnf(CNF_SIMPLE, name="simple")
    assert inst.num_vars == 3
    assert inst.num_clauses == 2
    assert inst.clauses[0].literals == (1, -2, 3)
    assert all(cl.weight == 1 for cl in inst.clauses)
    assert inst.name == "simple"


def test_parse_wcnf_weights():
    inst = parse_wcnf(WCNF_SIMPLE)
    assert [cl.weight for cl in inst.clauses] == [5, 2]
    assert inst.total_weight() == 7


def test_parse_clause_spanning_lines():
    text = "p cnf 3 1\n1\n-2\n3 0\n"
    inst = parse_cnf(text)
    assert inst.clauses[0].literals == (1, -2, 3)


def test_parse_satlib_percent_marker():
    text = "p cnf 2 1\n1 2 0\n%\n0\n"
    inst = parse_cnf(text)
    assert inst.num_clauses == 1


def test_parse_errors_carry_line_numbers():
    with pytest.raises(WcnfParseError) as exc:
        parse_cnf("p cnf 2 1\n1 x 0\n")
    assert exc.value.line == 2


def test_parse_rejects_out_of_range_variable():
    with pytest.raises((WcnfParseError, ValueError)):
        parse_cnf("p cnf 2 1\n1 5 0\n")


def test_parse_rejects_clause_count_mismatch():
    with pytest.raises(WcnfParseError):
        parse_cnf("p cnf 2 3\n1 2 0\n")


def test_parse_rejects_missing_header():
    with pytest.raises(WcnfParseError):
        parse_cnf("1 2 0\n")


def test_parse_rejects_classic_header_with_top_weight():
    text = "c hard clauses\np wcnf 2 2 10\n10 1 2 0\n3 -1 0\n"
    with pytest.raises(WcnfParseError, match="hard clauses") as info:
        parse_wcnf(text)
    assert info.value.line == 2
    assert "top weight (10)" in str(info.value)


def test_parse_rejects_duplicate_literal():
    with pytest.raises(WcnfParseError, match="duplicate literal") as info:
        parse_wcnf("p wcnf 2 1\n3 1 1 0\n")
    assert info.value.line == 2


def test_occurrence_lists_mirror_the_clauses():
    # variable 4 occurs nowhere, so only n tells the walk it exists
    inst = WcnfInstance(
        4, (Clause((1, -2), 3), Clause((-1, 2, 3), 5), Clause((2, -2), 7))
    )
    occ = inst.occurrence_lists
    assert occ.occurs == [
        [(0, 1), (1, 0)],
        [(0, 0), (1, 1), (2, 1), (2, 0)],
        [(1, 1)],
        [],
    ]
    assert occ.clause_vars == [[0, 1], [0, 1, 2], [1, 1]]
    assert occ.weight == [3, 5, 7]


def test_clause_validation():
    with pytest.raises(ValueError):
        Clause((), 1)
    with pytest.raises(ValueError):
        Clause((1, 1), 1)
    with pytest.raises(ValueError):
        Clause((1, 2), 0)
    with pytest.raises(ValueError):
        Clause((1, 0, 2), 1)


def test_instance_validation():
    with pytest.raises(ValueError):
        WcnfInstance(2, (Clause((3,), 1),))


def test_roundtrip_write_parse():
    inst = parse_wcnf(WCNF_SIMPLE, name="x")
    again = parse_wcnf(write_wcnf(inst), name="x")
    assert again == inst


def test_evaluate_counts_weights_exactly():
    inst = parse_wcnf(WCNF_SIMPLE)
    # clause 1: x1 or not x2 or x3 ; clause 2: not x1 or x2
    ev = evaluate(inst, np.array([1, 0, 0]))
    assert ev.sat_weight == 5 and ev.unsat_weight == 2
    assert list(ev.clause_flags) == [True, False]
    ev = evaluate(inst, np.array([0, 0, 0]))
    assert ev.sat_weight == 7 and ev.unsat_weight == 0


def test_evaluate_rejects_bad_assignment():
    inst = parse_wcnf(WCNF_SIMPLE)
    with pytest.raises(ValueError):
        evaluate(inst, np.array([1, 0]))
    with pytest.raises(ValueError):
        evaluate(inst, np.ones((2, 2)))
    with pytest.raises(ValueError):
        evaluate(inst, np.ones((1, 1, 3)))


@given(st.integers(0, 10_000), st.integers(1, 8))
@settings(max_examples=100, deadline=None)
def test_batched_evaluate_matches_reference_loop(seed, n):
    rng = make_rng(seed, 0xE1)
    inst = random_instance(rng, n)
    # nonzero values other than 1 count as true, as in the reference
    batch = rng.integers(0, 3, size=(int(rng.integers(1, 6)), n))
    ev = evaluate(inst, batch)
    assert ev.sat_weight.shape == ev.unsat_weight.shape == (len(batch),)
    for row, values in enumerate(batch):
        sat, unsat, flags = reference_evaluate(inst, values)
        assert ev.sat_weight[row] == sat and ev.unsat_weight[row] == unsat
        assert list(ev.clause_flags[row]) == flags
        one = evaluate(inst, values)
        assert (one.sat_weight, one.unsat_weight) == (sat, unsat)
        assert type(one.unsat_weight) is int
        assert list(one.clause_flags) == flags


def test_total_weight_must_stay_below_2_53():
    big = 2**53 - 1
    assert WcnfInstance(1, (Clause((1,), big),)).total_weight() == big
    assert parse_wcnf(f"p wcnf 1 1\n{big} 1 0\n").total_weight() == big
    with pytest.raises(ValueError, match="2\\^53"):
        WcnfInstance(2, (Clause((1,), big), Clause((2,), 1)))
    with pytest.raises(ValueError):
        WcnfInstance(1, (Clause((1,), 2**53),))
    text = f"p wcnf 2 3\n5 1 0\nc\n{big - 4} -1 2 0\n1 2 0\n"
    with pytest.raises(WcnfParseError) as exc:
        parse_wcnf(text)
    assert exc.value.line == 4


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_generator_shape_and_determinism(seed):
    a = generate_random_3sat(12, 30, seed=seed)
    b = generate_random_3sat(12, 30, seed=seed)
    assert a == b
    assert a.num_vars == 12 and a.num_clauses == 30
    for cl in a.clauses:
        assert len(cl.literals) == 3
        assert len({abs(l) for l in cl.literals}) == 3


def test_generator_different_seeds_differ():
    assert generate_random_3sat(20, 60, seed=0) != generate_random_3sat(
        20, 60, seed=1
    )


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_weight_assignment_range_and_determinism(seed):
    inst = generate_random_3sat(10, 30, seed=seed)
    w1 = assign_random_weights(inst, seed=seed)
    w2 = assign_random_weights(inst, seed=seed)
    assert w1 == w2
    for cl in w1.clauses:
        assert 1 <= cl.weight <= 10
    lits = [cl.literals for cl in w1.clauses]
    assert lits == [cl.literals for cl in inst.clauses]


@given(
    st.integers(0, 500),
    st.lists(st.integers(0, 1), min_size=9, max_size=9),
)
@settings(max_examples=50, deadline=None)
def test_sat_plus_unsat_equals_total(seed, bits):
    inst = assign_random_weights(
        generate_random_3sat(9, 25, seed=seed), seed=seed
    )
    ev = evaluate(inst, np.array(bits))
    assert ev.sat_weight + ev.unsat_weight == inst.total_weight()
