"""Parsing, serialization, evaluation, and generation of weighted CNF."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clause_lists import make_instance
from hypersat.rng import make_rng
from hypersat.wcnf import (
    MAX_TOTAL_WEIGHT,
    MAX_VARS,
    WcnfParseError,
    assign_random_weights,
    evaluate,
    generate_random_3sat,
    parse_cnf,
    parse_wcnf,
    write_wcnf,
)


def reference_evaluate(clauses, values):
    """Per-clause loop over ``(literals, weight)`` pairs: (sat weight,
    unsat weight, satisfied flags)."""
    flags = []
    sat = unsat = 0
    for lits, weight in clauses:
        ok = any((lit > 0) == bool(values[abs(lit) - 1]) for lit in lits)
        flags.append(ok)
        if ok:
            sat += weight
        else:
            unsat += weight
    return sat, unsat, flags


def random_clauses(rng, n):
    """1 to n distinct variables per clause; some clauses are tautologies."""
    clauses = []
    for _ in range(int(rng.integers(1, 4 * n))):
        vars_ = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
        lits = [int(v + 1) * int(rng.choice([-1, 1])) for v in vars_]
        if len(lits) > 1 and rng.random() < 0.3:
            lits[1] = -lits[0]
            lits = list(dict.fromkeys(lits))
        clauses.append((tuple(lits), int(rng.integers(1, 1000))))
    return clauses


def arrays(instance):
    """Everything an instance holds, as lists that compare with ==."""
    return (
        instance.num_vars,
        instance.var.tolist(),
        instance.positive.tolist(),
        instance.start.tolist(),
        instance.weight.tolist(),
        instance.tautology.tolist(),
        instance.name,
    )


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
    assert inst.var.tolist() == [0, 1, 2, 0, 1]
    assert inst.positive.tolist() == [True, False, True, False, True]
    assert inst.start.tolist() == [0, 3, 5]
    assert inst.weight.tolist() == [1, 1]
    assert inst.name == "simple"


def test_parse_wcnf_weights():
    inst = parse_wcnf(WCNF_SIMPLE)
    assert inst.weight.tolist() == [5, 2]
    assert inst.total_weight() == 7


def test_parse_clause_spanning_lines():
    text = "p cnf 3 1\n1\n-2\n3 0\n"
    inst = parse_cnf(text)
    assert inst.var.tolist() == [0, 1, 2]
    assert inst.positive.tolist() == [True, False, True]
    assert inst.start.tolist() == [0, 3]


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


@pytest.mark.parametrize(
    "text, line",
    [("c no header\nh 1 2 0\n3 -1 0\n", 2),
     ("p wcnf 2 2\n3 -1 0\nh 1 2 0\n", 3)],
    ids=["without-header", "after-header"],
)
def test_parse_rejects_evaluation_2022_hard_clauses(text, line):
    with pytest.raises(WcnfParseError, match="hard clauses") as info:
        parse_wcnf(text)
    assert info.value.line == line
    assert "'h 1 2 0'" in str(info.value)


def test_parse_rejects_a_second_header():
    text = "p wcnf 3 2\n5 1 -2 3 0\np wcnf 1 2\n2 -1 0\n"
    with pytest.raises(WcnfParseError, match="second header") as info:
        parse_wcnf(text)
    assert info.value.line == 3


def test_parse_rejects_variable_counts_over_the_cap():
    # an over-cap header fails on its own line, before any clause is read
    huge = 99999999999999999999
    for text in (
        f"p wcnf {huge} 1\n3 {huge} 0\n",
        f"p wcnf {MAX_VARS + 1} 1\n3 1 -2 0\n",
    ):
        with pytest.raises(WcnfParseError, match="exceed") as info:
            parse_wcnf(text)
        assert info.value.line == 1
    inst = parse_wcnf(f"p wcnf {MAX_VARS} 1\n3 -{MAX_VARS} 0\n")
    assert inst.var.tolist() == [MAX_VARS - 1]


def test_parse_rejects_duplicate_literal():
    with pytest.raises(WcnfParseError, match="duplicate literal") as info:
        parse_wcnf("p wcnf 2 1\n3 1 1 0\n")
    assert info.value.line == 2


def assert_occurrence_lists_mirror_the_clauses(skip):
    # variable skip + 4 occurs nowhere, so only n tells the walk it exists
    a, b, c = skip + 1, skip + 2, skip + 3
    inst = make_instance(
        skip + 4, [((a, -b), 3), ((-a, b, c), 5), ((b, -b), 7)]
    )
    occ = inst.occurrence_lists
    # clause 2 is a tautology, which no flip can break or mend; each
    # variable's clauses of -v, then of +v
    assert occ.occurs == [([], [])] * skip + [
        ([1], [0]),
        ([0], [1]),
        ([], [1]),
        ([], []),
    ]
    assert inst.tautology.tolist() == [False, False, True]
    assert occ.clause_vars == [
        [skip, skip + 1], [skip, skip + 1, skip + 2], [skip + 1, skip + 1]
    ]
    assert occ.weight == [3, 5, 7]


def test_occurrence_lists_mirror_the_clauses():
    assert_occurrence_lists_mirror_the_clauses(0)


def test_occurrence_lists_mirror_the_clauses_past_16_bit_sort_keys():
    # with 40000 variables before the rest, 2n passes 2^16 and the sort
    # key is 32 bits wide
    assert_occurrence_lists_mirror_the_clauses(40_000)


def test_clause_validation():
    for clause, error in (
        (((), 1), "empty clause 1"),
        (((1, 1), 1), "duplicate literal in clause 1"),
        (((1, -1, 1), 1), "duplicate literal in clause 1"),
        (((1, 2), 0), "weights must be >= 1"),
        (((1, 0, 2), 1), "out of range"),
    ):
        with pytest.raises(ValueError, match=error):
            make_instance(2, [((1,), 1), clause])


def test_instance_validation():
    with pytest.raises(ValueError, match="out of range"):
        make_instance(2, [((3,), 1)])
    with pytest.raises(ValueError, match="at least one clause"):
        make_instance(2, [])
    with pytest.raises(ValueError, match="num_vars"):
        make_instance(0, [((1,), 1)])
    inst = make_instance(3, [((1, -2), 1), ((3,), 2)])
    for bad in (
        {"start": [0, 2, 4]},  # past the last literal
        {"start": [1, 2, 3]},  # does not start at 0
        {"start": [0, 3]},  # one clause, two weights
        {"positive": [True]},
        {"var": [[0, 1, 2]]},
    ):
        with pytest.raises(ValueError, match="do not fit"):
            dataclasses.replace(inst, **bad)


def test_instance_rejects_non_integral_values():
    inst = make_instance(3, [((1, -2), 2), ((3,), 3)])
    for name, bad in (
        ("weight", [1.7, 2.9]),
        ("weight", [2.0, np.nan]),
        ("var", [0.5, 1.0, 2.0]),
        ("start", [0.0, 2.0, 3.5]),
        ("start", [0.0, 2.0, np.inf]),
    ):
        with pytest.raises(ValueError, match=f"{name} must hold integers"):
            dataclasses.replace(inst, **{name: bad})
    # whole floats are the integers they hold
    same = dataclasses.replace(inst, weight=[2.0, 3.0], var=[0.0, 1.0, 2.0])
    assert same.weight.tolist() == [2, 3] and same.weight.dtype == np.int64
    assert same.var.tolist() == [0, 1, 2]


def test_instance_arrays_are_read_only():
    inst = make_instance(3, [((1, -2), 1), ((3, -3), 2)])
    occurs = inst.occurrence_lists.occurs
    for name in ("var", "positive", "start", "weight", "tautology"):
        array = getattr(inst, name)
        assert not array.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            array[0] = array[-1]
    # a caller's array of the right dtype is kept, not copied
    weight = np.array([4, 5])
    assert dataclasses.replace(inst, weight=weight).weight is weight
    assert not weight.flags.writeable
    assert inst.occurrence_lists.occurs is occurs


def test_roundtrip_write_parse():
    inst = parse_wcnf(WCNF_SIMPLE, name="x")
    again = parse_wcnf(write_wcnf(inst), name="x")
    assert arrays(again) == arrays(inst)


def reference_rejects(num_vars, clauses):
    """Index of the first clause a per-clause check rejects, -1 when there
    is no clause, None when every clause is valid."""
    if not clauses:
        return -1
    total = 0
    for j, (lits, weight) in enumerate(clauses):
        total += weight
        if (
            not lits
            or len(set(lits)) != len(lits)
            or any(lit == 0 or abs(lit) > num_vars for lit in lits)
            or weight < 1
            or total > MAX_TOTAL_WEIGHT
        ):
            return j
    return None


@given(
    st.integers(1, 5),
    st.lists(
        st.tuples(
            st.lists(st.integers(-6, 6), max_size=5).map(tuple),
            st.integers(0, 9) | st.integers(2**52, 2**53),
        ),
        max_size=6,
    ),
)
@settings(max_examples=500, deadline=None)
def test_instance_rejects_exactly_what_a_per_clause_check_rejects(n, clauses):
    bad = reference_rejects(n, clauses)
    try:
        inst = make_instance(n, clauses)
    except ValueError:
        assert bad is not None
    else:
        assert bad is None
        assert inst.tautology.tolist() == [
            any(-lit in lits for lit in lits) for lits, _ in clauses
        ]
    if any(0 in lits for lits, _ in clauses):
        return  # in the text a 0 ends its clause
    text = f"p wcnf {n} {len(clauses)}\n" + "".join(
        f"{w} {' '.join(map(str, lits))} 0\n" for lits, w in clauses
    )
    try:
        parsed = parse_wcnf(text)
    except WcnfParseError as exc:
        assert exc.line == bad + 2  # the header is line 1
    else:
        assert bad is None and arrays(parsed) == arrays(inst)


FUZZ_TEXTS = (
    WCNF_SIMPLE,
    "c two clauses span lines\np wcnf 4 3\n3 1 -2 0 7\n-4 2\n3 0\n1 4 0\n%\n0\n",
)
FUZZ_TOKENS = st.one_of(
    st.integers(-6, 6).map(str),
    st.sampled_from(
        ["p", "c", "%", "wcnf", "cnf", "x", "1.5", str(2**53), "9" * 25, ""]
    ),
    st.text(max_size=3),
)


@st.composite
def mutated_wcnf(draw):
    """Valid WCNF text after a few random edits: lines and tokens dropped,
    duplicated or replaced, and the header rewritten."""
    lines = draw(st.sampled_from(FUZZ_TEXTS)).splitlines()
    header = next(line.split() for line in lines if line.startswith("p"))
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(lines)))
        edit = draw(st.sampled_from(["line", "token", "header"]))
        if edit == "header":
            # the original header with one word changed or one added, put
            # in place of a line or between two
            words = list(header)
            k = draw(st.integers(1, len(words)))
            words[k:k + draw(st.integers(0, 1))] = [
                draw(st.integers(0, 6).map(str) | FUZZ_TOKENS)
            ]
            lines[i:i + draw(st.integers(0, 1))] = [" ".join(words)]
        elif edit == "line" or i == len(lines):
            action = draw(st.sampled_from(["drop", "dup", "replace"]))
            if action == "replace" or not lines:
                lines[i:i + 1] = [draw(st.sampled_from(lines or [""]))]
            elif action == "dup":
                lines[i:i] = lines[i:i + 1]
            else:
                del lines[i:i + 1]
        else:
            tokens = lines[i].split()
            j = draw(st.integers(0, len(tokens)))
            action = draw(st.sampled_from(["drop", "dup", "replace"]))
            if action == "drop":
                del tokens[j:j + 1]
            elif action == "dup":
                tokens[j:j] = tokens[j:j + 1]
            else:
                tokens[j:j + 1] = [draw(FUZZ_TOKENS)]
            lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


@given(mutated_wcnf())
@settings(max_examples=1000, deadline=None)
def test_mutated_text_parses_and_round_trips_or_reports_a_line(text):
    # any other exception, from the parser or from deeper code, fails here
    for parse in (parse_wcnf, parse_cnf):
        try:
            inst = parse(text)
        except WcnfParseError as exc:
            assert exc.line is None or 1 <= exc.line <= len(text.splitlines())
        else:
            assert arrays(parse_wcnf(write_wcnf(inst))) == arrays(inst)


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
    clauses = random_clauses(rng, n)
    inst = make_instance(n, clauses)
    # nonzero values other than 1 count as true, as in the reference
    batch = rng.integers(0, 3, size=(int(rng.integers(1, 6)), n))
    ev = evaluate(inst, batch)
    assert ev.sat_weight.shape == ev.unsat_weight.shape == (len(batch),)
    assert inst.tautology.tolist() == [
        any(-lit in lits for lit in lits) for lits, _ in clauses
    ]
    for row, values in enumerate(batch):
        sat, unsat, flags = reference_evaluate(clauses, values)
        assert ev.sat_weight[row] == sat and ev.unsat_weight[row] == unsat
        assert list(ev.clause_flags[row]) == flags
        one = evaluate(inst, values)
        assert (one.sat_weight, one.unsat_weight) == (sat, unsat)
        assert type(one.unsat_weight) is int
        assert list(one.clause_flags) == flags


def test_total_weight_must_stay_below_2_53():
    big = 2**53 - 1
    assert make_instance(1, [((1,), big)]).total_weight() == big
    assert parse_wcnf(f"p wcnf 1 1\n{big} 1 0\n").total_weight() == big
    with pytest.raises(ValueError, match="2\\^53"):
        make_instance(2, [((1,), big), ((2,), 1)])
    with pytest.raises(ValueError):
        make_instance(1, [((1,), 2**53)])
    # 2^10 weights of 2^53 - 1 wrap an int64 sum around to below 2^53
    with pytest.raises(ValueError, match="2\\^53"):
        make_instance(1, [((1,), big)] * 1024 + [((1,), 2**10 + 1)])
    text = f"p wcnf 2 3\n5 1 0\nc\n{big - 4} -1 2 0\n1 2 0\n"
    with pytest.raises(WcnfParseError) as exc:
        parse_wcnf(text)
    assert exc.value.line == 4


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_generator_shape_and_determinism(seed):
    a = generate_random_3sat(12, 30, seed=seed)
    b = generate_random_3sat(12, 30, seed=seed)
    assert arrays(a) == arrays(b)
    assert a.num_vars == 12 and a.num_clauses == 30
    assert a.arity.tolist() == [3] * 30
    for clause_vars in a.var.reshape(-1, 3).tolist():
        assert len(set(clause_vars)) == 3


def test_generator_different_seeds_differ():
    a = generate_random_3sat(20, 60, seed=0)
    assert arrays(a) != arrays(generate_random_3sat(20, 60, seed=1))


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_weight_assignment_range_and_determinism(seed):
    inst = generate_random_3sat(10, 30, seed=seed)
    w1 = assign_random_weights(inst, seed=seed)
    w2 = assign_random_weights(inst, seed=seed)
    assert arrays(w1) == arrays(w2)
    assert 1 <= w1.weight.min() and w1.weight.max() <= 10
    # the literal arrays are shared, not copied
    assert w1.var is inst.var and w1.positive is inst.positive
    assert w1.start is inst.start


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
