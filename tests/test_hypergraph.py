"""Hypergraph construction and the normalized message operator.

The dense reference implementations here rebuild Qt and S from first
principles (explicit incidence matrix products) and the sparse builders
are checked against them on random instances.
"""

import hashlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from clause_lists import make_instance
from hypersat.hypergraph import (
    build_literal_hypergraph,
    build_variable_hypergraph,
    normalized_operator,
    q_tilde,
)
from hypersat.rng import make_rng
from hypersat.wcnf import assign_random_weights, generate_random_3sat


def dense_q_tilde(hg):
    h = hg.h.toarray()
    de = np.maximum(hg.edge_degree - 1, 1).astype(np.float64)
    full = h @ np.diag(1.0 / de) @ h.T
    return full - np.diag(np.diag(full))


def dense_normalized(hg):
    qt = dense_q_tilde(hg)
    d = hg.node_degree.astype(np.float64)
    inv_sqrt = np.where(d > 0, 1.0 / np.sqrt(np.where(d > 0, d, 1.0)), 0.0)
    return np.diag(inv_sqrt) @ qt @ np.diag(inv_sqrt)


SMALL_CLAUSES = [((1, -2, 3), 4), ((-1, 2), 2), ((2,), 3)]


def small_instance():
    return make_instance(3, SMALL_CLAUSES)


def mixed_arity_instance(seed, n=30, m=90):
    """Clauses of 1 to 8 distinct variables, random polarities and weights."""
    rng = make_rng(seed, 0x3A)
    clauses = []
    for _ in range(m):
        vars_ = rng.choice(n, size=int(rng.integers(1, 9)), replace=False) + 1
        signs = rng.integers(0, 2, size=len(vars_)) * 2 - 1
        lits = tuple(int(v * s) for v, s in zip(vars_, signs))
        clauses.append((lits, int(rng.integers(1, 100))))
    return make_instance(n, clauses)


def edge_nodes(hg, j):
    """Sorted node ids of hyperedge j: the rows of column j of H."""
    return tuple(int(v) for v in np.flatnonzero(hg.h[:, [j]].toarray()))


def test_literal_node_layout():
    # +v -> v-1, -v -> n+v-1
    inst = make_instance(3, [((1,), 1), ((3,), 1), ((-1,), 1), ((-3,), 1)])
    hg = build_literal_hypergraph(inst)
    assert [edge_nodes(hg, j) for j in range(4)] == [(0,), (2,), (3,), (5,)]


def test_literal_hypergraph_shapes():
    hg = build_literal_hypergraph(small_instance())
    assert hg.num_nodes == 6
    assert hg.h.shape == (6, 3)
    assert edge_nodes(hg, 0) == (0, 2, 4)  # x1, x3, not x2
    assert edge_nodes(hg, 1) == (1, 3)
    assert edge_nodes(hg, 2) == (1,)
    assert list(hg.edge_degree) == [3, 2, 1]
    # weighted degrees: node 1 (x2) sits in clauses of weight 2 and 3
    assert hg.node_degree[1] == 5
    assert hg.node_degree[4] == 4
    assert hg.node_degree[5] == 0  # not x3 never occurs


def test_variable_hypergraph_merges_polarity():
    hg = build_variable_hypergraph(small_instance())
    assert hg.num_nodes == 3
    assert edge_nodes(hg, 0) == (0, 1, 2)
    assert edge_nodes(hg, 1) == (0, 1)


def test_variable_hypergraph_dedups_opposite_literals():
    inst = make_instance(2, [((1, -1, 2), 1)])
    hg = build_variable_hypergraph(inst)
    assert edge_nodes(hg, 0) == (0, 1)
    assert hg.edge_degree[0] == 2
    assert np.array_equal(hg.h.data, np.ones(2))  # binary


def test_q_tilde_hand_computed():
    # single clause (x1 or x2 or x3): delta=3, off-diagonals 1/2
    inst = make_instance(3, [((1, 2, 3), 1)])
    qt = q_tilde(build_literal_hypergraph(inst)).toarray()
    expected = np.zeros((6, 6))
    for a in range(3):
        for b in range(3):
            if a != b:
                expected[a, b] = 0.5
    assert np.array_equal(qt, expected)


def test_q_tilde_zero_diagonal_and_symmetric():
    inst = assign_random_weights(generate_random_3sat(6, 20, seed=3), seed=3)
    qt = q_tilde(build_literal_hypergraph(inst)).toarray()
    assert np.array_equal(qt, qt.T)
    assert np.all(np.diag(qt) == 0)


def test_unit_edge_contributes_nothing_off_diagonal():
    inst = make_instance(2, [((1,), 5), ((1, 2), 1)])
    hg = build_literal_hypergraph(inst)
    qt = q_tilde(hg).toarray()
    # only the x1-x2 pair from the second clause appears
    assert qt[0, 1] == 1.0 and qt[1, 0] == 1.0
    assert np.count_nonzero(qt) == 2
    # the unit clause still contributes weight to x1's degree
    assert hg.node_degree[0] == 6


@given(st.integers(0, 2_000))
@settings(max_examples=60, deadline=None)
def test_sparse_matches_dense_reference(seed):
    for inst in (
        assign_random_weights(generate_random_3sat(4, 12, seed=seed), seed=seed),
        mixed_arity_instance(seed, n=8, m=12),
    ):
        for build in (build_literal_hypergraph, build_variable_hypergraph):
            hg = build(inst)
            qt = q_tilde(hg).toarray()
            assert np.max(np.abs(qt - dense_q_tilde(hg))) <= 1e-12
            s = normalized_operator(hg).matrix.toarray()
            assert np.max(np.abs(s - dense_normalized(hg))) <= 1e-12


@given(st.integers(0, 2_000))
@settings(max_examples=30, deadline=None)
def test_normalized_operator_exactly_symmetric(seed):
    for inst in (
        assign_random_weights(generate_random_3sat(8, 30, seed=seed), seed=seed),
        mixed_arity_instance(seed),
    ):
        for build in (build_literal_hypergraph, build_variable_hypergraph):
            s = normalized_operator(build(inst)).matrix.toarray()
            assert np.array_equal(s, s.T)


def operator_digest(matrix):
    digest = hashlib.sha256()
    for a in (matrix.indptr, matrix.indices):
        digest.update(np.asarray(a, dtype="<i8").tobytes())
    digest.update(np.asarray(matrix.data, dtype="<f8").tobytes())
    return digest.hexdigest()


def test_mixed_arity_operator_reproduces_recorded_bits():
    # Recorded with the earlier pair-loop builder.  Edge degrees 1 to 8 give
    # 1/de values that round, so a change in the order the pairs' terms are
    # summed in moves these bits.
    inst = mixed_arity_instance(5)
    s = normalized_operator(build_literal_hypergraph(inst)).matrix
    assert operator_digest(s) == (
        "930b62463f3e74154b29444fe98e843cfeb3a2925f156e310fcdccb84396354b"
    )
    s = normalized_operator(build_variable_hypergraph(inst)).matrix
    assert operator_digest(s) == (
        "c5a4f11e55e72f0bfbedba81df113cf41c5862bfa5d634acb29f255d06a55a33"
    )


def test_isolated_nodes_give_zero_rows():
    inst = make_instance(3, [((1, 2), 1)])
    s = normalized_operator(build_literal_hypergraph(inst)).matrix.toarray()
    for node in (2, 3, 4, 5):  # x3 and all negations are isolated
        assert np.all(s[node] == 0)
        assert np.all(s[:, node] == 0)


def test_incidence_matches_edges():
    inst = small_instance()
    hg = build_literal_hypergraph(inst)
    h = hg.h.toarray()
    assert h.shape == (6, 3)
    n = inst.num_vars
    for j, (lits, _) in enumerate(SMALL_CLAUSES):
        nodes = [l - 1 if l > 0 else n - l - 1 for l in lits]
        assert list(np.flatnonzero(h[:, j])) == sorted(nodes)
    assert np.array_equal(h.sum(axis=0), hg.edge_degree)
    assert np.array_equal(h @ inst.weight, hg.node_degree)
