"""Literal/variable hypergraph construction and the normalized convolution
operator.

Each clause becomes a hyperedge, one column of the binary incidence matrix
H (nodes x clauses), whose weight is the clause weight.  In literal mode
variable x_i maps to node i-1 and its negation to node n+i-1.  The message
operator is built once per instance with sparse products:

    Qt = H De~^{-1} H^T - diag(H De~^{-1} H^T),   De~ = De - I
    S  = Dv^{-1/2} Qt Dv^{-1/2}

with Dv the weighted vertex degrees.  Unit edges (edge degree 1) clamp the
De~ entry to 1; they contribute nothing off-diagonal anyway.  Isolated
nodes use d^{-1/2} := 0.  Each entry of Qt sums its edges in clause order
whichever way round the pair is taken, so Qt and S are exactly symmetric.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .wcnf import WcnfInstance


@dataclass(frozen=True)
class LiteralHypergraph:
    num_nodes: int
    h: sp.csr_matrix  # binary incidence, num_nodes x clauses, sorted
    node_degree: np.ndarray  # float, weighted degree d(v)
    edge_degree: np.ndarray  # int, delta(e)


@dataclass(frozen=True)
class NormalizedOperator:
    """Precomputed S = Dv^{-1/2} Qt Dv^{-1/2}; symmetric, zero diagonal."""

    matrix: sp.csr_matrix


def _build(
    instance: WcnfInstance, nodes: np.ndarray, num_nodes: int
) -> LiteralHypergraph:
    """The hypergraph whose clause j holds the nodes of its literals."""
    # the CSR constructor sorts each row's clauses and merges the repeated
    # (node, clause) entries that a tautology leaves in variable mode
    h = sp.csr_matrix(
        (np.ones(len(nodes)), (nodes, instance.clause_of)),
        shape=(num_nodes, instance.num_clauses),
    )
    h.data[:] = 1.0
    return LiteralHypergraph(
        num_nodes=num_nodes,
        h=h,
        node_degree=h @ instance.weight.astype(np.float64),
        edge_degree=np.bincount(h.indices, minlength=instance.num_clauses),
    )


def build_literal_hypergraph(instance: WcnfInstance) -> LiteralHypergraph:
    n = instance.num_vars
    return _build(instance, instance.var + n * ~instance.positive, 2 * n)


def build_variable_hypergraph(instance: WcnfInstance) -> LiteralHypergraph:
    """Ablation variant: one node per variable, polarity discarded."""
    return _build(instance, instance.var, instance.num_vars)


def q_tilde(hg: LiteralHypergraph) -> sp.csr_matrix:
    """The adjacency-style operator Qt (zero diagonal, symmetric)."""
    de = np.maximum(hg.edge_degree - 1, 1).astype(np.float64)
    # scaling H's entries in place keeps its sorted clause order, which the
    # product then sums each pair in (scaling by a diagonal matrix would not)
    hd = hg.h.copy()
    hd.data /= de[hd.indices]
    q = (hd @ hg.h.T).tocoo()
    off = q.row != q.col
    return sp.csr_matrix(
        (q.data[off], (q.row[off], q.col[off])), shape=q.shape
    )


def normalized_operator(hg: LiteralHypergraph) -> NormalizedOperator:
    """S = Dv^{-1/2} Qt Dv^{-1/2}, with zero rows/columns for isolated nodes."""
    inv_sqrt = np.zeros(hg.num_nodes)
    pos = hg.node_degree > 0
    inv_sqrt[pos] = 1.0 / np.sqrt(hg.node_degree[pos])
    q = q_tilde(hg).tocoo()
    q.data *= inv_sqrt[q.row] * inv_sqrt[q.col]
    return NormalizedOperator(matrix=q.tocsr())
