"""Differentiable losses.

The task loss is the relaxed weighted unsatisfaction

    sum_j w_j * prod_{i in C_j^+} (1 - y_i) * prod_{i in C_j^-} y_i,

which for binary y equals the exact unsatisfied weight, and for any y in
[0, 1]^n the expected unsatisfied weight under independent Bernoulli(y)
(tautologies are compiled out, see ``CompiledClauses``).  (Minimizing it
maximizes the weighted satisfied sum; the constant total weight is
dropped.)  The shared-representation loss ||L_pos + L_neg||_F^2 pushes
complementary literal embeddings toward antisymmetry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .wcnf import WcnfInstance


@dataclass(frozen=True)
class LossBreakdown:
    task: float
    shared: float
    lam: float

    @property
    def total(self) -> float:
        return self.task + self.lam * self.shared


@dataclass(frozen=True)
class CompiledClauses:
    """Clauses grouped by arity for vectorized products.

    For each arity group: ``var_idx`` is (g, a) 0-based variable indices,
    ``positive`` is the (g, a) polarity mask, ``weights`` is (g,).
    Tautologies (x or not x) are left out: no assignment leaves them
    unsatisfied, but their product (1 - y) * y is positive inside (0, 1).
    """

    num_vars: int
    groups: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]


def _tautologies(instance: WcnfInstance) -> np.ndarray:
    """Bool per clause: True where the clause holds both x and not x."""
    t = instance.clause_table
    # literals are distinct, so a (clause, variable) key repeats only when
    # both polarities are present
    keys = np.sort(t.clause_of * instance.num_vars + t.var)
    out = np.zeros(instance.num_clauses, dtype=bool)
    out[keys[1:][keys[1:] == keys[:-1]] // instance.num_vars] = True
    return out


def compile_clauses(instance: WcnfInstance) -> CompiledClauses:
    t = instance.clause_table
    arity = t.arity
    arity[_tautologies(instance)] = 0
    groups = []
    for a in np.unique(arity[arity > 0]):
        clauses = np.flatnonzero(arity == a)
        lits = t.start[clauses, None] + np.arange(a)
        groups.append(
            (t.var[lits], t.positive[lits], t.weight[clauses].astype(np.float64))
        )
    return CompiledClauses(num_vars=instance.num_vars, groups=tuple(groups))


def _factors(y, var_idx, positive):
    vals = y[var_idx]
    return np.where(positive, 1.0 - vals, vals)


def task_loss_value(y: np.ndarray, compiled: CompiledClauses) -> float:
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    if y.shape[0] != compiled.num_vars:
        raise ValueError(
            f"expected {compiled.num_vars} probabilities, got {y.shape[0]}"
        )
    loss = 0.0
    for var_idx, positive, weights in compiled.groups:
        prod = _factors(y, var_idx, positive).prod(axis=1)
        loss += float(weights @ prod)
    return loss


def task_loss_grad(y: np.ndarray, compiled: CompiledClauses) -> np.ndarray:
    """Analytic gradient via prefix/suffix products (exact even at 0/1)."""
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    grad = np.zeros(compiled.num_vars)
    for var_idx, positive, weights in compiled.groups:
        f = _factors(y, var_idx, positive)  # (g, a)
        a = f.shape[1]
        prefix = np.ones_like(f)
        suffix = np.ones_like(f)
        for k in range(1, a):
            prefix[:, k] = prefix[:, k - 1] * f[:, k - 1]
            suffix[:, a - 1 - k] = suffix[:, a - k] * f[:, a - k]
        dfactor = weights[:, None] * prefix * suffix
        dy = np.where(positive, -dfactor, dfactor)
        np.add.at(grad, var_idx.reshape(-1), dy.reshape(-1))
    return grad


def task_loss(
    instance_or_compiled, y: np.ndarray | ad.Tensor
) -> float | ad.Tensor:
    """Task loss for a probability vector; accepts an autodiff Tensor or a
    plain array (binary arrays give the exact unsatisfied weight)."""
    compiled = instance_or_compiled
    if isinstance(compiled, WcnfInstance):
        compiled = compile_clauses(compiled)
    if isinstance(y, ad.Tensor):
        yv = y.value.reshape(-1)
        val = task_loss_value(yv, compiled)
        gy = task_loss_grad(yv, compiled)

        def back(g):
            y._accumulate(float(g) * gy.reshape(y.value.shape))

        return ad.Tensor(np.array(val), (y,), back)
    return task_loss_value(y, compiled)


def shared_loss(penult_pos, penult_neg):
    """||pos + neg||_F^2 on tensors or arrays."""
    if isinstance(penult_pos, ad.Tensor):
        return ad.frobenius_sq(ad.add(penult_pos, penult_neg))
    if penult_pos.shape != penult_neg.shape:
        raise ValueError(
            f"bank shapes differ: {penult_pos.shape} vs {penult_neg.shape}"
        )
    return float(((penult_pos + penult_neg) ** 2).sum())
