"""Differentiable losses.

The task loss is the relaxed weighted unsatisfaction

    sum_j w_j * prod_{i in C_j^+} (1 - y_i) * prod_{i in C_j^-} y_i,

which for binary y equals the exact unsatisfied weight, and for any y in
[0, 1]^n the expected unsatisfied weight under independent Bernoulli(y)
(tautologies are compiled out, see ``CompiledClauses``).  (Minimizing it
maximizes the weighted satisfied sum; the constant total weight is
dropped.)  ``loss_and_grad`` computes it and its gradient on plain arrays
in one pass over the arity groups; ``task_loss`` is the tape op around it.
The shared-representation loss ||L_pos + L_neg||_F^2 pushes complementary
literal embeddings toward antisymmetry.
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
    ``variables`` is every group's ``var_idx`` flattened and concatenated,
    the order in which the gradient is scattered.
    Tautologies (x or not x) are left out: no assignment leaves them
    unsatisfied, but their product (1 - y) * y is positive inside (0, 1).
    """

    num_vars: int
    groups: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]
    variables: np.ndarray


def compile_clauses(instance: WcnfInstance) -> CompiledClauses:
    arity = instance.arity
    arity[instance.tautology] = 0
    groups = []
    for a in np.unique(arity[arity > 0]):
        clauses = np.flatnonzero(arity == a)
        lits = instance.start[clauses, None] + np.arange(a)
        groups.append(
            (
                instance.var[lits],
                instance.positive[lits],
                instance.weight[clauses].astype(np.float64),
            )
        )
    return CompiledClauses(
        num_vars=instance.num_vars,
        groups=tuple(groups),
        variables=np.concatenate(
            [np.zeros(0, dtype=np.intp)] + [g[0].reshape(-1) for g in groups]
        ),
    )


def loss_and_grad(
    compiled: CompiledClauses, y: np.ndarray
) -> tuple[float, np.ndarray]:
    """The task loss of a probability vector and its gradient.

    Per arity group, ``cumprod`` multiplies the clause factors left to
    right into prefix products, as ``prod(axis=1)`` multiplies them, so a
    clause's product is its last prefix times its last factor.  The
    gradient of a factor is weight * prefix * suffix, exact even at 0/1,
    and one ``bincount`` over all groups scatters it to the variables in
    the order ``np.add.at`` would."""
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    if y.shape[0] != compiled.num_vars:
        raise ValueError(
            f"expected {compiled.num_vars} probabilities, got {y.shape[0]}"
        )
    loss = 0.0
    dy_rows = []
    for var_idx, positive, weights in compiled.groups:
        vals = y[var_idx]
        f = np.where(positive, 1.0 - vals, vals)  # (g, a)
        prefix = np.ones_like(f)
        suffix = np.ones_like(f)
        np.cumprod(f[:, :-1], axis=1, out=prefix[:, 1:])
        np.cumprod(f[:, :0:-1], axis=1, out=suffix[:, -2::-1])
        loss += float(weights @ (prefix[:, -1] * f[:, -1]))
        dfactor = weights[:, None] * prefix * suffix
        dy_rows.append(np.where(positive, -dfactor, dfactor).reshape(-1))
    if not dy_rows:  # every clause is a tautology
        return loss, np.zeros(compiled.num_vars)
    grad = np.bincount(
        compiled.variables,
        weights=np.concatenate(dy_rows),
        minlength=compiled.num_vars,
    )
    return loss, grad


def task_loss(compiled: CompiledClauses, y: ad.Tensor) -> ad.Tensor:
    """The task loss of the network's (n, 1) probabilities, on the tape."""
    value, gy = loss_and_grad(compiled, y.value)

    def back(g):
        y._accumulate(float(g) * gy.reshape(y.value.shape))

    return ad.Tensor(np.array(value), (y,), back)


def shared_loss(penult_pos: ad.Tensor, penult_neg: ad.Tensor) -> ad.Tensor:
    """||pos + neg||_F^2 of the two literal banks, on the tape."""
    return ad.frobenius_sq(ad.add(penult_pos, penult_neg))
