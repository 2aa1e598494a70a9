"""Differentiable losses.

The task loss is the relaxed weighted unsatisfaction

    sum_j w_j * prod_{i in C_j^+} (1 - y_i) * prod_{i in C_j^-} y_i,

which for binary y equals the exact unsatisfied weight, and for any y in
[0, 1]^n the expected unsatisfied weight under independent Bernoulli(y)
(a tautology counts with weight 0, since no assignment leaves it
unsatisfied).  (Minimizing it maximizes the weighted satisfied sum; the
constant total weight is dropped.)  ``loss_and_grad`` computes it and its
gradient on plain arrays in one pass over the instance's flat literal
arrays; ``task_loss`` is the tape op around it.  The shared-representation
loss ||L_pos + L_neg||_F^2 of the (2n, d) penultimate bank pushes
complementary literal embeddings toward antisymmetry; ``shared_loss`` is
one tape op on the whole bank.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .wcnf import WcnfInstance

_TINY = np.finfo(np.float64).tiny  # the smallest normal float64


@dataclass(frozen=True)
class LossBreakdown:
    task: float
    shared: float
    lam: float

    @property
    def total(self) -> float:
        return self.task + self.lam * self.shared


def loss_and_grad(
    instance: WcnfInstance, y: np.ndarray
) -> tuple[float, np.ndarray]:
    """The task loss of a probability vector and its gradient.

    Literal l is node ``var[l]`` if positive and ``n + var[l]`` if not, as
    in the literal hypergraph, and its factor is that node's entry of
    [1 - y, y].  Per clause, ``np.multiply.reduceat`` takes the product of
    its nonzero factors and ``np.add.reduceat`` counts its zero factors,
    a factor below the smallest normal float64 (2^-1022) counting as
    zero; a clause's value is w * product if it has no zero factor and 0
    otherwise, with w = 0 for a tautology.  A literal's gradient is
    w * product / f if its clause has no zero factor, w * product if the
    literal is its clause's only zero, and 0 otherwise.  One ``bincount``
    scatters them onto the 2n nodes, and a variable's gradient is its
    negative node's less its positive node's.

    Exact at binary y, where every factor and product is 0 or 1.
    Elsewhere it agrees with prefix-times-suffix products to rounding,
    with two departures far below the scale of w.  A clause with a
    subnormal factor has value 0, not at most w * 2^-1022.  A clause
    whose product of normal factors is subnormal (which takes factors
    within about 1e-300 of 0) loses precision at an absolute scale of
    a * w * 2^-1075 (a its arity) in its value and a * w * 2^-1075 / f in
    a literal's gradient, at most a * w * 2^-53 since f is normal."""
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    n = instance.num_vars
    if y.shape[0] != n:
        raise ValueError(f"expected {n} probabilities, got {y.shape[0]}")
    starts, arity = instance.start[:-1], instance.arity
    node = instance.var + n * ~instance.positive
    f = np.concatenate((1.0 - y, y))[node]
    # a subnormal factor would round its clause's other factors away in
    # the product before the division by it
    zero = np.abs(f) < _TINY
    f[zero] = 1.0
    zeros = np.add.reduceat(zero, starts, dtype=np.intp)
    weight = np.where(instance.tautology, 0.0, instance.weight)
    scaled = weight * np.multiply.reduceat(f, starts)
    loss = float(scaled @ (zeros == 0))
    # literals whose clause has a zero factor other than their own get 0
    dfactor = np.repeat(scaled, arity)
    dfactor /= f
    dfactor[np.repeat(zeros, arity) > zero] = 0.0
    dnode = np.bincount(node, weights=dfactor, minlength=2 * n)
    return loss, dnode[n:] - dnode[:n]


def task_loss(instance: WcnfInstance, y: ad.Tensor) -> ad.Tensor:
    """The task loss of the network's (n, 1) probabilities, on the tape."""
    value, gy = loss_and_grad(instance, y.value)

    def back(g):
        y._accumulate(float(g) * gy.reshape(y.value.shape))

    return ad.Tensor(np.array(value), (y,), back)


def shared_loss(penult: ad.Tensor) -> ad.Tensor:
    """||pos + neg||_F^2 of the (2n, d) literal banks, the positive rows
    first, on the tape."""
    rows = len(penult.value)
    if rows % 2:
        raise ValueError(f"shared_loss needs 2n rows, got {rows}")
    both = penult.value[: rows // 2] + penult.value[rows // 2 :]

    def back(g):
        half = 2.0 * float(g) * both
        penult._accumulate(np.concatenate((half, half)))

    return ad.Tensor(np.array((both**2).sum()), (penult,), back)
