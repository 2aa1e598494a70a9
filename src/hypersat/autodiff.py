"""Minimal reverse-mode automatic differentiation over dense float64 arrays.

A ``Tensor`` wraps a numpy array and remembers how it was produced; calling
``backward`` on a scalar result walks the graph in reverse topological
order and accumulates adjoints into every reachable leaf.  The op set is
exactly what the solver network needs (matmul, sparse_matmul, add, sub,
scale, hadamard, concat_rows, split_rows, reshape_pairs, row_softmax, relu,
sigmoid, layer_norm, frobenius_sq, tsum, and the fused ``attention``, whose
tape keeps only the probabilities and a bool dropout mask); everything is
checked against central finite differences in the tests.
"""

from __future__ import annotations

import math

import numpy as np


class Tensor:
    __slots__ = ("value", "grad", "_parents", "_backward")

    def __init__(self, value, parents=(), backward_fn=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self._parents = tuple(parents)
        self._backward = backward_fn

    @property
    def shape(self):
        return self.value.shape

    def _accumulate(self, g):
        if self.grad is None:
            self.grad = np.array(g, dtype=np.float64)
        else:
            self.grad += g


def backward(loss: Tensor) -> None:
    """Reverse accumulation from a scalar node; fills ``grad`` on leaves."""
    if loss.value.size != 1:
        raise ValueError(f"loss must be scalar, got shape {loss.value.shape}")
    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, done = stack.pop()
        if done:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            stack.append((p, False))
    loss._accumulate(np.ones_like(loss.value))
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


def _check_shapes(a, b, op):
    if a.value.shape != b.value.shape:
        raise ValueError(f"{op}: shape mismatch {a.shape} vs {b.shape}")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.value.shape[1] != b.value.shape[0]:
        raise ValueError(f"matmul: {a.shape} @ {b.shape}")

    def back(g):
        a._accumulate(g @ b.value.T)
        b._accumulate(a.value.T @ g)

    return Tensor(a.value @ b.value, (a, b), back)


def sparse_matmul(s, x: Tensor) -> Tensor:
    """Product with a constant (non-learnable) sparse matrix."""
    st = s.T.tocsr()

    def back(g):
        x._accumulate(st @ g)

    return Tensor(s @ x.value, (x,), back)


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_shapes(a, b, "add")

    def back(g):
        a._accumulate(g)
        b._accumulate(g)

    return Tensor(a.value + b.value, (a, b), back)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_shapes(a, b, "sub")

    def back(g):
        a._accumulate(g)
        b._accumulate(-g)

    return Tensor(a.value - b.value, (a, b), back)


def scale(a: Tensor, c: float) -> Tensor:
    def back(g):
        a._accumulate(c * g)

    return Tensor(c * a.value, (a,), back)


def hadamard(a: Tensor, b: Tensor) -> Tensor:
    _check_shapes(a, b, "hadamard")

    def back(g):
        a._accumulate(g * b.value)
        b._accumulate(g * a.value)

    return Tensor(a.value * b.value, (a, b), back)


def concat_rows(a: Tensor, b: Tensor) -> Tensor:
    if a.value.shape[1] != b.value.shape[1]:
        raise ValueError(f"concat_rows: {a.shape} vs {b.shape}")
    ka = a.value.shape[0]

    def back(g):
        a._accumulate(g[:ka])
        b._accumulate(g[ka:])

    return Tensor(np.vstack([a.value, b.value]), (a, b), back)


def split_rows(a: Tensor, k: int) -> tuple[Tensor, Tensor]:
    """Split into the first k rows and the rest."""
    if not 0 < k < a.value.shape[0]:
        raise ValueError(f"split_rows: k={k} out of range for {a.shape}")

    def back_top(g):
        full = np.zeros_like(a.value)
        full[:k] = g
        a._accumulate(full)

    def back_bot(g):
        full = np.zeros_like(a.value)
        full[k:] = g
        a._accumulate(full)

    top = Tensor(a.value[:k].copy(), (a,), back_top)
    bot = Tensor(a.value[k:].copy(), (a,), back_bot)
    return top, bot


def reshape_pairs(v: Tensor, n: int) -> Tensor:
    """2n x 1 column into n x 2: row i = [v[i], v[n+i]]."""
    if v.value.shape != (2 * n, 1):
        raise ValueError(f"reshape_pairs expects (2n,1)={2*n},1, got {v.shape}")

    def back(g):
        full = np.empty((2 * n, 1))
        full[:n, 0] = g[:, 0]
        full[n:, 0] = g[:, 1]
        v._accumulate(full)

    out = np.column_stack([v.value[:n, 0], v.value[n:, 0]])
    return Tensor(out, (v,), back)


def row_softmax(a: Tensor) -> Tensor:
    z = a.value - a.value.max(axis=1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=1, keepdims=True)

    def back(g):
        dot = (g * p).sum(axis=1, keepdims=True)
        a._accumulate(p * (g - dot))

    return Tensor(p, (a,), back)


def relu(a: Tensor) -> Tensor:
    mask = a.value > 0

    def back(g):
        a._accumulate(g * mask)

    return Tensor(np.where(mask, a.value, 0.0), (a,), back)


def sigmoid(a: Tensor) -> Tensor:
    s = 1.0 / (1.0 + np.exp(-a.value))

    def back(g):
        a._accumulate(g * s * (1.0 - s))

    return Tensor(s, (a,), back)


def layer_norm(
    a: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5
) -> Tensor:
    """Per-row normalization with learnable gain/bias (shape (1, cols))."""
    d = a.value.shape[1]
    if gain.value.shape != (1, d) or bias.value.shape != (1, d):
        raise ValueError("layer_norm: gain/bias must be (1, cols)")
    mu = a.value.mean(axis=1, keepdims=True)
    var = a.value.var(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (a.value - mu) * inv

    def back(g):
        gain._accumulate((g * xhat).sum(axis=0, keepdims=True))
        bias._accumulate(g.sum(axis=0, keepdims=True))
        gx = g * gain.value
        m1 = gx.mean(axis=1, keepdims=True)
        m2 = (gx * xhat).mean(axis=1, keepdims=True)
        a._accumulate(inv * (gx - m1 - xhat * m2))

    return Tensor(gain.value * xhat + bias.value, (a, gain, bias), back)


def frobenius_sq(a: Tensor) -> Tensor:
    def back(g):
        a._accumulate(2.0 * float(g) * a.value)

    return Tensor(np.array((a.value**2).sum()), (a,), back)


def tsum(a: Tensor) -> Tensor:
    def back(g):
        a._accumulate(np.full_like(a.value, float(g)))

    return Tensor(np.array(a.value.sum()), (a,), back)


def attention(
    q: Tensor, k: Tensor, v: Tensor, scale: float, p: float, training: bool,
    rng: np.random.Generator | None,
) -> Tensor:
    """``dropout(row_softmax(scale * q @ k.T)) @ v``, bit-identical to that
    chain of ops; the tape keeps only the probabilities and the bool
    keep-mask.  Inverted dropout (survivors scaled by 1/(1-p), identity at
    inference) reads raw Philox words: ``random()`` is
    ``(word >> 11) * 2**-53``, so ``word >= ceil(p * 2**53) << 11`` keeps
    what ``rng.random(shape) >= p`` keeps, from the same words, at half the
    cost."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0,1), got {p}")
    probs = q.value @ k.value.T
    probs *= scale
    probs -= probs.max(axis=1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=1, keepdims=True)
    keep, inv = None, 1.0 / (1.0 - p)
    if training and p != 0.0:
        if rng is None or not isinstance(rng.bit_generator, np.random.Philox):
            raise ValueError("training-mode dropout needs a Philox rng")
        threshold = np.uint64(math.ceil(p * 2.0**53) << 11)
        keep = rng.bit_generator.random_raw(probs.shape) >= threshold

    def dropped():
        return probs if keep is None else probs * inv * keep

    def back(g):
        v._accumulate(dropped().T @ g)
        gp = g @ v.value.T
        if keep is not None:
            gp *= keep
            gp *= inv
        gp -= (gp * probs).sum(axis=1, keepdims=True)
        gp *= probs
        gp *= scale
        q._accumulate(gp @ k.value)
        k._accumulate((q.value.T @ gp).T)

    # parents in this order keep the chain's gradient accumulation order
    return Tensor(dropped() @ v.value, (q, k, v), back)


def finite_diff_check(
    f,
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    step: float = 1e-5,
    floor: float = 1e-8,
) -> float:
    """Worst relative error between analytic grads and central differences.

    ``f`` maps the parameter dict to a scalar and must be deterministic
    (disable stochastic layers before checking).
    """
    worst = 0.0
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            g = np.zeros_like(p)
        flat = p.reshape(-1)
        gflat = np.asarray(g).reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            fp = f(params)
            flat[i] = orig - step
            fm = f(params)
            flat[i] = orig
            fd = (fp - fm) / (2.0 * step)
            rel = abs(fd - gflat[i]) / max(abs(fd), abs(gflat[i]), floor)
            worst = max(worst, rel)
    return worst
