"""Minimal reverse-mode automatic differentiation over dense float64 tensors.

A ``Tensor`` wraps a numpy array and remembers how it was produced; calling
``backward`` on a scalar result walks the graph in reverse topological
order and accumulates adjoints into every reachable leaf.  The ops are the
solver network's layers, each one tape node with a hand-written backward:
``conv`` (a hypergraph convolution), ``layer_norm``, ``paired_attention``
(both attention directions with their six projections), ``ffn``,
``pair_softmax`` (the literal head) and ``sigmoid`` (the variable-mode
head); ``add`` joins two tape values, in the residual and in the total
loss, and ``scale`` weighs the shared loss.  Each backward adds its
gradient terms in the order of the chain of elementary ops (products,
ReLU, row splits) that the layer stands for, so its results are that
chain's, bit for bit.  Everything is checked against central finite
differences in the tests.  ``conv`` takes an exactly symmetric sparse
matrix, as the hypergraph operator is, and its backward needs no
transpose.

``paired_attention`` computes both cross-attention directions in one op,
one row tile of about ``TILE_CELLS`` score cells at a time, and never holds
an n x n float array.  As in FlashAttention-2, the forward divides by the
softmax's row sums on the n x d output, and the tape keeps one log-sum-exp
column per direction, from which backward recomputes each tile's
probabilities in one GEMM; backward's row term rowsum(dP * P) is
rowsum(g * out), taken over the output.  Its dropout takes ``keep``, the
two directions' masks packed to bits, which ``dropout_masks`` draws from a
Philox key.  Both take an optional ``pool``, an executor that runs the
second direction on plain arrays (the tape is built and walked by the
caller's thread alone), with the same tiles, so results are bit-identical
with or without it.

Precision: from ``LARGE_CELLS`` score cells per direction (n >= 512) the
attention works in single precision.  Its tiles, their GEMMs and its
log-sum-exp columns are float32, and its dropout masks cut four 16-bit
cells from each Philox word.  Everything on the tape stays float64: Tensor
values, the op's output and gradients, and the k and v gradients summed
over tiles.  Below the cutoff every array is float64.
"""

from __future__ import annotations

import math

import numpy as np

# Score cells per row tile of paired_attention, which holds a few tiles at
# a time instead of n x n arrays.  One tile covers every op with n <= 362,
# whose results are then bit-identical to whole-array computation.
TILE_CELLS = 2**17
# Raw words per draw of dropout_masks: a 128 KiB buffer draws as fast as
# larger ones, and keeps the heap of the thread that draws the masks small.
DRAW_CELLS = 2**14
LAYER_NORM_EPS = 1e-5
# inverted-dropout probability of the cross-attention weights
ATTENTION_DROPOUT = 0.1
# Score cells (rows x cols) per attention direction from which the attention
# works in single precision and solver.train's worker runs the second
# direction (n >= 512).
LARGE_CELLS = 2**18
# Shifted float32 scores (less the row max, or in backward the log-sum-exp)
# are floored here before exp.  e**-40 vanishes in a row sum of at least 1,
# and scores below about -87 would give subnormals, over which exp and the
# products run about ten times slower.
SCORE_FLOOR = -40.0


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


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.value.shape != b.value.shape:
        raise ValueError(f"add: shape mismatch {a.shape} vs {b.shape}")

    def back(g):
        a._accumulate(g)
        b._accumulate(g)

    return Tensor(a.value + b.value, (a, b), back)


def scale(a: Tensor, c: float) -> Tensor:
    def back(g):
        a._accumulate(c * g)

    return Tensor(c * a.value, (a,), back)


def conv(s, l: Tensor, r: Tensor, relu: bool) -> Tensor:
    """One hypergraph convolution, ``relu(S @ (L @ R))`` or with ``relu``
    false ``S @ (L @ R)``: the projection first, so that the sparse product
    runs on the narrower side.  ``s`` is a constant sparse matrix that must
    be exactly symmetric, as the operator S is: backward multiplies by it
    again instead of by its transpose."""
    out = s @ (l.value @ r.value)
    mask = None
    if relu:
        mask = out > 0
        out = np.where(mask, out, 0.0)

    def back(g):
        if mask is not None:
            g = g * mask
        g = s @ g
        l._accumulate(g @ r.value.T)
        r._accumulate(l.value.T @ g)

    return Tensor(out, (l, r), back)


def ffn(x: Tensor, w1: Tensor, w2: Tensor) -> Tensor:
    """The feed-forward layer ``relu(x @ w1) @ w2``."""
    hidden = x.value @ w1.value
    mask = hidden > 0
    hidden = np.where(mask, hidden, 0.0)

    def back(g):
        w2._accumulate(hidden.T @ g)
        gh = (g @ w2.value.T) * mask
        x._accumulate(gh @ w1.value.T)
        w1._accumulate(x.value.T @ gh)

    return Tensor(hidden @ w2.value, (x, w1, w2), back)


def sigmoid(a: Tensor) -> Tensor:
    s = 1.0 / (1.0 + np.exp(-a.value))

    def back(g):
        a._accumulate(g * s * (1.0 - s))

    return Tensor(s, (a,), back)


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Per-row normalization with learnable gain/bias (shape (1, cols)).
    Row means and column sums are products with a column of 1/cols and a
    row of ones: BLAS takes short rows faster than ``mean`` and ``sum``."""
    rows, d = a.value.shape
    if gain.value.shape != (1, d) or bias.value.shape != (1, d):
        raise ValueError("layer_norm: gain/bias must be (1, cols)")
    mean = np.full((d, 1), 1.0 / d)
    xhat = a.value - a.value @ mean
    inv = 1.0 / np.sqrt((xhat * xhat) @ mean + LAYER_NORM_EPS)
    xhat *= inv

    def back(g):
        ones = np.ones((1, rows))
        gain._accumulate(ones @ (g * xhat))
        bias._accumulate(ones @ g)
        gx = g * gain.value
        m2 = (gx * xhat) @ mean
        gx -= gx @ mean
        gx -= xhat * m2
        gx *= inv
        a._accumulate(gx)

    return Tensor(gain.value * xhat + bias.value, (a, gain, bias), back)


def pair_softmax(logits: Tensor) -> Tensor:
    """The literal head: the 2n x 1 logits paired as row i =
    [logits[i], logits[n + i]], a softmax over each pair, and its first
    column as the (n, 1) probabilities P(x_i = true)."""
    pairs = logits.value.reshape(2, -1).T
    e = np.exp(pairs - pairs.max(axis=1, keepdims=True))
    p = e / e.sum(axis=1, keepdims=True)

    def back(g):
        full = np.zeros_like(p)
        full[:, :1] = g
        dot = (full * p).sum(axis=1, keepdims=True)
        logits._accumulate((p * (full - dot)).T.reshape(-1, 1))

    return Tensor(p[:, :1], (logits,), back)


def _row_tiles(rows: int, cols: int, cells: int):
    """Row slices of about ``cells`` cells covering a rows x cols array."""
    step = max(1, cells // max(cols, 1))
    return [slice(a, min(a + step, rows)) for a in range(0, rows, step)]


def _single(cells: int) -> bool:
    """Whether attention over ``cells`` score cells per direction works in
    single precision: float32 tiles and 16-bit dropout cells."""
    return cells >= LARGE_CELLS


def _half_threshold() -> int:
    """The least 16-bit dropout cell that is kept."""
    return math.ceil(ATTENTION_DROPOUT * 2**16)


def _unpacked(keep, rows, cols):
    """Rows of a packed keep mask as a bool array of ``cols`` columns."""
    return np.unpackbits(keep[rows], axis=1, count=cols).view(bool)


def _attend(q, k, v, scale, inv, keep, out):
    """One direction's forward on plain arrays, one row tile at a time, in
    the dtype of ``q``, ``k`` and ``v``, written into the float64 ``out``.
    A tile takes the row max of its scores, ``exp`` of the shifted scores
    (floored at ``SCORE_FLOOR`` in float32) and their row sum (a product
    with ones, which BLAS takes faster than numpy's ``sum``), and takes
    the kept exponentials into ``out`` unnormalized; ``out`` is divided by
    the row sums (and scaled by ``inv``) once, after the loop.  Returns the
    one column that backward needs, each row's log-sum-exp
    ``max + log(sum)``, in the dtype of the tiles.  Builds no Tensor, so
    it may run on a second thread."""
    tiles = _row_tiles(len(q), len(k), TILE_CELLS)
    tile = np.empty((tiles[0].stop, len(k)), q.dtype)
    top = np.empty((len(q), 1), q.dtype)
    total = np.empty_like(top)
    ones = np.ones(len(k), q.dtype)
    q = q * scale
    for rows in tiles:
        exps = tile[: rows.stop - rows.start]
        np.matmul(q[rows], k.T, out=exps)
        exps.max(axis=1, keepdims=True, out=top[rows])
        exps -= top[rows]
        if exps.dtype == np.float32:
            np.maximum(exps, SCORE_FLOOR, out=exps)
        np.exp(exps, out=exps)
        np.matmul(exps, ones, out=total[rows, 0])
        if keep is not None:
            exps *= _unpacked(keep, rows, len(k))
        np.matmul(exps, v, out=out[rows])
    out *= inv / total
    return top + np.log(total)


def _attend_back(g, q, k, v, scale, inv, keep, lse, c):
    """One direction's backward on plain arrays, one row tile at a time in
    the dtype of its inputs: float64 gradients of (q, k, v).  A tile's
    probabilities P come from one GEMM of ``[q * scale | -lse]`` with
    ``[k | 1]``, then ``exp``.  The softmax's row term rowsum(dP * P) is
    ``c``, rowsum(g * out) over the forward's output, which equals it with
    dropout too (FlashAttention-2), so no n x n row sum is taken."""
    tiles = _row_tiles(len(q), len(k), TILE_CELLS)
    tile = np.empty((3, tiles[0].stop, len(k)), q.dtype)
    d = q.shape[1]
    q_lse = np.empty((len(q), d + 1), q.dtype)
    np.multiply(q, scale, out=q_lse[:, :d])
    q_lse[:, d:] = -lse
    k_one = np.ones((len(k), d + 1), k.dtype)
    k_one[:, :d] = k
    v = v * inv
    dq = np.empty(q.shape)
    dk = np.zeros(k.shape)
    dv = np.zeros(v.shape)
    for rows in tiles:
        probs, spare, gp = tile[:, : rows.stop - rows.start]
        np.matmul(q_lse[rows], k_one.T, out=probs)
        if probs.dtype == np.float32:
            np.maximum(probs, SCORE_FLOOR, out=probs)
        np.exp(probs, out=probs)
        kept = probs
        if keep is not None:
            kept = np.multiply(probs, _unpacked(keep, rows, len(k)), out=spare)
        dv += kept.T @ g[rows]
        np.matmul(g[rows], v.T, out=gp)
        gp *= kept
        gp -= np.multiply(probs, c[rows], out=spare)
        np.matmul(gp, k, out=dq[rows])
        dk += gp.T @ q_lse[rows, :d]
    dq *= scale
    dv *= inv
    return dq, dk, dv


def _pair(pool, fn, first: tuple, second: tuple) -> tuple:
    """``(fn(*first), fn(*second))``, the second call submitted to ``pool``
    unless it is None."""
    if pool is None:
        return fn(*first), fn(*second)
    later = pool.submit(fn, *second)
    return fn(*first), later.result()


def dropout_masks(key: int, n: int, pool=None) -> tuple[np.ndarray, np.ndarray]:
    """The n x n keep masks of both ``paired_attention`` directions, packed
    to bits along rows (``np.packbits(mask, axis=1)``).

    The cells come row by row from the Philox stream ``key`` names.  Below
    ``LARGE_CELLS`` cells a cell is one raw word, kept when it is at least
    ``ceil(ATTENTION_DROPOUT * 2**53) << 11``: ``random()`` is
    ``(word >> 11) * 2**-53``, so this keeps what
    ``Generator(Philox(key=key)).random((n, n)) >= ATTENTION_DROPOUT``
    keeps, from the same words, at half the cost.  From the cutoff each
    word is cut into four 16-bit cells (``random_raw(...).view(np.uint16)``),
    kept when at least ``ceil(ATTENTION_DROPOUT * 2**16)``, so a mask takes
    ceil(n * n / 4) words.  The first mask takes the stream's first n * n
    cells; the second opens the stream again past their words (Philox
    makes words in blocks of four, which ``advance`` skips), so it is the
    mask the serial order would draw.  Words are drawn about
    ``DRAW_CELLS`` at a time, in tiles of whole rows and whole words, so
    the draw holds no n x n array but the packed masks.  The second mask is
    drawn on ``pool`` when one is given; the result depends on the key
    alone, whatever thread draws it."""
    if _single(n * n):
        cell, threshold = np.uint16, _half_threshold()
    else:
        cell = np.uint64
        threshold = np.uint64(math.ceil(ATTENTION_DROPOUT * 2.0**53) << 11)
    per_word = 8 // np.dtype(cell).itemsize
    # a multiple of per_word rows ends each tile but the last on a whole word
    step = per_word * max(1, DRAW_CELLS // n)

    def draw(skip):
        bitgen = np.random.Philox(key=key)
        bitgen.advance(skip // 4)
        bitgen.random_raw(skip % 4)
        packed = np.empty((n, -(-n // 8)), dtype=np.uint8)
        for start in range(0, n, step):
            rows = slice(start, min(start + step, n))
            count = (rows.stop - rows.start) * n
            cells = bitgen.random_raw(-(-count // per_word)).view(cell)
            kept = cells[:count].reshape(-1, n) >= threshold
            packed[rows] = np.packbits(kept, axis=1)
        return packed

    return _pair(pool, draw, (0,), (-(-n * n // per_word),))


def paired_attention(
    x: Tensor, weights: tuple[Tensor, ...],
    keep: tuple[np.ndarray, np.ndarray] | None, pool=None,
) -> Tensor:
    """Both cross-attention directions of the 2n-row bank ``x``, stacked by
    rows.  ``weights`` are the six projections (q_pos, k_neg, v_neg, q_neg,
    k_pos, v_pos): the positive rows ``x[:n]`` times the ``_pos`` ones and
    the negative rows ``x[n:]`` times the ``_neg`` ones give q, k and v.
    Each direction is ``dropout(softmax(q @ k.T / sqrt(d))) @ v``, with d
    the width of the q projections, for (q_pos, k_neg, v_neg), then for
    (q_neg, k_pos, v_pos).  The result agrees to rounding with that chain
    of ops followed by stacking the two: the softmax is normalized on the
    n x d output instead of on the scores, and the k and v gradients sum
    over row tiles of ``TILE_CELLS``.  Backward keeps the projections, one
    log-sum-exp column per direction, ``keep`` and the output, and
    recomputes the probabilities tile by tile.  It adds x's gradient up in
    the chain's order: per bank, the q, k and v terms of the positive rows
    and the k, v and q terms of the negative ones.

    Inverted dropout at ``ATTENTION_DROPOUT``: ``keep`` is the pair of
    packed masks that ``dropout_masks`` draws, and survivors are scaled by
    1/(1 - ATTENTION_DROPOUT), or by 2**16 / (2**16 - t) for 16-bit cells
    kept from t = ceil(ATTENTION_DROPOUT * 2**16), so that a cell's
    expected factor is 1; ``None`` (inference) drops nothing.  Each tile
    unpacks its rows of the mask when it needs them.

    From ``LARGE_CELLS`` score cells per direction, forward and backward
    each cast q, k, v (and backward the incoming gradient) to float32
    once, and the tiles and the saved log-sum-exp columns are float32; the
    projections, the output, the gradients and their sums over tiles are
    float64.  Below it, all is float64.

    Given ``pool``, the second direction's forward and backward run on it
    while the first runs on the caller's thread; numpy releases the GIL for
    BLAS and ufuncs.
    """
    n = len(x.value) // 2
    banks = (x.value[:n], x.value[n:])
    # the bank each projection reads, in the order of ``weights``
    sides = (0, 1, 1, 1, 0, 0)
    proj = [banks[side] @ w.value for side, w in zip(sides, weights)]
    single = _single(n * n)
    dtype = np.float32 if single else np.float64

    def cast():
        # backward casts again, so the closure keeps no float32 copies
        cells = [p.astype(dtype, copy=False) for p in proj]
        return cells[:3], cells[3:]

    first, second = cast()
    inv = 1.0 / (1.0 - ATTENTION_DROPOUT)
    if single:
        inv = 2**16 / (2**16 - _half_threshold())
    if keep is None:
        keep, inv = (None, None), 1.0
    for mask in keep:
        if mask is not None and mask.shape != (n, -(-n // 8)):
            raise ValueError(f"keep mask {mask.shape} does not pack {n} x {n}")
    scale = 1.0 / math.sqrt(proj[0].shape[1])
    out = np.empty((2 * n, proj[2].shape[1]))
    lse = _pair(
        pool,
        _attend,
        (*first, scale, inv, keep[0], out[:n]),
        (*second, scale, inv, keep[1], out[n:]),
    )

    def back(g):
        c = (g * out).sum(axis=1, keepdims=True).astype(dtype, copy=False)
        g = g.astype(dtype, copy=False)
        first, second = cast()
        grads = _pair(
            pool,
            _attend_back,
            (g[:n], *first, scale, inv, keep[0], lse[0], c[:n]),
            (g[n:], *second, scale, inv, keep[1], lse[1], c[n:]),
        )
        dqp, dkn, dvn, dqn, dkp, dvp = dproj = (*grads[0], *grads[1])
        wqp, wkn, wvn, wqn, wkp, wvp = (w.value for w in weights)
        gxp = dqp @ wqp.T + dkp @ wkp.T + dvp @ wvp.T
        gxn = dkn @ wkn.T + dvn @ wvn.T + dqn @ wqn.T
        x._accumulate(np.concatenate((gxp, gxn)))
        for side, w, d in zip(sides, weights, dproj):
            w._accumulate(banks[side].T @ d)

    return Tensor(out, (x, *weights), back)


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
