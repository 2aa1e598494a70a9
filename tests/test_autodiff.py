"""Reverse-mode engine: per-op gradients against central differences plus
structural properties of the graph walk."""

import functools
import itertools
import math
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypersat import autodiff as ad
from hypersat.autodiff import Tensor
from hypersat.rng import derive_key, make_rng


def rand(rng, *shape):
    return rng.standard_normal(shape)


def weighted_sum(a, w):
    """sum(a * w) as a scalar node whose backward hands w to a."""

    def back(g):
        a._accumulate(float(g) * w)

    return Tensor(np.array((a.value * w).sum()), (a,), back)


def square_sum(a):
    """||a||_F^2 as a scalar node."""

    def back(g):
        a._accumulate(2.0 * float(g) * a.value)

    return Tensor(np.array((a.value**2).sum()), (a,), back)


def check_unary(build, shapes, seed, tol=1e-4):
    """FD-check a scalar-valued graph over named parameter arrays."""
    rng = make_rng(seed, 0xAD)
    params = {k: rand(rng, *s) for k, s in shapes.items()}

    def f(ps):
        leaves = {k: Tensor(v) for k, v in ps.items()}
        return float(build(leaves).value)

    leaves = {k: Tensor(v) for k, v in params.items()}
    out = build(leaves)
    ad.backward(out)
    grads = {k: leaves[k].grad for k in params}
    err = ad.finite_diff_check(f, params, grads, step=1e-5, floor=1e-5)
    assert err < tol, f"max rel err {err}"


SEEDS = st.integers(0, 10_000)


@given(SEEDS)
@settings(max_examples=20, deadline=None)
def test_add_scale_grad(seed):
    check_unary(
        lambda l: square_sum(
            ad.add(ad.add(l["a"], l["b"]), ad.scale(l["c"], -0.7))
        ),
        {"a": (3, 3), "b": (3, 3), "c": (3, 3)},
        seed,
    )


def symmetric(seed, size):
    """A sparse, exactly symmetric matrix, as conv's contract asks."""
    import scipy.sparse as sp

    rng = make_rng(seed, 0xAE)
    dense = rng.standard_normal((size, size)) * (rng.random((size, size)) < 0.5)
    return sp.csr_matrix(dense + dense.T)


@given(SEEDS, st.booleans())
@settings(max_examples=20, deadline=None)
def test_conv_grad(seed, relu):
    s = symmetric(seed, 5)
    check_unary(
        lambda l: square_sum(ad.conv(s, l["l"], l["r"], relu)),
        {"l": (5, 3), "r": (3, 2)},
        seed,
    )


def test_conv_values():
    s = symmetric(3, 6)
    rng = make_rng(3, 0xAF)
    l, r = rng.standard_normal((6, 4)), rng.standard_normal((4, 2))
    linear = s.toarray() @ l @ r
    assert np.allclose(ad.conv(s, Tensor(l), Tensor(r), False).value, linear)
    relu = ad.conv(s, Tensor(l), Tensor(r), True).value
    assert np.allclose(relu, np.maximum(linear, 0.0))
    assert (linear < 0).any() and (relu >= 0).all()


@given(SEEDS)
@settings(max_examples=20, deadline=None)
def test_ffn_grad(seed):
    check_unary(
        lambda l: square_sum(ad.ffn(l["x"], l["w1"], l["w2"])),
        {"x": (5, 3), "w1": (3, 4), "w2": (4, 3)},
        seed,
    )


def test_ffn_values():
    rng = make_rng(4, 0xAF)
    x, w1, w2 = (rng.standard_normal(s) for s in ((5, 3), (3, 4), (4, 2)))
    out = ad.ffn(Tensor(x), Tensor(w1), Tensor(w2)).value
    assert np.allclose(out, np.maximum(x @ w1, 0.0) @ w2)


@given(SEEDS)
@settings(max_examples=20, deadline=None)
def test_pair_softmax_grad(seed):
    w = make_rng(seed, 0xAC).standard_normal((3, 1))
    check_unary(
        lambda l: weighted_sum(ad.pair_softmax(l["v"]), w),
        {"v": (6, 1)},
        seed,
    )


def test_pair_softmax_is_sigmoid_of_the_difference():
    # P(x_i) = exp(z_i) / (exp(z_i) + exp(z_{n+i})) = sigmoid(z_i - z_{n+i})
    rng = make_rng(5, 0xAF)
    v = rng.standard_normal((8, 1)) * 10
    y = ad.pair_softmax(Tensor(v)).value
    assert y.shape == (4, 1)
    assert np.all((y > 0) & (y < 1))
    assert np.allclose(y[:, 0], 1.0 / (1.0 + np.exp(v[4:, 0] - v[:4, 0])))


def test_pair_softmax_shift_invariant():
    rng = make_rng(6, 0xAF)
    v = rng.standard_normal((6, 1))
    y1 = ad.pair_softmax(Tensor(v)).value
    y2 = ad.pair_softmax(Tensor(v + 100.0)).value
    assert np.allclose(y1, y2)


@given(SEEDS)
@settings(max_examples=20, deadline=None)
def test_relu_sigmoid_grad(seed):
    s = symmetric(seed, 4)
    check_unary(
        lambda l: square_sum(ad.sigmoid(ad.conv(s, l["a"], l["b"], True))),
        {"a": (4, 3), "b": (3, 2)},
        seed,
    )


@given(SEEDS)
@settings(max_examples=20, deadline=None)
def test_layer_norm_grad(seed):
    check_unary(
        lambda l: square_sum(
            ad.layer_norm(l["a"], l["gain"], l["bias"])
        ),
        {"a": (4, 5), "gain": (1, 5), "bias": (1, 5)},
        seed,
    )


def test_layer_norm_output_statistics():
    rng = make_rng(7, 0xAF)
    a = Tensor(rng.standard_normal((5, 8)) * 3 + 2)
    out = ad.layer_norm(a, Tensor(np.ones((1, 8))), Tensor(np.zeros((1, 8)))).value
    assert np.allclose(out.mean(axis=1), 0.0, atol=1e-12)
    assert np.allclose(out.var(axis=1), 1.0, atol=1e-3)


def test_multi_consumer_accumulation():
    # x feeds a scale and an add: y = ||3x + x||^2 = 16 ||x||^2, dy/dx = 32x
    x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
    out = square_sum(ad.add(ad.scale(x, 3.0), x))
    ad.backward(out)
    assert np.allclose(x.grad, 32.0 * x.value)


def test_diamond_graph_gradient():
    # y = ||(x + x) + x||^2 = 9 ||x||^2, dy/dx = 18x
    x = Tensor(np.array([[1.0, -2.0, 3.0]]))
    out = square_sum(ad.add(ad.add(x, x), x))
    ad.backward(out)
    assert np.allclose(x.grad, 18.0 * x.value)


def test_backward_requires_scalar():
    x = Tensor(np.ones((2, 2)))
    with pytest.raises(ValueError):
        ad.backward(ad.add(x, x))


def test_shape_mismatch_errors():
    a, b = Tensor(np.ones((2, 2))), Tensor(np.ones((2, 3)))
    with pytest.raises(ValueError):
        ad.add(a, b)
    with pytest.raises(ValueError):
        ad.ffn(b, b, b)
    with pytest.raises(ValueError):
        ad.pair_softmax(Tensor(np.ones((3, 1))))


NAMES = ("q_pos", "k_neg", "v_neg", "q_neg", "k_pos", "v_pos")


@contextmanager
def constants(**values):
    """Set module constants of autodiff for a block."""
    saved = {name: getattr(ad, name) for name in values}
    for name, value in values.items():
        setattr(ad, name, value)
    try:
        yield
    finally:
        for name, value in saved.items():
            setattr(ad, name, value)


def cutoffs(tile_cells=None):
    """Set paired_attention's row tiles and those of the mask draw for a
    block."""
    if tile_cells is None:
        return constants()
    return constants(TILE_CELLS=tile_cells, DRAW_CELLS=tile_cells)


@pytest.fixture
def worker():
    """A one-thread pool the test owns, for the second call of each pair;
    ``None`` in its place runs both calls on the caller's thread."""
    with ThreadPoolExecutor(1) as pool:
        yield pool


def attention_inputs(seed, n=5, d=3, dv=4, width=3):
    """Arrays shaped as the model shapes them: a bank ``x`` of n positive
    and n negative rows, the six projections from its ``width`` columns
    (q and k to d, v to dv), each bank querying the other's keys and
    values; and a (2n, dv) weight on the output.  The projections are
    scaled so that the scores stay near unit size."""
    rng = make_rng(seed, 0xB1)
    arrays = {"x": rand(rng, 2 * n, width)}
    for name in NAMES:
        cols = dv if name[0] == "v" else d
        arrays[name] = rand(rng, width, cols) / math.sqrt(width)
    return arrays, rand(rng, 2 * n, dv)


def matmul(a, b):
    """a @ b on the tape."""

    def back(g):
        a._accumulate(g @ b.value.T)
        b._accumulate(a.value.T @ g)

    return Tensor(a.value @ b.value, (a, b), back)


def row_softmax(a):
    z = a.value - a.value.max(axis=1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=1, keepdims=True)

    def back(g):
        dot = (g * p).sum(axis=1, keepdims=True)
        a._accumulate(p * (g - dot))

    return Tensor(p, (a,), back)


def rows(a, part):
    """The rows ``part`` of a on the tape."""

    def back(g):
        full = np.zeros_like(a.value)
        full[part] = g
        a._accumulate(full)

    return Tensor(a.value[part], (a,), back)


def reference_direction(q, k, v, training, rng):
    """The unfused chain: matmul, transpose, scale by 1/sqrt(d),
    row_softmax, then inverted dropout with a float mask drawn by
    ``rng.random``, then matmul."""
    p = ad.ATTENTION_DROPOUT
    kt = Tensor(k.value.T, (k,), lambda g: k._accumulate(g.T))
    scale = 1.0 / math.sqrt(q.value.shape[1])
    probs = row_softmax(ad.scale(matmul(q, kt), scale))
    if training and p > 0.0:
        mask = (rng.random(probs.shape) >= p) / (1.0 - p)
        kept = probs
        probs = Tensor(
            kept.value * mask, (kept,), lambda g: kept._accumulate(g * mask)
        )
    return matmul(probs, v)


def reference_attention(x, weights, training, key):
    """The bank split into its halves, the six projections, and both
    directions of the unfused chain, one after the other, stacked by a row
    concatenation; both draw from one generator made from the key."""
    n = len(x.value) // 2
    pos, neg = rows(x, slice(None, n)), rows(x, slice(n, None))
    q_pos, k_neg, v_neg, q_neg, k_pos, v_pos = (
        matmul(bank, w) for bank, w in zip((pos, neg, neg, neg, pos, pos), weights)
    )
    rng = None if key is None else np.random.Generator(np.random.Philox(key=key))
    a = reference_direction(q_pos, k_neg, v_neg, training, rng)
    b = reference_direction(q_neg, k_pos, v_pos, training, rng)

    def back(g):
        a._accumulate(g[:n])
        b._accumulate(g[n:])

    return Tensor(np.vstack([a.value, b.value]), (a, b), back)


def fused_attention(x, weights, training, key, pool=None):
    """paired_attention with the masks dropout_masks draws from the key, so
    it takes the reference's arguments; ``pool`` goes to both."""
    keep = None
    if training:
        keep = ad.dropout_masks(key, len(x.value) // 2, pool=pool)
    return ad.paired_attention(x, weights, keep, pool=pool)


def run_attention(op, arrays, weight, training, key):
    leaves = {name: Tensor(a) for name, a in arrays.items()}
    weights = tuple(leaves[name] for name in NAMES)
    out = op(leaves["x"], weights, training, key)
    ad.backward(weighted_sum(out, weight))
    return out.value, {name: t.grad for name, t in leaves.items()}


# the op normalizes on its output and takes backward's row term from it,
# so it agrees with the chain to rounding, not bit for bit
chain_close = functools.partial(np.allclose, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("training", [True, False])
@pytest.mark.parametrize("p", [0.0, 0.1, 0.5])
def test_attention_agrees_with_unfused_chain_to_rounding(p, training, worker):
    # n * n score cells per direction are 0 or 1 mod 4, the two offsets in
    # a Philox block at which the second direction's words can start; 41
    # and 7 columns leave a part-filled byte in each packed mask row
    for n, pool, tile in itertools.product(
        (40, 41, 7, 6), (None, worker), (None, 64)
    ):
        arrays, weight = attention_inputs(n, n)
        key = derive_key(n, 0xD0)
        fused_op = functools.partial(fused_attention, pool=pool)
        with constants(ATTENTION_DROPOUT=p):
            with cutoffs(tile):
                fused = run_attention(fused_op, arrays, weight, training, key)
            ref = run_attention(reference_attention, arrays, weight, training, key)
        case = (n, pool is not None, tile)
        assert chain_close(fused[0], ref[0]), case
        for name in arrays:
            assert chain_close(fused[1][name], ref[1][name]), (name, case)


@given(
    SEEDS,
    st.integers(1, 23),
    st.integers(1, 4),
    st.sampled_from([0.0, 0.1, 0.5]),
    st.booleans(),
    st.sampled_from([None, 16]),
    st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_attention_matches_reference_over_shapes(
    seed, n, d, p, training, tile, threaded
):
    # odd n and widths that are no multiple of 8 leave part-filled bytes
    # in the packed masks; 16 cells split every op into row tiles
    arrays, weight = attention_inputs(seed, n, d, d + 1)
    key = derive_key(seed, 0xD1)
    with ThreadPoolExecutor(1) as pool, constants(ATTENTION_DROPOUT=p):
        op = functools.partial(
            fused_attention, pool=pool if threaded else None
        )
        with cutoffs(tile):
            fused = run_attention(op, arrays, weight, training, key)
        ref = run_attention(reference_attention, arrays, weight, training, key)
    assert chain_close(fused[0], ref[0])
    for name in arrays:
        assert chain_close(fused[1][name], ref[1][name]), name


def test_paired_attention_from_concurrent_callers(worker):
    # more calling threads than cores, under frequent thread switches, each
    # with a pool of its own, then all four sharing one; every call must
    # still give the bits of the op run inline on one thread
    arrays, weight = attention_inputs(4, n=40)
    key = derive_key(4, 0xD0)
    expected = run_attention(fused_attention, arrays, weight, True, key)
    results = []

    def call(shared):
        with ThreadPoolExecutor(1) as own:
            op = functools.partial(fused_attention, pool=shared or own)
            for _ in range(5):
                results.append(run_attention(op, arrays, weight, True, key))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    threads = []
    try:
        for shared in (None, worker):
            callers = [
                threading.Thread(target=call, args=(shared,))
                for _ in range(4)
            ]
            threads += callers
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == 40
    for out, grads in results:
        assert np.array_equal(out, expected[0])
        for name in arrays:
            assert np.array_equal(grads[name], expected[1][name]), name


def test_attention_starts_no_thread_of_its_own(monkeypatch, worker):
    # paired_attention and dropout_masks run both calls of each pair on the
    # caller's thread, or the second on the pool they are given, whose one
    # worker is then the only thread started
    started = []
    start = threading.Thread.start

    def counted_start(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted_start)
    arrays, weight = attention_inputs(5, n=40)
    for pool, threads in ((None, 0), (worker, 1), (None, 1)):
        op = functools.partial(fused_attention, pool=pool)
        run_attention(op, arrays, weight, True, derive_key(5, 0xD0))
        assert len(started) == threads


@pytest.mark.parametrize("threaded", [False, True], ids=["inline", "threaded"])
def test_attention_holds_no_score_sized_float_array(threaded, worker):
    # the mask draw, forward and backward at 1200 x 1200 score cells per
    # direction work a row tile at a time: the peak of all they allocate
    # stays below one float64 array of the scores
    arrays, weight = attention_inputs(6, n=1200)
    leaves = {name: Tensor(a) for name, a in arrays.items()}
    pool = worker if threaded else None
    tracemalloc.start()
    try:
        keep = ad.dropout_masks(derive_key(6, 0xD0), 1200, pool=pool)
        out = ad.paired_attention(
            leaves["x"], tuple(leaves[name] for name in NAMES), keep, pool=pool
        )
        ad.backward(weighted_sum(out, weight))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(t.grad is not None for t in leaves.values())
    # backward's three row tiles alone show that numpy's allocations are
    # traced; at this size they are float32
    itemsize = 4 if ad._single(1200 * 1200) else 8
    tiles = 3 * (ad.TILE_CELLS // 1200) * 1200 * itemsize
    assert tiles <= peak < 1200 * 1200 * 8


def test_single_precision_attention_agrees_with_double(worker):
    # dropout off, so only the arithmetic differs: float32 tiles against
    # float64 ones, in one tile and in many, on one thread and on two
    arrays, weight = attention_inputs(7, n=60, d=8, dv=8)
    expected = run_attention(fused_attention, arrays, weight, False, None)
    for pool, tile in itertools.product((None, worker), (None, 256)):
        op = functools.partial(fused_attention, pool=pool)
        with constants(LARGE_CELLS=1), cutoffs(tile):
            out, grads = run_attention(op, arrays, weight, False, None)
        assert out.dtype == np.float64
        assert not np.array_equal(out, expected[0])
        for got, want in [(out, expected[0])] + [
            (grads[name], expected[1][name]) for name in NAMES
        ]:
            assert got.dtype == np.float64
            assert np.abs(got - want).max() <= 1e-5 * np.abs(want).max()


def half_cells(key, words, skip=0):
    """The 16-bit cells of ``words`` raw words of the key's Philox stream
    from word ``skip`` on, drawn in one go."""
    raw = np.random.Philox(key=key).random_raw(skip + words)
    return raw[skip:].view(np.uint16)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 6, 7, 13, 40])
def test_half_masks_continue_the_stream(n, worker):
    # odd n leaves a part-used last word, and the second mask starts on the
    # next whole one; every row tile ends on a whole word
    key = derive_key(n, 0xB4)
    words = -(-n * n // 4)
    cells = half_cells(key, 2 * words)
    both = np.concatenate(
        [cells[: n * n], cells[4 * words : 4 * words + n * n]]
    ).reshape(2 * n, n) >= math.ceil(ad.ATTENTION_DROPOUT * 2**16)
    for pool, tile in itertools.product((None, worker), (None, 8)):
        with constants(LARGE_CELLS=1), cutoffs(tile):
            masks = ad.dropout_masks(key, n, pool=pool)
        assert np.array_equal(masks[0], np.packbits(both[:n], axis=1))
        assert np.array_equal(masks[1], np.packbits(both[n:], axis=1))


def test_half_masks_keep_their_share_unbiased():
    n = 200
    with constants(LARGE_CELLS=1):
        out, _ = uniform_attention(ad.dropout_masks(derive_key(4, 0xB0), n))
    threshold = math.ceil(ad.ATTENTION_DROPOUT * 2**16)
    assert threshold == 6554
    keep, scale = 1 - threshold / 2**16, 2**16 / (2**16 - threshold)
    assert keep * scale == 1.0
    # survivors are 1/n scaled in float32, the rest exact zeros
    survivor = np.float32(np.float32(1 / n) * np.float32(scale))
    assert set(np.unique(out.value)) == {0.0, float(survivor)}
    # the kept share within five binomial deviations, and keep * scale
    # averaging 1 over all cells
    cells = out.value.size
    kept = (out.value != 0).mean()
    sigma = math.sqrt(keep * (1 - keep) / cells)
    assert abs(kept - keep) < 5 * sigma
    assert abs(out.value.mean() * n - 1.0) < 5 * sigma * scale


def test_single_precision_scores_leave_no_subnormal_probability():
    # scores spread over several hundred: unfloored, most of each row's
    # exponentials would be subnormal or zero in float32
    rng = make_rng(8, 0xB5)
    q = (rng.standard_normal((16, 4)) * 30).astype(np.float32)
    k = (rng.standard_normal((50, 4)) * 30).astype(np.float32)
    v = np.zeros((50, 16), np.float32)
    scores = (q.astype(np.float64) @ k.T.astype(np.float64)) * 0.5
    assert (scores.max(axis=1) - scores.min(axis=1)).min() > 100
    shifted = scores - scores.max(axis=1, keepdims=True)
    tiny = np.finfo(np.float32).tiny
    assert (np.exp(shifted) < tiny).any()
    lse = ad._attend(q, k, v, 0.5, 1.0, None, np.empty((16, 16)))
    assert lse.dtype == np.float32
    # with no dropout dv = P.T @ g, so g = I hands back the probabilities
    # that backward recomputes from the log-sum-exp column, exactly
    g, c = np.eye(16, dtype=np.float32), np.zeros((16, 1), np.float32)
    probs = ad._attend_back(g, q, k, v, 0.5, 1.0, None, lse, c)[2].T
    assert not ((probs > 0) & (probs < tiny)).any()
    assert probs.min() > 0
    assert np.abs(probs.sum(axis=1) - 1).max() <= 1e-5


@given(SEEDS, st.sampled_from([None, 0.0, 0.2, 0.6]), st.booleans())
@settings(max_examples=20, deadline=None)
def test_attention_grad(seed, p, threaded):
    # with respect to x and all six projections; the same masks in every
    # call, or none (inference) at p = None
    shapes = {"x": (8, 3)}
    shapes.update({name: (3, 3 if name[0] == "v" else 2) for name in NAMES})
    with ThreadPoolExecutor(1) as pool, constants(ATTENTION_DROPOUT=p or 0.0):
        keep = None if p is None else ad.dropout_masks(derive_key(99, 0xB2), 4)
        check_unary(
            lambda l: square_sum(
                ad.paired_attention(
                    l["x"],
                    tuple(l[name] for name in NAMES),
                    keep,
                    pool=pool if threaded else None,
                )
            ),
            shapes,
            seed,
        )


def uniform_attention(keep, n=200, pool=None):
    # zero queries give probabilities 1/n, and values that are the identity
    # show the dropped probabilities themselves as the output: the (2n, n)
    # masks in drawing order
    x = Tensor(np.vstack([np.eye(n), np.eye(n)]))
    zero = Tensor(np.zeros((n, 1)))
    v_neg, v_pos = Tensor(np.eye(n)), Tensor(np.eye(n))
    out = ad.paired_attention(x, (zero, zero, v_neg, zero, zero, v_pos), keep, pool)
    return out, (v_neg, v_pos)


@given(
    SEEDS,
    st.integers(1, 12),
    st.one_of(
        st.floats(0.0, 1.0, exclude_max=True),
        st.sampled_from([0.0, 2.0**-60, 2.0**-53, 0.5, 1.0 - 2.0**-53]),
    ),
)
@settings(max_examples=60, deadline=None)
def test_dropout_mask_equals_random_threshold(seed, n, p):
    # 1-12 columns leave part-filled bytes, and n * n words end at both
    # offsets in a Philox block that the second mask can start from
    key = derive_key(seed, 0xB3)

    def check(pools):
        both = make_rng(seed, 0xB3).random((2 * n, n)) >= ad.ATTENTION_DROPOUT
        # the second mask drawn after the first or on a pool's thread past
        # it; 8 cells split every mask over 8 cells
        for pool, tile in itertools.product(pools, (None, 8)):
            with cutoffs(tile):
                masks = ad.dropout_masks(key, n, pool=pool)
            assert np.array_equal(masks[0], np.packbits(both[:n], axis=1))
            assert np.array_equal(masks[1], np.packbits(both[n:], axis=1))
        # the op drops exactly the masked cells, with and without a pool,
        # in one tile and in many
        masks = ad.dropout_masks(key, n)
        for pool, tile in itertools.product(pools, (None, 8)):
            with cutoffs(tile):
                out = uniform_attention(masks, n, pool)[0]
            assert np.array_equal(out.value != 0, both)

    # p, then a drawn value r as the threshold: r itself is kept and the
    # next float above it is not
    r = make_rng(seed, 0xB3).random()
    with ThreadPoolExecutor(1) as worker:
        for threshold in (p, r, float(np.nextafter(r, 1.0))):
            with constants(ATTENTION_DROPOUT=threshold):
                check((None, worker))


def test_dropout_inference_is_identity():
    arrays, _ = attention_inputs(1, n=7)
    x = Tensor(arrays["x"])
    weights = tuple(Tensor(arrays[name]) for name in NAMES)
    out = ad.paired_attention(x, weights, None)
    # at p = 0 every word clears the threshold, so nothing is dropped
    with constants(ATTENTION_DROPOUT=0.0):
        keep_all = ad.dropout_masks(derive_key(1, 0xB0), 7)
        undropped = ad.paired_attention(x, weights, keep_all)
    for mask in keep_all:
        assert np.unpackbits(mask, axis=1, count=7).all()
    assert np.array_equal(out.value, undropped.value)


def test_dropout_training_mask_and_scaling():
    p = ad.ATTENTION_DROPOUT
    out, _ = uniform_attention(ad.dropout_masks(derive_key(2, 0xB0), 200))
    vals = np.unique(out.value)
    assert set(np.round(vals, 12)) <= {0.0, round(1.0 / 200 / (1.0 - p), 12)}
    # dropped fraction near p, row sums preserved in expectation
    assert abs((out.value == 0).mean() - p) < 0.02
    assert abs(out.value.sum(axis=1).mean() - 1.0) < 0.02


def test_dropout_gradient_uses_same_mask(worker):
    keep = ad.dropout_masks(derive_key(3, 0xB0), 200)
    for pool in (None, worker):
        out, (v_neg, v_pos) = uniform_attention(keep, pool=pool)
        g = np.ones_like(out.value)
        ad.backward(weighted_sum(out, g))
        # with the identity as both bank and projection, the projection's
        # gradient is dv = dropped.T @ g per direction, and out is the
        # dropped probabilities themselves
        halves = (slice(200), slice(200, None))
        for v, rows in zip((v_neg, v_pos), halves):
            want = out.value[rows].T @ g[rows]
            np.testing.assert_allclose(v.grad, want, rtol=1e-12)


def test_paired_attention_rejects_bad_mask_shape():
    x, w = Tensor(np.ones((4, 2))), Tensor(np.ones((2, 2)))
    # masks packed for 3 rows, or for 9 columns, do not fit 2 x 2 cells
    first = ad.dropout_masks(0, 2)[0]
    for bad in (ad.dropout_masks(0, 3)[0], np.zeros((2, 2), np.uint8)):
        for keep in ((bad, first), (first, bad)):
            with pytest.raises(ValueError, match="keep mask"):
                ad.paired_attention(x, (w,) * 6, keep)


def test_finite_diff_check_flags_wrong_gradient():
    params = {"x": np.array([[2.0]])}

    def f(ps):
        return float((ps["x"] ** 2).sum())

    good = ad.finite_diff_check(f, params, {"x": np.array([[4.0]])})
    bad = ad.finite_diff_check(f, params, {"x": np.array([[3.0]])})
    assert good < 1e-6
    assert bad > 0.2


def test_finite_diff_check_restores_params():
    params = {"x": np.array([[1.0, 2.0]])}
    before = params["x"].copy()
    ad.finite_diff_check(
        lambda ps: float(ps["x"].sum()), params, {"x": np.ones((1, 2))}
    )
    assert np.array_equal(params["x"], before)
