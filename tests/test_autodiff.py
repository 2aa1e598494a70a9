"""Reverse-mode engine: per-op gradients against central differences plus
structural properties of the graph walk."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypersat import autodiff as ad
from hypersat.autodiff import Tensor
from hypersat.rng import make_rng


def rand(rng, *shape):
    return rng.standard_normal(shape)


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
def test_matmul_grad(seed):
    check_unary(
        lambda l: ad.tsum(ad.matmul(l["a"], l["b"])),
        {"a": (3, 4), "b": (4, 2)},
        seed,
    )


@given(SEEDS)
@settings(max_examples=20, deadline=None)
def test_add_sub_scale_hadamard_grad(seed):
    check_unary(
        lambda l: ad.frobenius_sq(
            ad.hadamard(ad.sub(ad.add(l["a"], l["b"]), ad.scale(l["c"], 0.7)), l["c"])
        ),
        {"a": (3, 3), "b": (3, 3), "c": (3, 3)},
        seed,
    )


@given(SEEDS)
@settings(max_examples=20, deadline=None)
def test_transpose_concat_split_grad(seed):
    # the transposed product is the q @ k.T inside the fused attention op
    def build(l):
        top, bot = ad.split_rows(ad.concat_rows(l["a"], l["b"]), 2)
        return ad.frobenius_sq(ad.attention(top, bot, bot, 0.8, 0.0, False, None))

    check_unary(build, {"a": (2, 3), "b": (3, 3)}, seed)


@given(SEEDS)
@settings(max_examples=20, deadline=None)
def test_reshape_pairs_softmax_grad(seed):
    check_unary(
        lambda l: ad.frobenius_sq(ad.row_softmax(ad.reshape_pairs(l["v"], 3))),
        {"v": (6, 1)},
        seed,
    )


@given(SEEDS)
@settings(max_examples=20, deadline=None)
def test_relu_sigmoid_grad(seed):
    check_unary(
        lambda l: ad.tsum(ad.sigmoid(ad.relu(ad.matmul(l["a"], l["b"])))),
        {"a": (4, 3), "b": (3, 2)},
        seed,
    )


@given(SEEDS)
@settings(max_examples=20, deadline=None)
def test_layer_norm_grad(seed):
    check_unary(
        lambda l: ad.frobenius_sq(
            ad.layer_norm(l["a"], l["gain"], l["bias"])
        ),
        {"a": (4, 5), "gain": (1, 5), "bias": (1, 5)},
        seed,
    )


@given(SEEDS)
@settings(max_examples=10, deadline=None)
def test_sparse_matmul_grad(seed):
    import scipy.sparse as sp

    rng = make_rng(seed, 0xAE)
    dense = rng.standard_normal((4, 4)) * (rng.random((4, 4)) < 0.5)
    s = sp.csr_matrix(dense)
    check_unary(
        lambda l, s=s: ad.frobenius_sq(ad.sparse_matmul(s, l["x"])),
        {"x": (4, 3)},
        seed,
    )


def test_row_softmax_rows_sum_to_one():
    rng = make_rng(5, 0xAF)
    p = ad.row_softmax(Tensor(rng.standard_normal((6, 4)) * 10)).value
    assert np.allclose(p.sum(axis=1), 1.0)
    assert np.all(p > 0)


def test_row_softmax_shift_invariant():
    rng = make_rng(6, 0xAF)
    a = rng.standard_normal((3, 4))
    p1 = ad.row_softmax(Tensor(a)).value
    p2 = ad.row_softmax(Tensor(a + 100.0)).value
    assert np.allclose(p1, p2)


def test_layer_norm_output_statistics():
    rng = make_rng(7, 0xAF)
    a = Tensor(rng.standard_normal((5, 8)) * 3 + 2)
    out = ad.layer_norm(a, Tensor(np.ones((1, 8))), Tensor(np.zeros((1, 8)))).value
    assert np.allclose(out.mean(axis=1), 0.0, atol=1e-12)
    assert np.allclose(out.var(axis=1), 1.0, atol=1e-3)


def test_multi_consumer_accumulation():
    # d/dx of (x @ x summed) where x is consumed twice: 1 x^T + x^T 1
    x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
    out = ad.tsum(ad.matmul(x, x))
    ad.backward(out)
    ones = np.ones((2, 2))
    assert np.allclose(x.grad, ones @ x.value.T + x.value.T @ ones)


def test_diamond_graph_gradient():
    # y = sum((x + x) * x) = sum(2 x^2), dy/dx = 4x
    x = Tensor(np.array([[1.0, -2.0, 3.0]]))
    out = ad.tsum(ad.hadamard(ad.add(x, x), x))
    ad.backward(out)
    assert np.allclose(x.grad, 4.0 * x.value)


def test_backward_requires_scalar():
    x = Tensor(np.ones((2, 2)))
    with pytest.raises(ValueError):
        ad.backward(ad.add(x, x))


def test_shape_mismatch_errors():
    a, b = Tensor(np.ones((2, 2))), Tensor(np.ones((2, 3)))
    with pytest.raises(ValueError):
        ad.add(a, b)
    with pytest.raises(ValueError):
        ad.matmul(b, b)
    with pytest.raises(ValueError):
        ad.split_rows(a, 2)
    with pytest.raises(ValueError):
        ad.reshape_pairs(Tensor(np.ones((3, 1))), 2)


def attention_inputs(seed, nq=5, nk=7, d=3, dv=4):
    rng = make_rng(seed, 0xB1)
    return (
        {"q": rand(rng, nq, d), "k": rand(rng, nk, d), "v": rand(rng, nk, dv)},
        rand(rng, nq, dv),
    )


def reference_attention(q, k, v, scale, p, training, rng):
    """The unfused chain: matmul, transpose, scale, row_softmax, then
    inverted dropout with a float mask drawn by ``rng.random``, then matmul."""
    kt = Tensor(k.value.T, (k,), lambda g: k._accumulate(g.T))
    probs = ad.row_softmax(ad.scale(ad.matmul(q, kt), scale))
    if training and p > 0.0:
        mask = (rng.random(probs.shape) >= p) / (1.0 - p)
        kept = probs
        probs = Tensor(
            kept.value * mask, (kept,), lambda g: kept._accumulate(g * mask)
        )
    return ad.matmul(probs, v)


def run_attention(op, arrays, weight, p, training, rng):
    leaves = {name: Tensor(a) for name, a in arrays.items()}
    out = op(leaves["q"], leaves["k"], leaves["v"], 0.6, p, training, rng)
    ad.backward(ad.tsum(ad.hadamard(out, Tensor(weight))))
    return out.value, {name: t.grad for name, t in leaves.items()}


@pytest.mark.parametrize("training", [True, False])
@pytest.mark.parametrize("p", [0.0, 0.1, 0.5])
def test_attention_matches_unfused_chain_bit_for_bit(p, training):
    for seed in range(5):
        arrays, weight = attention_inputs(seed, nq=30, nk=40)
        fused = run_attention(
            ad.attention, arrays, weight, p, training, make_rng(seed, 0xD0)
        )
        ref = run_attention(
            reference_attention, arrays, weight, p, training, make_rng(seed, 0xD0)
        )
        assert np.array_equal(fused[0], ref[0])
        for name in arrays:
            assert np.array_equal(fused[1][name], ref[1][name]), name


@given(SEEDS, st.sampled_from([0.0, 0.2, 0.6]))
@settings(max_examples=15, deadline=None)
def test_attention_grad(seed, p):
    # a fresh generator from a fixed key per call keeps the mask fixed
    check_unary(
        lambda l: ad.frobenius_sq(
            ad.attention(l["q"], l["k"], l["v"], 0.7, p, True, make_rng(99, 0xB2))
        ),
        {"q": (3, 2), "k": (4, 2), "v": (4, 3)},
        seed,
    )


def uniform_attention(p, rng, rows=200, cols=200):
    # zero scores give probabilities 1/cols, and v = I shows the dropped
    # probabilities themselves as the output
    q, k = Tensor(np.zeros((rows, 1))), Tensor(np.zeros((cols, 1)))
    v = Tensor(np.eye(cols))
    return ad.attention(q, k, v, 1.0, p, True, rng), v


@given(
    SEEDS,
    st.integers(1, 12),
    st.integers(1, 12),
    st.one_of(
        st.floats(0.0, 1.0, exclude_max=True),
        st.sampled_from([0.0, 2.0**-60, 2.0**-53, 0.5, 1.0 - 2.0**-53]),
    ),
)
@settings(max_examples=60, deadline=None)
def test_dropout_mask_equals_random_threshold(seed, rows, cols, p):
    def check(p):
        fast, slow = make_rng(seed, 0xB3), make_rng(seed, 0xB3)
        kept = uniform_attention(p, fast, rows, cols)[0].value != 0
        assert np.array_equal(kept, slow.random((rows, cols)) >= p)
        # the same words are consumed, and none when p = 0
        assert fast.random() == (slow if p else make_rng(seed, 0xB3)).random()

    check(p)
    # the threshold itself is kept and the next float above it is not
    r = make_rng(seed, 0xB3).random()
    check(r)
    check(float(np.nextafter(r, 1.0)))


def test_dropout_inference_is_identity():
    arrays, _ = attention_inputs(1)
    leaves = [Tensor(arrays[name]) for name in "qkv"]
    rng = make_rng(1, 0xB0)
    untouched = copy.deepcopy(rng)
    out = ad.attention(*leaves, 0.6, 0.5, False, rng)
    undropped = ad.attention(*leaves, 0.6, 0.0, True, None)
    assert np.array_equal(out.value, undropped.value)
    assert rng.random() == untouched.random()  # nothing drawn


def test_dropout_training_mask_and_scaling():
    p = 0.3
    out, _ = uniform_attention(p, make_rng(2, 0xB0))
    vals = np.unique(out.value)
    assert set(np.round(vals, 12)) <= {0.0, round(1.0 / 200 / (1.0 - p), 12)}
    # dropped fraction near p, row sums preserved in expectation
    assert abs((out.value == 0).mean() - p) < 0.02
    assert abs(out.value.sum(axis=1).mean() - 1.0) < 0.02


def test_dropout_gradient_uses_same_mask():
    rng = make_rng(3, 0xB0)
    out, v = uniform_attention(0.4, rng)
    untouched = copy.deepcopy(rng)
    ad.backward(ad.tsum(out))
    assert rng.random() == untouched.random()  # backward draws nothing
    # dv = dropped.T @ g, and out is the dropped probabilities themselves
    assert np.array_equal(v.grad, out.value.T @ np.ones_like(out.value))


def test_dropout_requires_rng_when_training():
    q = Tensor(np.ones((2, 2)))
    with pytest.raises(ValueError):
        ad.attention(q, q, q, 1.0, 0.5, True, None)
    for p in (1.0, -0.1):
        with pytest.raises(ValueError):
            ad.attention(q, q, q, 1.0, p, False, None)
    with pytest.raises(ValueError, match="Philox"):
        ad.attention(q, q, q, 1.0, 0.5, True, np.random.default_rng(0))


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
