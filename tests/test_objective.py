"""Relaxed weighted-unsatisfaction loss and the antisymmetry penalty."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clause_lists import make_instance, random_3sat_clauses
from hypersat import autodiff as ad
from hypersat.objective import (
    LossBreakdown,
    loss_and_grad,
    shared_loss,
    task_loss,
)
from hypersat.rng import make_rng
from hypersat.wcnf import assign_random_weights, evaluate, generate_random_3sat


def rand_instance(seed, n=8, m=25):
    return assign_random_weights(
        generate_random_3sat(n, m, seed=seed), seed=seed
    )


@st.composite
def small_instances(draw):
    """n <= 8, clauses of any arity, some of them holding x and not x."""
    n = draw(st.integers(1, 8))
    clauses = []
    for _ in range(draw(st.integers(1, 12))):
        vars_ = draw(
            st.lists(st.integers(1, n), min_size=1, max_size=n, unique=True)
        )
        lits = [v * draw(st.sampled_from([-1, 1])) for v in vars_]
        if draw(st.booleans()):
            lits.append(-lits[0])
        clauses.append((lits, draw(st.integers(1, 1000))))
    return make_instance(n, clauses)


def loss_of(instance, y):
    return loss_and_grad(instance, y)[0]


def naive_task_loss(clauses, y):
    """The loss summed clause by clause over ``(literals, weight)`` pairs."""
    total = 0.0
    for lits, weight in clauses:
        prod = 1.0
        for lit in lits:
            v = y[abs(lit) - 1]
            prod *= (1.0 - v) if lit > 0 else v
        total += weight * prod
    return total


@given(st.integers(0, 5_000))
@settings(max_examples=50, deadline=None)
def test_matches_naive_reference(seed):
    clauses = random_3sat_clauses(seed, n=8, m=25)
    y = make_rng(seed, 0xC0).random(8)
    loss = loss_of(make_instance(8, clauses), y)
    assert abs(loss - naive_task_loss(clauses, y)) < 1e-12


@given(
    st.integers(0, 5_000),
    st.lists(st.integers(0, 1), min_size=8, max_size=8),
)
@settings(max_examples=100, deadline=None)
def test_binary_inputs_give_exact_unsat_weight(seed, bits):
    inst = rand_instance(seed)
    y = np.array(bits, dtype=np.float64)
    loss = loss_of(inst, y)
    assert loss == evaluate(inst, np.array(bits)).unsat_weight


@given(small_instances(), st.data())
@settings(max_examples=100, deadline=None)
def test_loss_equals_expected_unsat_weight(inst, data):
    # E[unsat] under independent Bernoulli(y), over all 2^n assignments
    n = inst.num_vars
    y = np.array(
        data.draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    )
    bits = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
    prob = np.where(bits == 1, y, 1.0 - y).prod(axis=1)
    expected = prob @ evaluate(inst, bits).unsat_weight
    assert loss_of(inst, y) == pytest.approx(
        expected, rel=1e-9, abs=1e-9 * inst.total_weight()
    )


@given(st.integers(0, 5_000))
@settings(max_examples=30, deadline=None)
def test_loss_bounded_by_total_weight(seed):
    inst = rand_instance(seed)
    y = make_rng(seed, 0xC1).random(inst.num_vars)
    loss = loss_of(inst, y)
    assert 0.0 <= loss <= inst.total_weight()


def test_mixed_arity_clauses():
    inst = make_instance(3, [((1,), 2), ((-1, 2), 3), ((1, -2, 3), 5)])
    y = np.array([0.5, 0.25, 0.8])
    expected = (
        2 * 0.5 + 3 * (0.5 * 0.75) + 5 * (0.5 * 0.25 * 0.2)
    )
    assert abs(loss_of(inst, y) - expected) < 1e-12


def test_affine_in_each_coordinate():
    # the loss is multilinear: fixing all but one coordinate gives a line
    inst = rand_instance(17)
    rng = make_rng(17, 0xC2)
    y = rng.random(inst.num_vars)
    for i in range(inst.num_vars):
        vals = []
        for t in (0.0, 0.5, 1.0):
            z = y.copy()
            z[i] = t
            vals.append(loss_of(inst, z))
        assert abs(vals[1] - 0.5 * (vals[0] + vals[2])) < 1e-10


@given(st.integers(0, 5_000))
@settings(max_examples=30, deadline=None)
def test_gradient_matches_finite_differences(seed):
    inst = rand_instance(seed)
    y = make_rng(seed, 0xC3).random(inst.num_vars)
    grad = loss_and_grad(inst, y)[1]
    step = 1e-6
    for i in range(inst.num_vars):
        yp, ym = y.copy(), y.copy()
        yp[i] += step
        ym[i] -= step
        fd = (loss_and_grad(inst, yp)[0] - loss_and_grad(inst, ym)[0]) / (
            2 * step
        )
        assert abs(fd - grad[i]) < 1e-6 * max(1.0, abs(grad[i]))


def prefix_suffix_loss_and_grad(instance, y):
    """The loss and gradient clause by clause from the instance's arrays,
    with no division: ``prod`` for a clause's value, and for each literal
    w * prefix * suffix, the products of the factors before and after it,
    scattered by ``np.add.at``.  Tautologies are skipped."""
    loss, grad = 0.0, np.zeros(instance.num_vars)
    for j in np.flatnonzero(~instance.tautology):
        lits = slice(instance.start[j], instance.start[j + 1])
        var, positive = instance.var[lits], instance.positive[lits]
        f = np.where(positive, 1.0 - y[var], y[var])
        weight = float(instance.weight[j])
        loss += weight * f.prod()
        prefix = np.concatenate([[1.0], np.cumprod(f[:-1])])
        suffix = np.concatenate([np.cumprod(f[:0:-1])[::-1], [1.0]])
        dfactor = weight * prefix * suffix
        np.add.at(grad, var, np.where(positive, -dfactor, dfactor))
    return loss, grad


@given(st.integers(0, 5_000))
@settings(max_examples=30, deadline=None)
def test_segment_products_match_prefix_suffix_reference(seed):
    # clauses of arity 1-40 over 60 variables, weights up to 1000
    rng = make_rng(seed, 0xC6)
    clauses = []
    for _ in range(80):
        a = int(rng.integers(1, 41))
        vars_ = rng.choice(60, size=a, replace=False) + 1
        lits = vars_ * rng.choice([-1, 1], size=a)
        weight = int(rng.integers(1, 1001))
        clauses.append((lits.tolist(), weight))
    inst = make_instance(60, clauses)
    y = rng.random(60)
    y[rng.random(60) < 0.2] = 1.0
    y[rng.random(60) < 0.1] = 0.0
    value, grad = loss_and_grad(inst, y)
    ref_value, ref_grad = prefix_suffix_loss_and_grad(inst, y)
    assert value == pytest.approx(ref_value, rel=1e-12)
    np.testing.assert_allclose(grad, ref_grad, rtol=1e-12)


# probabilities that put factors exactly at 0 and 1, subnormal or within
# 1e-300 of 0 and of 1 (1 - y rounds to 1), and anywhere in between
EDGE_PROBABILITIES = st.one_of(
    st.sampled_from([0.0, 1.0]),
    st.floats(5e-324, np.finfo(np.float64).tiny, exclude_max=True),
    st.floats(np.finfo(np.float64).tiny, 1e-300),
    st.floats(0.0, 1.0, allow_subnormal=False),
)


@given(small_instances(), st.data())
@settings(max_examples=300, deadline=None)
def test_edge_factors_match_prefix_suffix_reference(inst, data):
    # several zero factors in one clause, lone zeros, tautologies
    n = inst.num_vars
    y = np.array(
        data.draw(st.lists(EDGE_PROBABILITIES, min_size=n, max_size=n))
    )
    value, grad = loss_and_grad(inst, y)
    ref_value, ref_grad = prefix_suffix_loss_and_grad(inst, y)
    # products that underflow are off at the scale of the weights times
    # 2^-53 (loss_and_grad's docstring); nothing else may differ beyond
    # rounding
    atol = 1e-12 * inst.total_weight()
    assert value == pytest.approx(ref_value, rel=1e-12, abs=atol)
    np.testing.assert_allclose(grad, ref_grad, rtol=1e-12, atol=atol)


def test_gradient_exact_at_binary_corners():
    # multilinearity means the analytic gradient is exact even at 0/1
    inst = rand_instance(23)
    y = (make_rng(23, 0xC4).random(inst.num_vars) < 0.5).astype(np.float64)
    grad = loss_and_grad(inst, y)[1]
    for i in range(inst.num_vars):
        y0, y1 = y.copy(), y.copy()
        y0[i], y1[i] = 0.0, 1.0
        slope = loss_and_grad(inst, y1)[0] - loss_and_grad(inst, y0)[0]
        assert abs(slope - grad[i]) < 1e-12


def test_tensor_path_matches_array_path_and_backprop():
    inst = rand_instance(31)
    y = make_rng(31, 0xC5).random((inst.num_vars, 1))
    yt = ad.Tensor(y)
    loss = task_loss(inst, yt)
    value, grad = loss_and_grad(inst, y)
    assert float(loss.value) == value
    ad.backward(ad.scale(loss, 3.0))
    assert yt.grad.shape == y.shape
    assert np.array_equal(yt.grad.reshape(-1), 3.0 * grad)


def test_task_loss_rejects_wrong_length():
    inst = rand_instance(1)
    with pytest.raises(ValueError):
        loss_and_grad(inst, np.ones(inst.num_vars + 1))
    with pytest.raises(ValueError):
        task_loss(inst, ad.Tensor(np.ones((inst.num_vars - 1, 1))))


def test_shared_loss_values_and_gradient():
    a = np.array([[1.0, -2.0], [0.5, 0.0]])
    b = np.array([[-1.0, 2.0], [0.5, 1.0]])
    penult = ad.Tensor(np.vstack([a, b]))
    out = shared_loss(penult)
    assert float(out.value) == pytest.approx(((a + b) ** 2).sum())
    assert float(shared_loss(ad.Tensor(np.vstack([a, -a]))).value) == 0.0
    ad.backward(ad.scale(out, 3.0))
    assert np.allclose(penult.grad, 6 * np.vstack([a + b, a + b]))
    with pytest.raises(ValueError, match="2n rows"):
        shared_loss(ad.Tensor(np.ones((3, 2))))


@given(st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
def test_shared_loss_grad(seed):
    penult = make_rng(seed, 0xC6).standard_normal((6, 3))
    leaf = ad.Tensor(penult)
    ad.backward(shared_loss(leaf))
    err = ad.finite_diff_check(
        lambda ps: float(shared_loss(ad.Tensor(ps["p"])).value),
        {"p": penult},
        {"p": leaf.grad},
    )
    assert err < 1e-6


def test_total_loss_and_breakdown():
    lb = LossBreakdown(task=10.0, shared=5.0, lam=2e-3)
    assert lb.total == pytest.approx(10.01)
    assert LossBreakdown(task=10.0, shared=5.0, lam=0.0).total == 10.0
