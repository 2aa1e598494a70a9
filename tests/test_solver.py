"""Training loop, Adam updates, early stopping, and Bernoulli rounding."""

import hashlib

import numpy as np
import pytest

from hypersat.oracle import exhaustive_optimum
from hypersat.solver import (
    AdamState,
    SolveConfig,
    adam_step,
    sample_assignments,
    solve,
    train,
)
from hypersat.wcnf import (
    Clause,
    WcnfInstance,
    assign_random_weights,
    evaluate,
    generate_random_3sat,
)


def rand_instance(seed, n=10, m=35):
    return assign_random_weights(
        generate_random_3sat(n, m, seed=seed), seed=seed
    )


def test_config_validation():
    with pytest.raises(ValueError):
        SolveConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        SolveConfig(early_stop_patience=0)
    with pytest.raises(ValueError):
        SolveConfig(num_samples=0)


def test_adam_first_step_has_unit_scale():
    # with fresh moments, step one moves each coordinate by about lr
    config = SolveConfig(learning_rate=0.1)
    params = {"w": np.array([[1.0, -2.0]])}
    grads = {"w": np.array([[0.5, -3.0]])}
    state = AdamState()
    adam_step(params, grads, state, t=1, config=config)
    expected = np.array([[1.0, -2.0]]) - 0.1 * np.sign([[0.5, -3.0]])
    assert np.allclose(params["w"], expected, atol=1e-6)


def test_adam_two_steps_match_hand_rolled_reference():
    config = SolveConfig(learning_rate=0.05)
    b1, b2, eps = config.adam_beta1, config.adam_beta2, config.adam_eps
    w = np.array([[0.3], [-0.7]])
    params = {"w": w.copy()}
    state = AdamState()
    m = np.zeros_like(w)
    v = np.zeros_like(w)
    ref = w.copy()
    for t, g in enumerate(
        [np.array([[1.0], [2.0]]), np.array([[-0.5], [0.25]])], start=1
    ):
        adam_step(params, {"w": g}, state, t=t, config=config)
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mhat = m / (1 - b1**t)
        vhat = v / (1 - b2**t)
        ref -= config.learning_rate * mhat / (np.sqrt(vhat) + eps)
    assert np.allclose(params["w"], ref, atol=1e-12)


def test_adam_skips_missing_and_rejects_bad_shapes():
    config = SolveConfig()
    params = {"a": np.ones((2, 2)), "b": np.ones((2, 2))}
    adam_step(params, {"a": np.ones((2, 2))}, AdamState(), 1, config)
    assert np.array_equal(params["b"], np.ones((2, 2)))
    with pytest.raises(ValueError):
        adam_step(params, {"a": np.ones((3, 2))}, AdamState(), 2, config)


def test_training_reduces_loss_on_easy_instance():
    # a single-clause instance is satisfiable; loss should approach zero
    inst = WcnfInstance(4, (Clause((1, 2, 3), 6), Clause((-1, 4), 3)))
    config = SolveConfig(seed=1, max_epochs=150)
    _, y, trace, epochs, final = train(inst, config)
    assert final.task < 0.5
    assert trace[0].task > final.task
    assert epochs <= 150


def test_kept_parameters_achieve_best_monitored_loss():
    # the returned parameters correspond to the lowest monitored loss, so
    # the dropout-off final evaluation beats the first epoch
    inst = rand_instance(5)
    _, _, trace, _, final = train(inst, SolveConfig(seed=5, max_epochs=80))
    assert final.total <= trace[0].total


def test_early_stopping_on_plateau():
    # lr=0 cannot improve, so training must stop after exactly
    # patience epochs of stall plus the initial epoch
    inst = rand_instance(2)
    config = SolveConfig(
        seed=2,
        learning_rate=1e-12,
        max_epochs=300,
        early_stop_patience=10,
        attention_dropout=0.0,
    )
    _, _, trace, epochs, _ = train(inst, config)
    assert epochs == 11


def test_train_deterministic():
    inst = rand_instance(9)
    config = SolveConfig(seed=9, max_epochs=40)
    p1, y1, t1, e1, f1 = train(inst, config)
    p2, y2, t2, e2, f2 = train(inst, config)
    assert np.array_equal(y1, y2)
    assert e1 == e2 and t1 == t2
    for k in p1:
        assert np.array_equal(p1[k], p2[k])


def test_lambda_zero_skips_shared_loss():
    inst = rand_instance(4)
    _, _, trace, _, _ = train(inst, SolveConfig(seed=4, max_epochs=10, lam=0.0))
    assert all(lb.shared == 0.0 for lb in trace)
    assert all(lb.total == lb.task for lb in trace)


def test_variable_mode_trains():
    inst = rand_instance(6)
    config = SolveConfig(
        seed=6, max_epochs=30, mode="variable", use_transformer=False, lam=0.0
    )
    _, y, trace, _, _ = train(inst, config)
    assert y.shape == (inst.num_vars,)
    assert np.all((y > 0) & (y < 1))


def test_sampling_respects_degenerate_probabilities():
    inst = WcnfInstance(3, (Clause((1, -2, 3), 1),))
    assignment, unsat = sample_assignments(
        np.array([1.0, 0.0, 1.0]), inst, k=3, seed=0
    )
    assert list(assignment) == [1, 0, 1]
    assert unsat == 0


def test_sampling_returns_best_of_k():
    inst = rand_instance(11, n=8, m=28)
    y = np.full(8, 0.5)
    best_unsats = [
        sample_assignments(y, inst, k=k, seed=3)[1] for k in (1, 5, 20)
    ]
    # larger k can only improve the best draw under a shared rng stream
    # prefix when draws are independent; check weak monotone trend
    assert best_unsats[2] <= best_unsats[0]
    assert evaluate(
        inst, sample_assignments(y, inst, k=5, seed=3)[0]
    ).unsat_weight == sample_assignments(y, inst, k=5, seed=3)[1]


def test_sampling_validation():
    inst = rand_instance(1, n=5, m=15)
    with pytest.raises(ValueError):
        sample_assignments(np.full(4, 0.5), inst)
    with pytest.raises(ValueError):
        sample_assignments(np.full(5, 0.5), inst, k=0)


def test_solve_end_to_end_consistency():
    inst = rand_instance(12, n=12, m=45)
    result = solve(inst, SolveConfig(seed=12, max_epochs=60))
    assert result.sat_weight + result.unsat_weight == inst.total_weight()
    assert evaluate(inst, result.assignment).unsat_weight == result.unsat_weight
    assert result.unsat_weight >= exhaustive_optimum(inst).best_unsat_weight
    assert len(result.loss_trace) == result.epochs_run
    rec = result.to_dict()
    assert rec["unsat_weight"] == result.unsat_weight
    assert len(rec["assignment"]) == 12
    assert len(rec["loss_trace"]) == result.epochs_run


def test_solve_deterministic():
    inst = rand_instance(13, n=10, m=35)
    config = SolveConfig(seed=13, max_epochs=40)
    a = solve(inst, config)
    b = solve(inst, config)
    assert a.to_dict() == b.to_dict()


def test_solve_reproduces_recorded_results():
    # Recorded with numpy 2.4 / OpenBLAS on x86-64 before attention was
    # fused into one op.  Any change to an RNG stream or to the order of
    # float operations moves these; acceptance gate 8 has little headroom.
    result = solve(generate_random_3sat(40, 170, seed=11), SolveConfig())
    totals = [float(lb.total).hex() for lb in result.loss_trace]
    assert len(totals) == 300
    assert totals[0] == "0x1.56cc5dd06e950p+4"
    assert totals[-1] == "0x1.41e36aaa049d6p-2"
    assert hashlib.sha256(" ".join(totals).encode()).hexdigest() == (
        "1d3e8febb93baa135a0651d8a572d6267d97e4d5f56938c0801dc627ebb261b4"
    )
    assert float(result.final_loss.total).hex() == "0x1.32a16cfa6e2b5p-2"
    assert "".join(map(str, result.assignment)) == (
        "1001010111011110011100010100111100110101"
    )
    assert result.unsat_weight == 0
