"""Training loop, Adam updates, early stopping, and Bernoulli rounding."""

import hashlib
import multiprocessing
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import hypersat
from clause_lists import make_instance
from hypersat import autodiff as ad
from hypersat import solver
from hypersat.objective import LossBreakdown
from hypersat.oracle import exhaustive_optimum
from hypersat.rng import derive_key, make_rng
from hypersat.solver import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    EARLY_STOP_PATIENCE,
    SolveConfig,
    adam_step,
    gradient_errors,
    sample_assignments,
    solve,
    train,
)
from hypersat.wcnf import (
    assign_random_weights,
    evaluate,
    generate_random_3sat,
)


def rand_instance(seed, n=10, m=35):
    return assign_random_weights(
        generate_random_3sat(n, m, seed=seed), seed=seed
    )


def test_config_validation():
    for lr in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="learning_rate"):
            SolveConfig(learning_rate=lr)
    # 0 or fewer epochs once reported the untrained network's rounding
    for epochs in (0, -5):
        with pytest.raises(ValueError, match="max_epochs"):
            SolveConfig(max_epochs=epochs)
    with pytest.raises(ValueError):
        SolveConfig(num_samples=0)
    # "Literal" once trained the variable-mode ablation and reported itself
    for mode in ("Literal", "var", ""):
        with pytest.raises(ValueError, match="mode"):
            SolveConfig(mode=mode)
    for lam in (-1.0, -1e-300, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="lam"):
            SolveConfig(lam=lam)
    # the attention needs the literal banks that variable mode merges
    with pytest.raises(ValueError, match="use_transformer"):
        SolveConfig(lam=0.0, mode="variable")
    SolveConfig(lam=0.0, mode="variable", use_transformer=False)


def fresh_adam(flat):
    return np.zeros_like(flat), np.zeros_like(flat)


def test_adam_first_step_has_unit_scale():
    # with fresh moments, step one moves each coordinate by about lr
    flat = np.array([1.0, -2.0])
    adam_step(flat, np.array([0.5, -3.0]), *fresh_adam(flat), 1, 0.1)
    expected = np.array([1.0, -2.0]) - 0.1 * np.sign([0.5, -3.0])
    assert np.allclose(flat, expected, atol=1e-6)


def test_adam_two_steps_match_hand_rolled_reference():
    lr, b1, b2, eps = 0.05, ADAM_BETA1, ADAM_BETA2, ADAM_EPS
    w = np.array([0.3, -0.7])
    flat = w.copy()
    state = fresh_adam(flat)
    m = np.zeros_like(w)
    v = np.zeros_like(w)
    ref = w.copy()
    for t, g in enumerate([np.array([1.0, 2.0]), np.array([-0.5, 0.25])], 1):
        adam_step(flat, g, *state, t, lr)
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mhat = m / (1 - b1**t)
        vhat = v / (1 - b2**t)
        ref -= lr * mhat / (np.sqrt(vhat) + eps)
    assert np.allclose(flat, ref, atol=1e-12)


def per_array_adam(params, grads, state, t, lr):
    """Adam as it ran before the parameters shared one vector: a loop over
    the named arrays, each with its own moments."""
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    for name, p in params.items():
        g = grads[name]
        m = state[0].setdefault(name, np.zeros_like(p))
        v = state[1].setdefault(name, np.zeros_like(p))
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * g * g
        mhat = m / (1 - b1**t)
        vhat = v / (1 - b2**t)
        p -= lr * mhat / (np.sqrt(vhat) + ADAM_EPS)


def test_flat_adam_equals_per_array_loop():
    rng = make_rng(0, 0xADA)
    shapes = {"a": (7, 3), "b": (3, 3), "c": (1, 3), "d": (3, 1), "e": (1, 1)}
    params = {k: rng.standard_normal(shape) for k, shape in shapes.items()}
    flat = np.concatenate([p.ravel() for p in params.values()])
    flat_state, state = fresh_adam(flat), ({}, {})
    for t in range(1, 8):
        grads = {
            k: rng.standard_normal(p.shape) * 10.0 ** rng.integers(-6, 3)
            for k, p in params.items()
        }
        per_array_adam(params, grads, state, t, 7e-2)
        grad = np.concatenate([g.ravel() for g in grads.values()])
        adam_step(flat, grad, *flat_state, t, 7e-2)
        assert np.array_equal(
            flat, np.concatenate([p.ravel() for p in params.values()])
        )


def test_gradient_errors_reproduce_recorded_values():
    # recorded when each parameter drew its own jitter; gate 1 and
    # gradcheck only compare the worst error with a threshold
    errors = gradient_errors(rand_instance(111, n=6, m=26), 111)
    text = " ".join(f"{k}={v.hex()}" for k, v in errors.items())
    assert len(errors) == 15
    assert max(errors.values()).hex() == "0x1.abc7a69140ed1p-15"
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "e464b629411a9e238f2b21473ac6b3bd28a0160fc1378644932f0cfc4774f6a2"
    )


def test_training_reduces_loss_on_easy_instance():
    # a single-clause instance is satisfiable; loss should approach zero
    inst = make_instance(4, [((1, 2, 3), 6), ((-1, 4), 3)])
    config = SolveConfig(seed=1, max_epochs=150)
    y, trace, epochs, final = train(inst, config)
    assert final.task < 0.5
    assert trace[0].task > final.task
    assert epochs <= 150


def test_kept_parameters_achieve_best_monitored_loss():
    # the returned parameters correspond to the lowest monitored loss, so
    # the dropout-off final evaluation beats the first epoch
    inst = rand_instance(5)
    _, trace, _, final = train(inst, SolveConfig(seed=5, max_epochs=80))
    assert final.total <= trace[0].total


def test_early_stopping_on_plateau():
    # lr=0 cannot improve, so training must stop after exactly
    # patience epochs of stall plus the initial epoch; without the
    # transformer no dropout moves the loss either
    inst = rand_instance(2)
    config = SolveConfig(
        seed=2,
        learning_rate=1e-12,
        max_epochs=300,
        use_transformer=False,
    )
    _, trace, epochs, _ = train(inst, config)
    assert epochs == EARLY_STOP_PATIENCE + 1


def test_train_leaves_no_thread_behind(monkeypatch):
    # the dropout masks are drawn on a thread of train's own; every way out
    # of training ends it: max epochs, an early stop, and an error
    inst = rand_instance(3)
    before = threading.active_count()
    assert train(inst, SolveConfig(seed=3, max_epochs=5))[2] == 5
    assert threading.active_count() == before

    # no epoch beats the best by an infinite margin, so every epoch stalls
    monkeypatch.setattr(solver, "EARLY_STOP_TOLERANCE", float("inf"))
    monkeypatch.setattr(solver, "EARLY_STOP_PATIENCE", 3)
    assert train(inst, SolveConfig(seed=3, max_epochs=50))[2] == 3
    assert threading.active_count() == before

    losses = solver._epoch_losses

    def non_finite_at_epoch_3(ft, compiled, lam):
        total_t, breakdown = losses(ft, compiled, lam)
        calls.append(None)
        if len(calls) == 3:
            breakdown = LossBreakdown(float("nan"), 0.0, lam)
        return total_t, breakdown

    calls = []
    monkeypatch.setattr(solver, "_epoch_losses", non_finite_at_epoch_3)
    with pytest.raises(FloatingPointError, match="epoch 3"):
        solve(inst, SolveConfig(seed=3, max_epochs=50))
    assert threading.active_count() == before


@pytest.mark.parametrize("n", [600, 10], ids=["paired", "ahead"])
def test_solve_starts_one_thread_at_most(monkeypatch, n):
    # the solve's one worker, above the cutoff and below it, is the only
    # thread it starts, and the attention never runs beside more than it
    inst = rand_instance(7, n=n, m=round(4.26 * n))
    started, running = [], []
    start, attend = threading.Thread.start, ad._attend

    def counted_start(thread):
        started.append(thread)
        start(thread)

    def sampled_attend(*args):
        running.append(threading.active_count())
        return attend(*args)

    monkeypatch.setattr(threading.Thread, "start", counted_start)
    monkeypatch.setattr(ad, "_attend", sampled_attend)
    before = threading.active_count()
    solve(inst, SolveConfig(seed=7, max_epochs=2))
    assert len(started) <= 1
    assert running and max(running) <= before + 1
    assert threading.active_count() == before


@pytest.mark.parametrize("cells", [None, 1], ids=["below", "from"])
def test_each_epoch_trains_on_its_own_masks(monkeypatch, cells):
    # the worker draws epoch e's masks from derive_key(seed, 0xD0, e) ahead
    # of the epoch, below the attention's cutoff and from it (lowered to
    # every n here); an early stop trains on its epochs' masks alone
    if cells is not None:
        monkeypatch.setattr(ad, "LARGE_CELLS", cells)
    inst = rand_instance(9)
    received, build = [], solver.build_forward

    def recording_build(*args, training=False, dropout=None, **kwargs):
        if training:
            received.append(dropout)
        return build(*args, training=training, dropout=dropout, **kwargs)

    monkeypatch.setattr(solver, "build_forward", recording_build)
    expected = [
        ad.dropout_masks(derive_key(9, 0xD0, epoch), 10) for epoch in (1, 2, 3)
    ]

    def check(epochs):
        assert len(received) == epochs
        for got, want in zip(received, expected):
            assert all(map(np.array_equal, got, want))
        received.clear()

    assert train(inst, SolveConfig(seed=9, max_epochs=3))[2] == 3
    check(3)
    # no epoch beats the best by an infinite margin, so every epoch stalls
    monkeypatch.setattr(solver, "EARLY_STOP_TOLERANCE", float("inf"))
    monkeypatch.setattr(solver, "EARLY_STOP_PATIENCE", 2)
    assert train(inst, SolveConfig(seed=9, max_epochs=50))[2] == 2
    check(2)


def test_train_deterministic():
    inst = rand_instance(9)
    config = SolveConfig(seed=9, max_epochs=40)
    y1, t1, e1, f1 = train(inst, config)
    y2, t2, e2, f2 = train(inst, config)
    assert np.array_equal(y1, y2)
    assert e1 == e2 and t1 == t2 and f1 == f2


def test_lambda_zero_skips_shared_loss():
    inst = rand_instance(4)
    _, trace, _, _ = train(inst, SolveConfig(seed=4, max_epochs=10, lam=0.0))
    assert all(lb.shared == 0.0 for lb in trace)
    assert all(lb.total == lb.task for lb in trace)


def test_variable_mode_trains():
    inst = rand_instance(6)
    config = SolveConfig(
        seed=6, max_epochs=30, mode="variable", use_transformer=False, lam=0.0
    )
    y, trace, _, _ = train(inst, config)
    assert y.shape == (inst.num_vars,)
    assert np.all((y > 0) & (y < 1))


def test_sampling_respects_degenerate_probabilities():
    inst = make_instance(3, [((1, -2, 3), 1)])
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
    # Recorded with numpy 2.4 / OpenBLAS on x86-64 from the attention that
    # normalizes its softmax on the output and the loss that takes one
    # product per clause.  Any change to an RNG stream or to the order of
    # float operations moves these; acceptance gate 8 has little headroom.
    result = solve(generate_random_3sat(40, 170, seed=11), SolveConfig())
    totals = [float(lb.total).hex() for lb in result.loss_trace]
    assert len(totals) == 300
    assert totals[0] == "0x1.56cc5dd06e952p+4"
    assert totals[-1] == "0x1.052e2b250857cp-2"
    assert hashlib.sha256(" ".join(totals).encode()).hexdigest() == (
        "92d491ff2188172d31d5905b7a6372fd075981b1ddc7c41c54362189c3a17327"
    )
    assert float(result.final_loss.total).hex() == "0x1.a76688105e2a6p-3"
    assert "".join(map(str, result.assignment)) == (
        "1001110011011110011100010100111100110101"
    )
    assert result.unsat_weight == 0


# n = 600 gives 360000 score cells per attention direction, above
# autodiff.LARGE_CELLS, so the solve's worker runs the second direction and
# the attention works in float32 tiles with 16-bit dropout cells
LARGE_SOLVE = """
import hashlib
from hypersat.solver import SolveConfig, solve
from hypersat.wcnf import assign_random_weights, generate_random_3sat
inst = assign_random_weights(generate_random_3sat(600, 2556, seed=7), seed=7)
r = solve(inst, SolveConfig(seed=7, max_epochs=4))
h = hashlib.sha256(" ".join(float(lb.total).hex() for lb in r.loss_trace).encode())
h.update(r.probabilities.tobytes())
print(r.unsat_weight, float(r.final_loss.total).hex(), h.hexdigest())
"""


def test_threaded_solve_reproduces_recorded_results():
    # Recorded with numpy 2.4 / OpenBLAS on x86-64 from the directions run
    # one after the other, each in float32 row tiles of autodiff.TILE_CELLS
    # score cells, normalized on the output: n = 600 spans several tiles,
    # so the tile height moves these.
    # A GEMM with an n-long inner dimension gives other bits on two BLAS
    # threads than on one, so the solve runs in a child process pinned to
    # one, as the benchmark pins it.
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    src = str(Path(hypersat.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "-c", LARGE_SOLVE],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [
        "1580",
        "0x1.9cb8ba3265c13p+10",
        "7e30c4d6d7b747c58c397fd16d9a8b1d754fbfe078c660a073f17be4344b71ae",
    ]


def large_solve(epochs):
    inst = assign_random_weights(generate_random_3sat(600, 2556, seed=7), seed=7)
    return solve(inst, SolveConfig(seed=7, max_epochs=epochs)).to_dict()


def test_threaded_solve_in_forked_child():
    # a fork copies no thread, so a child forked after a threaded solve
    # must start a worker of its own and solve alike
    here = large_solve(2)
    with multiprocessing.get_context("fork").Pool(1) as pool:
        there = pool.apply_async(large_solve, (2,)).get(timeout=60)
    assert there == here
