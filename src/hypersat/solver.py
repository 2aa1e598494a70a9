"""Per-instance unsupervised training with Adam and early stopping, and
probabilistic rounding to Boolean assignments.

Training minimizes task + lambda * shared per epoch (dropout on, fresh
masks per epoch).  The training state is the model's flat parameter vector
and Adam's two moment vectors of the same layout: each epoch gathers the
leaf gradients into one vector, and Adam is a few vector operations on it.
The best-total-loss parameters are kept as one copy of the vector; the
returned probabilities come from a final dropout-off forward pass with
those parameters.  Rounding draws k independent Bernoulli assignments from
the probability vector and keeps the one with the least unsatisfied weight
(first drawn wins ties).

Threading: ``train`` keeps one worker thread for the whole solve, started
only if a model with attention needs it.  The worker draws epoch 1's
dropout masks before the loop and each next epoch's masks while the epoch
before trains, at every n.  It is also the attention's ``pool``, on which
a large attention runs its second direction (``autodiff.paired_attention``
decides from which size).  The masks are a function of the seed and the
epoch alone, and each direction's tiles are the same on either thread, so
results do not depend on thread timing or on which thread ran what.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import objective
from .hypergraph import (
    build_literal_hypergraph,
    build_variable_hypergraph,
    normalized_operator,
)
from .model import ModelConfig, build_forward, check_mode, init_params
from .objective import LossBreakdown
from .rng import derive_key, make_rng
from .wcnf import WcnfInstance, evaluate

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# training stops once the total loss has not beaten its best by more than
# the tolerance for this many epochs in a row
EARLY_STOP_TOLERANCE = 1e-4
EARLY_STOP_PATIENCE = 50


@dataclass(frozen=True)
class SolveConfig:
    learning_rate: float = 7e-2
    max_epochs: int = 300
    lam: float = 2e-3
    num_samples: int = 5
    seed: int = 0
    mode: str = "literal"  # "literal" | "variable"
    use_transformer: bool = True

    def __post_init__(self):
        lr = self.learning_rate
        if not (math.isfinite(lr) and lr > 0):
            raise ValueError(f"learning_rate must be finite and > 0, got {lr}")
        if self.max_epochs < 1:
            raise ValueError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.num_samples < 1:
            raise ValueError("num_samples must be >= 1")
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise ValueError(f"lam must be finite and >= 0, got {self.lam}")
        check_mode(self.mode, self.use_transformer)


@dataclass(frozen=True)
class SolveResult:
    assignment: np.ndarray
    sat_weight: int
    unsat_weight: int
    epochs_run: int
    loss_trace: tuple[LossBreakdown, ...]
    probabilities: np.ndarray
    final_loss: LossBreakdown
    config: SolveConfig
    instance_name: str = ""

    def to_dict(self) -> dict:
        return {
            "instance": self.instance_name,
            "unsat_weight": int(self.unsat_weight),
            "sat_weight": int(self.sat_weight),
            "epochs_run": int(self.epochs_run),
            "assignment": [int(v) for v in self.assignment],
            "probabilities": [float(p) for p in self.probabilities],
            "final_loss": {
                "task": self.final_loss.task,
                "shared": self.final_loss.shared,
                "total": self.final_loss.total,
            },
            "loss_trace": [
                {"task": lb.task, "shared": lb.shared, "total": lb.total}
                for lb in self.loss_trace
            ],
            "seed": self.config.seed,
            "mode": self.config.mode,
            "use_transformer": self.config.use_transformer,
            "lambda": self.config.lam,
        }


def adam_step(
    flat: np.ndarray,
    grad: np.ndarray,
    m: np.ndarray,
    v: np.ndarray,
    t: int,
    learning_rate: float,
) -> None:
    """In-place bias-corrected Adam update of the parameter vector ``flat``
    at step ``t``, with moment vectors ``m`` and ``v`` updated in place.
    The formula's operations run in its order on the same operands, so the
    result is bit-identical to it, written into two work vectors (the last
    division needs its numerator and denominator at once); ``grad`` is
    only read."""
    work = np.multiply(grad, 1 - ADAM_BETA1)
    m *= ADAM_BETA1
    m += work
    np.multiply(grad, 1 - ADAM_BETA2, out=work)
    work *= grad
    v *= ADAM_BETA2
    v += work
    np.divide(v, 1 - ADAM_BETA2**t, out=work)
    np.sqrt(work, out=work)
    work += ADAM_EPS
    step = np.divide(m, 1 - ADAM_BETA1**t)
    step *= learning_rate
    step /= work
    flat -= step


def _model_config(instance: WcnfInstance, config: SolveConfig) -> ModelConfig:
    return ModelConfig(
        num_vars=instance.num_vars,
        mode=config.mode,
        use_transformer=config.use_transformer,
        seed=config.seed,
    )


def _epoch_losses(ft, instance, lam) -> tuple[ad.Tensor, LossBreakdown]:
    task_t = objective.task_loss(instance, ft.y)
    if lam > 0 and ft.penult is not None:
        shared_t = objective.shared_loss(ft.penult)
        total_t = ad.add(task_t, ad.scale(shared_t, lam))
        shared_val = float(shared_t.value)
    else:
        total_t = task_t
        shared_val = 0.0
    return total_t, LossBreakdown(float(task_t.value), shared_val, lam)


def train(instance: WcnfInstance, config: SolveConfig) -> tuple[
    np.ndarray, list[LossBreakdown], int, LossBreakdown
]:
    """Optimize a fresh model on one instance.

    Returns (final probabilities, per-epoch loss trace, epochs run,
    dropout-off loss of the best parameters)."""
    builder = (
        build_literal_hypergraph
        if config.mode == "literal"
        else build_variable_hypergraph
    )
    s = normalized_operator(builder(instance))
    mconfig = _model_config(instance, config)
    flat, params = init_params(mconfig)
    m, v = np.zeros_like(flat), np.zeros_like(flat)
    trace: list[LossBreakdown] = []
    best = float("inf")
    best_flat = flat.copy()
    stall = 0
    epochs_run = 0

    def draw(epoch):
        key = derive_key(config.seed, 0xD0, epoch)
        return ad.dropout_masks(key, mconfig.num_vars)

    # The threading rule of the module docstring.  Leaving the block waits
    # for a draw still running and drops it.  A diverging run overflows on
    # its way to the non-finite loss that raises FloatingPointError below,
    # and numpy's warnings would only repeat that error.  Its error state
    # belongs to one thread, so the worker sets its own.
    quiet = {"over": "ignore", "invalid": "ignore"}
    with np.errstate(**quiet), ThreadPoolExecutor(
        1, initializer=functools.partial(np.seterr, **quiet)
    ) as worker:
        ahead = worker.submit(draw, 1) if config.use_transformer else None
        for epoch in range(1, config.max_epochs + 1):
            masks = ahead.result() if ahead else None
            if ahead and epoch < config.max_epochs:
                ahead = worker.submit(draw, epoch + 1)
            ft = build_forward(
                s, params, mconfig, training=True, dropout=masks, pool=worker
            )
            total_t, breakdown = _epoch_losses(ft, instance, config.lam)
            if not np.isfinite(breakdown.total):
                raise FloatingPointError(
                    f"non-finite loss at epoch {epoch}: {breakdown}"
                )
            trace.append(breakdown)
            epochs_run = epoch
            if best - breakdown.total > EARLY_STOP_TOLERANCE:
                best = breakdown.total
                np.copyto(best_flat, flat)
                stall = 0
            else:
                stall += 1
                if stall >= EARLY_STOP_PATIENCE:
                    break
            ad.backward(total_t)
            # the leaves follow the parameters' order, which is flat's layout
            grad = np.concatenate([t.grad.ravel() for t in ft.leaves.values()])
            adam_step(flat, grad, m, v, epoch, config.learning_rate)
            # free this epoch's tape before the next forward builds another;
            # an early-stop break skips this line
            ft = total_t = masks = None
        ft = total_t = masks = ahead = None
        np.copyto(flat, best_flat)  # the views in params now hold the best
        final = build_forward(s, params, mconfig, training=False, pool=worker)
    _, final_breakdown = _epoch_losses(final, instance, config.lam)
    y_final = final.y.value.reshape(-1).copy()
    return y_final, trace, epochs_run, final_breakdown


def gradient_errors(instance: WcnfInstance, seed: int) -> dict[str, float]:
    """Worst relative error between backprop and central differences of the
    training loss, per parameter of the literal-mode model (dropout off)."""
    s = normalized_operator(build_literal_hypergraph(instance))
    mconfig = ModelConfig(num_vars=instance.num_vars, seed=seed)
    flat, params = init_params(mconfig)
    # nudge every parameter off its initial value: zero-init biases park
    # piecewise-linear units exactly on their kinks, where two-sided
    # differences and the subgradient convention disagree by construction.
    # One draw over the vector is the stream of one draw per parameter in
    # layout order.
    flat += 0.05 * make_rng(seed, 0x6D).standard_normal(flat.size)
    lam = SolveConfig().lam

    # finite_diff_check perturbs the views in place, so closing over the
    # full parameter dict keeps the forward pass consistent
    def forward():
        ft = build_forward(s, params, mconfig, training=False)
        return ft, _epoch_losses(ft, instance, lam)[0]

    ft, loss = forward()
    ad.backward(loss)
    return {
        name: ad.finite_diff_check(
            lambda _: float(forward()[1].value),
            {name: params[name]},
            {name: ft.leaves[name].grad},
            step=1e-5,
            floor=1e-5,
        )
        for name in sorted(params)
    }


def sample_assignments(
    y: np.ndarray, instance: WcnfInstance, k: int = 5, seed: int = 0
) -> tuple[np.ndarray, int]:
    """Best of k Bernoulli roundings of the probability vector."""
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    if y.shape[0] != instance.num_vars:
        raise ValueError("probability vector length mismatch")
    if k < 1:
        raise ValueError("k must be >= 1")
    # one (k, n) draw is the same Philox stream as k draws of n
    draws = (make_rng(seed, 0x5A).random((k, y.shape[0])) < y).astype(np.int8)
    unsat = evaluate(instance, draws).unsat_weight
    best = int(unsat.argmin())  # the first of equal draws wins
    return draws[best].copy(), int(unsat[best])


def solve(instance: WcnfInstance, config: SolveConfig) -> SolveResult:
    """Train, round, and report; deterministic for a fixed config."""
    y, trace, epochs, final_loss = train(instance, config)
    assignment, unsat = sample_assignments(
        y, instance, k=config.num_samples, seed=config.seed
    )
    return SolveResult(
        assignment=assignment,
        sat_weight=instance.total_weight() - unsat,
        unsat_weight=unsat,
        epochs_run=epochs,
        loss_trace=tuple(trace),
        probabilities=y,
        final_loss=final_loss,
        config=config,
        instance_name=instance.name,
    )
