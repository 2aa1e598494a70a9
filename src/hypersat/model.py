"""The solver network: 2-layer hypergraph convolution with a parallel
cross-attention + FFN transformer block, ending in a pair-softmax head.

All parameters live in one flat float64 vector; ``init_params`` hands out
each one as a named view into it, in sorted-name order, so the optimizer
and the best-epoch snapshot work on the vector while the layers read
named arrays.

Each layer is one ``autodiff`` tape node with its own backward: conv,
LayerNorm, paired attention with its projections, FFN, and the head;
only the residual joins two of them with ``add``.

Literal mode: nodes 0..n-1 are positive literals, n..2n-1 negative.  The
pair-softmax head pairs the final logit of x_i with that of its negation,
and the softmax's first column is P(x_i = true).  Variable mode (ablation)
runs the same conv stack on n merged nodes with a sigmoid head and no
attention.

Projections are applied on the right (Q = L @ W_Q etc.), keeping rows as
tokens.  A convolution is S @ (L @ R): the projection first, so that the
sparse product runs on the narrower side.  ReLU after conv layer 1,
identity on the logit layer.

A training forward pass takes the attention's dropout masks as an argument
instead of drawing them: ``autodiff.dropout_masks`` makes them from a
Philox key, packed to bits, and ``paired_attention`` takes them as
``keep``.  The forward pass hands down an optional ``pool``, on which a
large attention runs its second direction.

Widths come from n: the input width is round(sqrt(n)) and the hidden
width half that, each at least 2, since a 1-wide LayerNorm row normalizes
to zero and passes no gradient back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .hypergraph import NormalizedOperator
from .rng import make_rng


def check_mode(mode: str, use_transformer: bool) -> None:
    if mode not in ("literal", "variable"):
        raise ValueError(f"mode must be 'literal' or 'variable', got {mode!r}")
    if mode == "variable" and use_transformer:
        raise ValueError("mode 'variable' has no literal banks to attend "
                         "across: set use_transformer=False")


def round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


@dataclass(frozen=True)
class ModelConfig:
    num_vars: int
    mode: str = "literal"  # "literal" | "variable"
    use_transformer: bool = True
    seed: int = 0

    def __post_init__(self):
        check_mode(self.mode, self.use_transformer)

    @property
    def input_dim(self) -> int:
        return max(2, round_half_up(math.sqrt(self.num_vars)))

    @property
    def hidden_dim(self) -> int:
        return max(2, round_half_up(math.sqrt(self.num_vars) / 2.0))

    @property
    def num_nodes(self) -> int:
        return 2 * self.num_vars if self.mode == "literal" else self.num_vars


@dataclass
class ForwardTensors:
    """Live tape handles from one forward pass."""

    leaves: dict[str, Tensor]
    y: Tensor  # (n, 1) probabilities
    penult: Tensor | None = None  # (2n, d) literal banks before the head


def _param_shapes(config: ModelConfig) -> dict[str, tuple[int, int]]:
    d0, d1 = config.input_dim, config.hidden_dim
    shapes = {
        "embed": (config.num_nodes, d0),
        "conv1": (d0, d1),
        "conv2": (d1, 1),
    }
    if config.use_transformer:
        for bank in ("pos", "neg"):
            for proj in ("q", "k", "v"):
                shapes[f"attn_{proj}_{bank}"] = (d1, d1)
        shapes["ffn1"] = (d1, d1)
        shapes["ffn2"] = (d1, d1)
        for ln in ("ln1", "ln2"):
            shapes[f"{ln}_gain"] = (1, d1)
            shapes[f"{ln}_bias"] = (1, d1)
    return shapes


def init_params(
    config: ModelConfig,
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """The flat parameter vector and each parameter as a named view into
    it, laid out in sorted-name order.  Uniform (-1/sqrt(fan_in),
    +1/sqrt(fan_in)) weights, scaled-normal embedding, unit LayerNorm
    gains; deterministic per config seed."""
    rng = make_rng(config.seed, 0x1717)
    shapes = sorted(_param_shapes(config).items())
    flat = np.empty(sum(math.prod(shape) for _, shape in shapes))
    params: dict[str, np.ndarray] = {}
    offset = 0
    for name, shape in shapes:
        size = math.prod(shape)
        view = params[name] = flat[offset : offset + size].reshape(shape)
        offset += size
        if name == "embed":
            view[...] = rng.standard_normal(shape) / math.sqrt(shape[1])
        elif name.endswith("_gain"):
            view[...] = 1.0
        elif name.endswith("_bias"):
            view[...] = 0.0
        else:
            bound = 1.0 / math.sqrt(shape[0])
            view[...] = rng.uniform(-bound, bound, size=shape)
    return flat, params


def conv_layer(
    s: NormalizedOperator, l: Tensor, r: Tensor, relu: bool
) -> Tensor:
    """One hypergraph convolution: relu(S @ (L @ R)), or without the ReLU
    on the logit layer."""
    return ad.conv(s.matrix, l, r, relu)


def cross_attention(
    x: Tensor,
    leaves: dict[str, Tensor],
    keep: tuple[np.ndarray, np.ndarray] | None = None,
    pool=None,
) -> Tensor:
    """Positive bank ``x[:n]`` attends over the negative bank ``x[n:]`` and
    vice versa, stacked as (2n, d) by one ``autodiff.paired_attention`` op,
    which projects the banks itself, works in row tiles and keeps only a
    log-sum-exp column per direction besides the projections and the
    output.  In training, ``keep`` holds the two directions' packed dropout
    masks (``autodiff.dropout_masks``, the positive-to-negative direction's
    mask first); ``None`` drops nothing.  Given ``pool``, a large
    attention runs the negative-to-positive direction on it."""
    names = ("q_pos", "k_neg", "v_neg", "q_neg", "k_pos", "v_pos")
    weights = tuple(leaves[f"attn_{name}"] for name in names)
    return ad.paired_attention(x, weights, keep, pool=pool)


def transformer_block(
    l: Tensor,
    leaves: dict[str, Tensor],
    keep: tuple[np.ndarray, np.ndarray] | None = None,
    pool=None,
) -> Tensor:
    """Parallel cross-attention + FFN with residual:
    LN2(attn(LN1(x)) + FFN(LN1(x)) + LN1(x))."""
    x = ad.layer_norm(l, leaves["ln1_gain"], leaves["ln1_bias"])
    a = cross_attention(x, leaves, keep, pool=pool)
    f = ad.ffn(x, leaves["ffn1"], leaves["ffn2"])
    return ad.layer_norm(
        ad.add(ad.add(a, f), x), leaves["ln2_gain"], leaves["ln2_bias"]
    )


def build_forward(
    s: NormalizedOperator,
    params: dict[str, np.ndarray],
    config: ModelConfig,
    training: bool = False,
    dropout: tuple[np.ndarray, np.ndarray] | None = None,
    pool=None,
) -> ForwardTensors:
    """Run the network on the tape; returns live tensors for loss wiring.
    Training a model with attention needs ``dropout``, the attention's two
    packed keep masks (``autodiff.dropout_masks``); at inference nothing is
    dropped.  ``pool`` goes to the attention."""
    if s.matrix.shape[0] != config.num_nodes:
        raise ValueError(
            f"operator has {s.matrix.shape[0]} nodes, config expects "
            f"{config.num_nodes} ({config.mode} mode)"
        )
    if training and config.use_transformer and dropout is None:
        raise ValueError("training with attention needs its dropout masks")
    leaves = {name: Tensor(arr) for name, arr in params.items()}
    h1 = conv_layer(s, leaves["embed"], leaves["conv1"], relu=True)
    if config.use_transformer:
        keep = dropout if training else None
        h1 = transformer_block(h1, leaves, keep, pool=pool)
    logits = conv_layer(s, h1, leaves["conv2"], relu=False)
    if config.mode == "variable":
        return ForwardTensors(leaves, ad.sigmoid(logits))
    return ForwardTensors(leaves, ad.pair_softmax(logits), h1)
