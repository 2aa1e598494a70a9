"""The solver network: 2-layer hypergraph convolution with a parallel
cross-attention + FFN transformer block, ending in a pair-softmax head.

Literal mode: nodes 0..n-1 are positive literals, n..2n-1 negative.  The
final 2n x 1 logits are reshaped so row i pairs x_i with its negation, and
the softmax's first column is P(x_i = true).  Variable mode (ablation)
runs the same conv stack on n merged nodes with a sigmoid head and no
attention.

Projections are applied on the right (Q = L @ W_Q etc.), keeping rows as
tokens.  ReLU after conv layer 1, identity on the logit layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .hypergraph import NormalizedOperator
from .rng import make_rng

LAYER_NORM_EPS = 1e-5

# Parameters are a flat name -> float64 array mapping; see init_params for
# the key set and shapes.
ModelParameters = dict


def round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


@dataclass(frozen=True)
class ModelConfig:
    num_vars: int
    mode: str = "literal"  # "literal" | "variable"
    use_transformer: bool = True
    attention_dropout: float = 0.1
    conv_layers: int = 2
    seed: int = 0
    # width overrides, None -> derived from num_vars
    d0: int | None = None
    d1: int | None = None

    @property
    def input_dim(self) -> int:
        return self.d0 if self.d0 is not None else max(
            1, round_half_up(math.sqrt(self.num_vars))
        )

    @property
    def hidden_dim(self) -> int:
        return self.d1 if self.d1 is not None else max(
            1, round_half_up(math.sqrt(self.num_vars) / 2.0)
        )

    @property
    def ffn_hidden_dim(self) -> int:
        return self.hidden_dim

    @property
    def num_nodes(self) -> int:
        return 2 * self.num_vars if self.mode == "literal" else self.num_vars


@dataclass
class ForwardTensors:
    """Live tape handles from one forward pass."""

    leaves: dict[str, Tensor]
    y: Tensor  # (n, 1) probabilities
    logits: Tensor
    penult_pos: Tensor | None = None
    penult_neg: Tensor | None = None


@dataclass(frozen=True)
class ForwardOutput:
    y: np.ndarray  # (n,)
    logits: np.ndarray
    penult_pos: np.ndarray | None = None
    penult_neg: np.ndarray | None = None


def _param_shapes(config: ModelConfig) -> dict[str, tuple[int, int]]:
    d0, d1, h = config.input_dim, config.hidden_dim, config.ffn_hidden_dim
    shapes = {
        "embed": (config.num_nodes, d0),
        "conv1": (d0, d1),
        "conv2": (d1, 1),
    }
    if config.mode == "literal" and config.use_transformer:
        for bank in ("pos", "neg"):
            for proj in ("q", "k", "v"):
                shapes[f"attn_{proj}_{bank}"] = (d1, d1)
        shapes["ffn1"] = (d1, h)
        shapes["ffn2"] = (h, d1)
        for ln in ("ln1", "ln2"):
            shapes[f"{ln}_gain"] = (1, d1)
            shapes[f"{ln}_bias"] = (1, d1)
    return shapes


def init_params(config: ModelConfig) -> ModelParameters:
    """Uniform (-1/sqrt(fan_in), +1/sqrt(fan_in)) weights, scaled-normal
    embedding, unit LayerNorm gains; deterministic per config seed."""
    rng = make_rng(config.seed, 0x1717)
    params: ModelParameters = {}
    for name, shape in sorted(_param_shapes(config).items()):
        if name == "embed":
            params[name] = rng.standard_normal(shape) / math.sqrt(shape[1])
        elif name.endswith("_gain"):
            params[name] = np.ones(shape)
        elif name.endswith("_bias"):
            params[name] = np.zeros(shape)
        else:
            bound = 1.0 / math.sqrt(shape[0])
            params[name] = rng.uniform(-bound, bound, size=shape)
    return params


def conv_layer(
    s: NormalizedOperator, l: Tensor, r: Tensor, activation: str = "relu"
) -> Tensor:
    """One hypergraph convolution: activation(S @ L @ R)."""
    out = ad.matmul(ad.sparse_matmul(s.matrix, l), r)
    if activation == "relu":
        return ad.relu(out)
    if activation == "identity":
        return out
    raise ValueError(f"unknown activation {activation!r}")


def cross_attention(
    lp: Tensor,
    ln: Tensor,
    leaves: dict[str, Tensor],
    dropout_p: float = 0.0,
    training: bool = False,
    rng: np.random.Generator | None = None,
) -> tuple[Tensor, Tensor]:
    """Positive bank attends over the negative bank and vice versa, each
    direction one fused ``autodiff.attention`` op that leaves an n x n
    float array and a bool mask on the tape.  Its mask compares raw Philox
    words with a threshold; ``rng.random()`` is the top 53 bits of the same
    word, so it drops what ``rng.random(shape) < dropout_p`` would."""
    d = lp.value.shape[1]
    inv_sqrt_d = 1.0 / math.sqrt(d)

    def attend(queries, keys, values, prefix):
        q = ad.matmul(queries, leaves[f"attn_q_{prefix[0]}"])
        k = ad.matmul(keys, leaves[f"attn_k_{prefix[1]}"])
        v = ad.matmul(values, leaves[f"attn_v_{prefix[1]}"])
        return ad.attention(q, k, v, inv_sqrt_d, dropout_p, training, rng)

    out_pos = attend(lp, ln, ln, ("pos", "neg"))
    out_neg = attend(ln, lp, lp, ("neg", "pos"))
    return out_pos, out_neg


def transformer_block(
    l: Tensor,
    leaves: dict[str, Tensor],
    config: ModelConfig,
    training: bool = False,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Parallel cross-attention + FFN with residual:
    LN2(attn(LN1(x)) + FFN(LN1(x)) + LN1(x))."""
    n = config.num_vars
    x = ad.layer_norm(l, leaves["ln1_gain"], leaves["ln1_bias"], LAYER_NORM_EPS)
    xp, xn = ad.split_rows(x, n)
    ap, an = cross_attention(
        xp, xn, leaves, config.attention_dropout, training, rng
    )
    a = ad.concat_rows(ap, an)
    f = ad.matmul(ad.relu(ad.matmul(x, leaves["ffn1"])), leaves["ffn2"])
    return ad.layer_norm(
        ad.add(ad.add(a, f), x),
        leaves["ln2_gain"],
        leaves["ln2_bias"],
        LAYER_NORM_EPS,
    )


def _first_column(a: Tensor) -> Tensor:
    def back(g):
        full = np.zeros_like(a.value)
        full[:, :1] = g
        a._accumulate(full)

    return Tensor(a.value[:, :1].copy(), (a,), back)


def build_forward(
    s: NormalizedOperator,
    params: ModelParameters,
    config: ModelConfig,
    training: bool = False,
    dropout_rng: np.random.Generator | None = None,
) -> ForwardTensors:
    """Run the network on the tape; returns live tensors for loss wiring."""
    if s.matrix.shape[0] != config.num_nodes:
        raise ValueError(
            f"operator has {s.matrix.shape[0]} nodes, config expects "
            f"{config.num_nodes} ({config.mode} mode)"
        )
    leaves = {name: Tensor(arr) for name, arr in params.items()}
    n = config.num_vars
    h1 = conv_layer(s, leaves["embed"], leaves["conv1"], "relu")
    if config.mode == "literal":
        if config.use_transformer:
            h1 = transformer_block(h1, leaves, config, training, dropout_rng)
        penult_pos, penult_neg = ad.split_rows(h1, n)
        logits = conv_layer(s, h1, leaves["conv2"], "identity")
        pairs = ad.reshape_pairs(logits, n)
        y = _first_column(ad.row_softmax(pairs))
        return ForwardTensors(leaves, y, logits, penult_pos, penult_neg)
    logits = conv_layer(s, h1, leaves["conv2"], "identity")
    y = ad.sigmoid(logits)
    return ForwardTensors(leaves, y, logits)


def forward(
    s: NormalizedOperator, params: ModelParameters, config: ModelConfig
) -> ForwardOutput:
    """Inference-mode forward pass returning plain arrays."""
    ft = build_forward(s, params, config, training=False)
    return ForwardOutput(
        y=ft.y.value.reshape(-1).copy(),
        logits=ft.logits.value.copy(),
        penult_pos=None if ft.penult_pos is None else ft.penult_pos.value.copy(),
        penult_neg=None if ft.penult_neg is None else ft.penult_neg.value.copy(),
    )


def save_params(params: ModelParameters, path: str) -> None:
    """Flat text checkpoint: shapes header + row-major hex floats."""
    with open(path, "w") as fh:
        fh.write("hypersat-params v1\n")
        fh.write(f"{len(params)}\n")
        for name in sorted(params):
            arr = params[name]
            fh.write(f"{name} {arr.shape[0]} {arr.shape[1]}\n")
            for row in arr:
                fh.write(" ".join(float(v).hex() for v in row) + "\n")


def load_params(path: str) -> ModelParameters:
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "hypersat-params v1":
            raise ValueError(f"unrecognized checkpoint header {header!r}")
        count = int(fh.readline())
        params: ModelParameters = {}
        for _ in range(count):
            name, rows, cols = fh.readline().split()
            rows, cols = int(rows), int(cols)
            data = [
                [float.fromhex(t) for t in fh.readline().split()]
                for _ in range(rows)
            ]
            arr = np.array(data)
            if arr.shape != (rows, cols):
                raise ValueError(f"bad shape for {name} in checkpoint")
            params[name] = arr
    return params
