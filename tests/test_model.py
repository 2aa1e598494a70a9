"""Network construction, forward-pass semantics, and structural invariants."""

import dataclasses
import hashlib

import numpy as np
import pytest

from clause_lists import make_instance
from hypersat import autodiff as ad
from hypersat.hypergraph import (
    build_literal_hypergraph,
    build_variable_hypergraph,
    normalized_operator,
)
from hypersat.model import (
    ModelConfig,
    build_forward,
    conv_layer,
    init_params,
    round_half_up,
)
from hypersat.rng import derive_key, make_rng
from hypersat.solver import _epoch_losses
from hypersat.wcnf import assign_random_weights, generate_random_3sat


def rand_setup(n=8, m=25, seed=0, **cfg):
    inst = assign_random_weights(
        generate_random_3sat(n, m, seed=seed), seed=seed
    )
    mode = cfg.get("mode", "literal")
    builder = (
        build_literal_hypergraph if mode == "literal" else build_variable_hypergraph
    )
    s = normalized_operator(builder(inst))
    config = ModelConfig(num_vars=n, seed=seed, **cfg)
    return inst, s, config, init_params(config)[1]


def infer(s, params, config):
    """Inference-mode probabilities (n,) and the live forward tensors."""
    ft = build_forward(s, params, config, training=False)
    return ft.y.value[:, 0], ft


def head_logits(s, params, ft):
    """The 2n logits of a literal-mode pass, from its penultimate banks."""
    return conv_layer(s, ft.penult, ad.Tensor(params["conv2"]), False).value


def test_round_half_up():
    assert round_half_up(0.4) == 0
    assert round_half_up(0.5) == 1
    assert round_half_up(1.5) == 2
    assert round_half_up(2.49) == 2


def test_derived_widths():
    # width = round(sqrt(n)) at the input, half that in the hidden layer,
    # each at least 2
    assert ModelConfig(num_vars=250).input_dim == 16
    assert ModelConfig(num_vars=250).hidden_dim == 8
    assert ModelConfig(num_vars=100).input_dim == 10
    assert ModelConfig(num_vars=100).hidden_dim == 5
    assert ModelConfig(num_vars=9).input_dim == 3
    assert ModelConfig(num_vars=9).hidden_dim == 2
    assert ModelConfig(num_vars=8).hidden_dim == 2
    assert ModelConfig(num_vars=4).input_dim == 2
    assert ModelConfig(num_vars=4).hidden_dim == 2
    assert ModelConfig(num_vars=2).input_dim == 2


def test_config_rejects_unknown_mode():
    for mode in ("Literal", "variables", ""):
        with pytest.raises(ValueError, match="mode"):
            ModelConfig(num_vars=4, mode=mode)


def test_config_rejects_attention_in_variable_mode():
    # variable mode has no literal banks for the attention to pair up
    with pytest.raises(ValueError, match="use_transformer"):
        ModelConfig(num_vars=4, mode="variable")


def test_num_nodes_by_mode():
    assert ModelConfig(num_vars=7).num_nodes == 14
    assert ModelConfig(
        num_vars=7, mode="variable", use_transformer=False
    ).num_nodes == 7


def test_init_params_shapes_and_determinism():
    _, _, config, params = rand_setup(n=9)
    d0, d1 = config.input_dim, config.hidden_dim
    assert params["embed"].shape == (18, d0)
    assert params["conv1"].shape == (d0, d1)
    assert params["conv2"].shape == (d1, 1)
    for bank in ("pos", "neg"):
        for proj in ("q", "k", "v"):
            assert params[f"attn_{proj}_{bank}"].shape == (d1, d1)
    assert params["ffn1"].shape == (d1, d1)
    assert params["ffn2"].shape == (d1, d1)
    for ln in ("ln1", "ln2"):
        assert np.array_equal(params[f"{ln}_gain"], np.ones((1, d1)))
        assert np.array_equal(params[f"{ln}_bias"], np.zeros((1, d1)))
    _, again = init_params(config)
    for name in params:
        assert np.array_equal(params[name], again[name])


@pytest.mark.parametrize(
    "config, digest",
    [
        (
            ModelConfig(num_vars=10, seed=4),
            "ea0cd08e51ca195e4f8cad56b81800cbde8732236955a1f3abc12230c5b0288c",
        ),
        (
            ModelConfig(
                num_vars=7, seed=2, mode="variable", use_transformer=False
            ),
            "84102d7b03ecc8e0370a1ffa266f4aec1743012ac6ef3668b973173f091ee1f6",
        ),
    ],
    ids=["literal", "variable"],
)
def test_init_params_are_views_of_one_vector(config, digest):
    # n = 10 has the widths it had before they were floored at 2, and the
    # literal digest is the bytes it had then; n = 7 is floored to 3 x 2
    flat, params = init_params(config)
    assert list(params) == sorted(params)
    assert sum(p.size for p in params.values()) == flat.size
    offset = 0
    for p in params.values():
        assert np.shares_memory(p, flat) and p.flags.c_contiguous
        assert p.__array_interface__["data"][0] == (
            flat.__array_interface__["data"][0] + 8 * offset
        )
        offset += p.size
    h = hashlib.sha256()
    for name, p in params.items():
        h.update(name.encode())
        h.update(p.tobytes())
    assert h.hexdigest() == digest


def test_init_params_bounds():
    config = ModelConfig(num_vars=50, seed=3)
    _, params = init_params(config)
    d0 = config.input_dim
    bound = 1.0 / np.sqrt(d0)
    assert np.all(np.abs(params["conv1"]) < bound)
    # the embedding is scaled normal, not uniform; just sanity-check scale
    assert 0.05 < params["embed"].std() < 3.0


def test_variable_mode_has_no_transformer_params():
    _, _, _, params = rand_setup(n=8, mode="variable", use_transformer=False)
    assert set(params) == {"embed", "conv1", "conv2"}


def test_conv_layer_hand_computed():
    # identity-free check: out = relu(S @ L @ R) on a 1-clause instance
    inst = make_instance(2, [((1, 2), 4)])
    s = normalized_operator(build_literal_hypergraph(inst))
    # S: nodes 0,1 coupled with 1/max(delta-1,1)=1, degrees 4 -> entry 1/4
    dense = s.matrix.toarray()
    assert dense[0, 1] == pytest.approx(0.25)
    l = ad.Tensor(np.array([[1.0], [2.0], [0.0], [0.0]]))
    r = ad.Tensor(np.array([[3.0]]))
    out = conv_layer(s, l, r, True)
    expected = np.maximum(dense @ l.value @ r.value, 0.0)
    assert np.allclose(out.value, expected)
    assert out.value[0, 0] == pytest.approx(0.25 * 2.0 * 3.0)


def test_conv_layer_identity_activation():
    inst = make_instance(2, [((1, -2), 1)])
    s = normalized_operator(build_literal_hypergraph(inst))
    l = ad.Tensor(-np.ones((4, 2)))
    r = ad.Tensor(np.ones((2, 1)))
    out = conv_layer(s, l, r, False)
    assert np.any(out.value < 0)


def test_forward_output_shapes_and_range():
    inst, s, config, params = rand_setup(n=10, m=35, seed=4)
    y, ft = infer(s, params, config)
    assert y.shape == (10,)
    assert np.all(y > 0) and np.all(y < 1)
    assert ft.penult.shape == (20, config.hidden_dim)


def test_pair_softmax_head_complementary():
    # P(x) comes from a 2-way softmax of (logit_x, logit_notx):
    # y_i = sigmoid(logit_i - logit_{n+i})
    inst, s, config, params = rand_setup(n=6, m=20, seed=5)
    y, ft = infer(s, params, config)
    logits = head_logits(s, params, ft)
    diffs = logits[:6, 0] - logits[6:, 0]
    assert np.allclose(y, 1.0 / (1.0 + np.exp(-diffs)))


def test_variable_mode_sigmoid_head():
    inst, s, config, params = rand_setup(
        n=6, m=20, seed=5, mode="variable", use_transformer=False
    )
    y, ft = infer(s, params, config)
    assert y.shape == (6,)
    leaves = {name: ad.Tensor(p) for name, p in params.items()}
    h1 = conv_layer(s, leaves["embed"], leaves["conv1"], True)
    logits = conv_layer(s, h1, leaves["conv2"], False).value
    assert np.allclose(y, 1.0 / (1.0 + np.exp(-logits[:, 0])))
    assert ft.penult is None


def test_transformer_ablation_changes_output():
    inst, s, config, params = rand_setup(n=8, m=28, seed=6)
    plain_config = ModelConfig(num_vars=8, seed=6, use_transformer=False)
    _, plain_params = init_params(plain_config)
    with_t, _ = infer(s, params, config)
    without_t, _ = infer(s, plain_params, plain_config)
    assert not np.allclose(with_t, without_t)


def test_forward_deterministic_inference():
    inst, s, config, params = rand_setup(n=8, m=28, seed=7)
    a, _ = infer(s, params, config)
    b, _ = infer(s, params, config)
    assert np.array_equal(a, b)


def test_training_dropout_changes_output():
    inst, s, config, params = rand_setup(n=8, m=28, seed=8)
    base = build_forward(s, params, config, training=False).y.value
    masks = ad.dropout_masks(derive_key(8, 0xD0, 1), 8)
    dropped = build_forward(
        s, params, config, training=True, dropout=masks
    ).y.value
    assert not np.array_equal(base, dropped)
    # masks outside training are ignored
    again = build_forward(s, params, config, dropout=masks).y.value
    assert np.array_equal(base, again)


def test_training_attention_requires_dropout_masks():
    inst, s, config, params = rand_setup(n=8, m=28, seed=8)
    with pytest.raises(ValueError, match="dropout masks"):
        build_forward(s, params, config, training=True)
    # a model without attention has nothing to drop
    plain = ModelConfig(num_vars=8, seed=8, use_transformer=False)
    build_forward(s, init_params(plain)[1], plain, training=True)


@pytest.mark.parametrize("n", range(3, 9))
def test_small_models_pass_gradient_to_every_parameter(n):
    # A 1-wide hidden layer normalizes every LayerNorm row to zero, which
    # left 14 of the 15 arrays without gradient below n = 9.  A dead ReLU
    # row can still zero a few arrays on one instance at any n, so each
    # array must get a gradient from at least one of five instances.
    dead = None
    for seed in range(5):
        inst, s, config, params = rand_setup(n, round(4.3 * n), seed)
        masks = ad.dropout_masks(derive_key(seed, 0xD0, 1), n)
        ft = build_forward(s, params, config, training=True, dropout=masks)
        ad.backward(_epoch_losses(ft, inst, 2e-3)[0])
        assert len(ft.leaves) == 15
        zero = {name for name, t in ft.leaves.items() if not t.grad.any()}
        dead = zero if dead is None else dead & zero
    assert dead == set()


def test_operator_size_mismatch_rejected():
    inst, s, _, _ = rand_setup(n=8)
    config = ModelConfig(num_vars=9)
    with pytest.raises(ValueError):
        build_forward(s, init_params(config)[1], config)


def test_variable_relabeling_permutes_probabilities():
    # renaming variables permutes the network output consistently, because
    # the whole pipeline depends on the instance only through the hypergraph
    n, seed = 7, 11
    inst = assign_random_weights(
        generate_random_3sat(n, 24, seed=seed), seed=seed
    )
    perm = list(make_rng(seed, 0xE0).permutation(n))  # old var v -> perm[v-1]+1
    relabeled = dataclasses.replace(inst, var=np.array(perm)[inst.var])
    config = ModelConfig(num_vars=n, seed=seed)

    def run(instance, embed_rows):
        s = normalized_operator(build_literal_hypergraph(instance))
        _, params = init_params(config)
        params["embed"] = embed_rows
        return infer(s, params, config)[0]

    base_embed = init_params(config)[1]["embed"]
    y1 = run(inst, base_embed)
    # permute the embedding rows the same way (both literal banks)
    permuted = np.empty_like(base_embed)
    for v in range(n):
        permuted[perm[v]] = base_embed[v]
        permuted[n + perm[v]] = base_embed[n + v]
    y2 = run(relabeled, permuted)
    for v in range(n):
        assert y2[perm[v]] == pytest.approx(y1[v], abs=1e-12)
