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
    dropout_masks,
    init_params,
    round_half_up,
)
from hypersat.rng import derive_key, make_rng
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


def test_round_half_up():
    assert round_half_up(0.4) == 0
    assert round_half_up(0.5) == 1
    assert round_half_up(1.5) == 2
    assert round_half_up(2.49) == 2


def test_derived_widths():
    # width = round(sqrt(n)) at the input, half that in the hidden layer
    assert ModelConfig(num_vars=250).input_dim == 16
    assert ModelConfig(num_vars=250).hidden_dim == 8
    assert ModelConfig(num_vars=100).input_dim == 10
    assert ModelConfig(num_vars=100).hidden_dim == 5
    assert ModelConfig(num_vars=4).input_dim == 2
    assert ModelConfig(num_vars=4).hidden_dim == 1
    assert ModelConfig(num_vars=250, d0=3, d1=2).input_dim == 3
    assert ModelConfig(num_vars=250, d0=3, d1=2).hidden_dim == 2


def test_config_rejects_unknown_mode():
    for mode in ("Literal", "variables", ""):
        with pytest.raises(ValueError, match="mode"):
            ModelConfig(num_vars=4, mode=mode)


def test_num_nodes_by_mode():
    assert ModelConfig(num_vars=7).num_nodes == 14
    assert ModelConfig(num_vars=7, mode="variable").num_nodes == 7


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
            ModelConfig(num_vars=10, seed=4, d0=4, d1=3),
            "fffdc89823ee2944a5f8d6554bf641626bcd9dcc7dd00105842695b8d5b47e06",
        ),
        (
            ModelConfig(
                num_vars=7, seed=2, mode="variable", use_transformer=False
            ),
            "bd38fd9e2910efbe5edbd0c920c69e34aa9b526cdb9076a7bdf1393c7b2035b8",
        ),
    ],
    ids=["literal", "variable"],
)
def test_init_params_are_views_of_one_vector(config, digest):
    # the digests were recorded from per-parameter arrays, before the
    # parameters moved into one vector: same draws, same bytes
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
    out = conv_layer(s, l, r, "relu")
    expected = np.maximum(dense @ l.value @ r.value, 0.0)
    assert np.allclose(out.value, expected)
    assert out.value[0, 0] == pytest.approx(0.25 * 2.0 * 3.0)


def test_conv_layer_identity_activation():
    inst = make_instance(2, [((1, -2), 1)])
    s = normalized_operator(build_literal_hypergraph(inst))
    l = ad.Tensor(-np.ones((4, 2)))
    r = ad.Tensor(np.ones((2, 1)))
    out = conv_layer(s, l, r, "identity")
    assert np.any(out.value < 0)
    with pytest.raises(ValueError):
        conv_layer(s, l, r, "tanh")


def test_forward_output_shapes_and_range():
    inst, s, config, params = rand_setup(n=10, m=35, seed=4)
    y, ft = infer(s, params, config)
    assert y.shape == (10,)
    assert np.all(y > 0) and np.all(y < 1)
    assert ft.logits.shape == (20, 1)
    assert ft.penult_pos.shape == ft.penult_neg.shape == (10, config.hidden_dim)


def test_pair_softmax_head_complementary():
    # P(x) comes from a 2-way softmax of (logit_x, logit_notx):
    # y_i = sigmoid(logit_i - logit_{n+i})
    inst, s, config, params = rand_setup(n=6, m=20, seed=5)
    y, ft = infer(s, params, config)
    diffs = ft.logits.value[:6, 0] - ft.logits.value[6:, 0]
    assert np.allclose(y, 1.0 / (1.0 + np.exp(-diffs)))


def test_variable_mode_sigmoid_head():
    inst, s, config, params = rand_setup(
        n=6, m=20, seed=5, mode="variable", use_transformer=False
    )
    y, ft = infer(s, params, config)
    assert y.shape == (6,)
    assert np.allclose(y, 1.0 / (1.0 + np.exp(-ft.logits.value[:, 0])))
    assert ft.penult_pos is None and ft.penult_neg is None


def test_transformer_ablation_changes_output():
    # width >= 2 so LayerNorm is not degenerate
    inst, s, config, params = rand_setup(n=8, m=28, seed=6, d0=4, d1=3)
    plain_config = ModelConfig(
        num_vars=8, seed=6, use_transformer=False, d0=4, d1=3
    )
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
    inst, s, config, params = rand_setup(n=8, m=28, seed=8, d0=4, d1=3)
    base = build_forward(s, params, config, training=False).y.value
    masks = dropout_masks(config, derive_key(8, 0xD0, 1))
    dropped = build_forward(
        s, params, config, training=True, dropout=masks
    ).y.value
    assert not np.array_equal(base, dropped)
    # masks outside training are ignored
    again = build_forward(s, params, config, dropout=masks).y.value
    assert np.array_equal(base, again)


def test_training_attention_requires_dropout_masks():
    inst, s, config, params = rand_setup(n=8, m=28, seed=8, d0=4, d1=3)
    with pytest.raises(ValueError, match="dropout masks"):
        build_forward(s, params, config, training=True)
    # a model without attention has nothing to drop
    plain = ModelConfig(num_vars=8, seed=8, use_transformer=False)
    build_forward(s, init_params(plain)[1], plain, training=True)


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
