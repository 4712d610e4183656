import itertools

import numpy as np
import numpy.testing as npt
import pytest

from cct.attention import attention_param_count
from cct.model import (
    ModelConfig,
    encoder_block,
    forward,
    forward_tokens,
    init_params,
    model_param_count,
    param_shapes,
    seq_pool,
    tokenize,
)
from cct.tensor import ConfigError, ShapeError, Tensor, backward, cross_entropy

from oracles import naive_gelu, naive_layernorm, naive_sdpa


def small_cfg(**kw):
    base = dict(attn_kind="super", d_model=8, n_layers=2, n_heads=2, seed=0)
    base.update(kw)
    return ModelConfig(**base)


def t64(a):
    return Tensor(np.asarray(a, dtype=np.float64))


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------

def test_default_ctx_len_is_256():
    assert ModelConfig().ctx_len == 256
    assert small_cfg().ctx_len == 256


def test_config_rejects_bad_combinations():
    with pytest.raises(ConfigError):
        small_cfg(d_model=9)  # not divisible by heads
    with pytest.raises(ConfigError):
        small_cfg(img_size=15)  # not divisible by stride
    with pytest.raises(ConfigError):
        small_cfg(attn_kind="flash")


@pytest.mark.parametrize("seed", [-1, -2**40])
def test_config_rejects_a_negative_seed(seed):
    with pytest.raises(ConfigError, match=rf"^seed must be >= 0, got {seed}$"):
        small_cfg(seed=seed)


# ---------------------------------------------------------------------------
# tokenize
# ---------------------------------------------------------------------------

def test_tokenize_shape():
    cfg = small_cfg()
    params = init_params(cfg, seed=0)
    imgs = Tensor(np.random.default_rng(0).normal(size=(2, 3, 32, 32)).astype(np.float32))
    assert tokenize(imgs, params, cfg).shape == (2, 256, 8)


def test_tokenize_smaller_image():
    cfg = small_cfg(img_size=16)
    assert cfg.ctx_len == 64
    params = init_params(cfg, seed=0)
    imgs = Tensor(np.zeros((1, 3, 16, 16), dtype=np.float32))
    assert tokenize(imgs, params, cfg).shape == (1, 64, 8)


def test_tokenize_zero_weights_bias_relu():
    cfg = small_cfg()
    params = init_params(cfg, seed=0)
    beta = np.linspace(-1, 1, 8).astype(np.float32)
    params["tokenizer.conv0.w"].data[:] = 0.0
    params["tokenizer.conv0.b"].data[:] = beta
    imgs = Tensor(np.random.default_rng(1).normal(size=(2, 3, 32, 32)).astype(np.float32))
    tokens = tokenize(imgs, params, cfg)
    want = np.broadcast_to(np.maximum(beta, 0.0), (2, 256, 8))
    npt.assert_array_equal(tokens.data, want)


def test_tokenize_rejects_wrong_shape():
    cfg = small_cfg()
    params = init_params(cfg, seed=0)
    with pytest.raises(ShapeError):
        tokenize(Tensor(np.zeros((1, 3, 28, 28), dtype=np.float32)), params, cfg)


def test_tokenize_flatten_is_row_major():
    # put a spike at pooled grid position (row 2, col 5); the token index
    # must be 2 * 16 + 5
    cfg = small_cfg(d_model=4, n_layers=1, n_heads=1)
    params = init_params(cfg, seed=0)
    params["tokenizer.conv0.w"].data[:] = 0.0
    params["tokenizer.conv0.w"].data[0, 0, 1, 1] = 1.0  # channel 0 passes red through
    params["tokenizer.conv0.b"].data[:] = 0.0
    imgs = np.zeros((1, 3, 32, 32), dtype=np.float32)
    imgs[0, 0, 2 * 2, 5 * 2] = 7.0  # maps into pooled cell (2, 5)
    tokens = tokenize(Tensor(imgs), params, cfg)
    assert tokens.data[0, 2 * 16 + 5, 0] == 7.0
    assert np.count_nonzero(tokens.data) >= 1


# ---------------------------------------------------------------------------
# encoder block
# ---------------------------------------------------------------------------

def test_block_is_identity_with_zero_output_projections():
    cfg = small_cfg(img_size=8)  # ctx 16, fast
    params = init_params(cfg, seed=0)
    params["layer0.attn.w_o"].data[:] = 0.0
    params["layer0.mlp.w2"].data[:] = 0.0
    x = Tensor(np.random.default_rng(2).normal(size=(2, 16, 8)).astype(np.float32))
    y = encoder_block(x, params, cfg, layer_idx=0)
    npt.assert_array_equal(y.data, x.data)


def test_block_preserves_shape():
    cfg = small_cfg(img_size=8, attn_kind="sdpa")
    params = init_params(cfg, seed=1)
    x = Tensor(np.random.default_rng(3).normal(size=(3, 16, 8)).astype(np.float32))
    assert encoder_block(x, params, cfg, 1).shape == (3, 16, 8)


def test_block_matches_composed_oracle():
    # 2 tokens, d=4, one head, sdpa: rebuild the block step by step with
    # the naive oracles in float64
    cfg = ModelConfig(attn_kind="sdpa", img_size=4, d_model=4, n_layers=1,
                      n_heads=1, seed=0)
    assert cfg.ctx_len == 4
    params = init_params(cfg, seed=5, dtype=np.float64)
    x = np.random.default_rng(6).normal(size=(1, 4, 4))

    got = encoder_block(t64(x), params, cfg, 0).data

    g = lambda n: params[n].data
    h = naive_layernorm(x[0], g("layer0.ln1.g"), g("layer0.ln1.b"), 1e-5)
    a = naive_sdpa(h[None], g("layer0.attn.w_q"), g("layer0.attn.w_k"),
                   g("layer0.attn.w_v"), g("layer0.attn.w_o"), n_heads=1)[0]
    y = x[0] + a
    h2 = naive_layernorm(y, g("layer0.ln2.g"), g("layer0.ln2.b"), 1e-5)
    m = naive_gelu(h2 @ g("layer0.mlp.w1") + g("layer0.mlp.b1")) @ g("layer0.mlp.w2") \
        + g("layer0.mlp.b2")
    want = y + m
    npt.assert_allclose(got[0], want, rtol=1e-9, atol=1e-12)


# ---------------------------------------------------------------------------
# seq_pool
# ---------------------------------------------------------------------------

def test_seq_pool_zero_query_is_mean():
    x = t64(np.random.default_rng(7).normal(size=(2, 5, 4)))
    out = seq_pool(x, t64(np.zeros(4)))
    npt.assert_allclose(out.data, x.data.mean(axis=1), rtol=1e-12)


def test_seq_pool_identical_tokens():
    row = np.random.default_rng(8).normal(size=4)
    x = t64(np.tile(row, (3, 6, 1)))
    out = seq_pool(x, t64(np.random.default_rng(9).normal(size=4)))
    npt.assert_allclose(out.data, np.tile(row, (3, 1)), rtol=1e-9)


def test_seq_pool_saturation_picks_one_token():
    rng = np.random.default_rng(10)
    x = rng.normal(size=(1, 5, 4))
    graw = rng.normal(size=4)
    # lift token 3's score far above the rest
    x[0, 3] += 40.0 * graw / (graw @ graw)
    out = seq_pool(t64(x), t64(graw))
    npt.assert_allclose(out.data[0], x[0, 3], atol=1e-6)


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------

def test_forward_shape_and_determinism():
    cfg = small_cfg()
    params = init_params(cfg, seed=0)
    imgs = Tensor(np.random.default_rng(11).normal(size=(2, 3, 32, 32)).astype(np.float32))
    a = forward(imgs, params, cfg)
    b = forward(imgs, params, cfg)
    assert a.shape == (2, 100)
    assert a.data.tobytes() == b.data.tobytes()


def test_forward_init_reproducible():
    cfg = small_cfg()
    pa, pb = init_params(cfg, seed=4), init_params(cfg, seed=4)
    assert pa.names() == pb.names()
    for n in pa.names():
        npt.assert_array_equal(pa[n].data, pb[n].data)


def test_sdpa_model_logits_permutation_invariant():
    cfg = small_cfg(attn_kind="sdpa", img_size=8)  # ctx 16
    params = init_params(cfg, seed=2)
    rng = np.random.default_rng(12)
    tokens = rng.normal(size=(2, 16, 8)).astype(np.float32)
    perm = rng.permutation(16)
    base = forward_tokens(Tensor(tokens), params, cfg).data
    permuted = forward_tokens(Tensor(tokens[:, perm, :]), params, cfg).data
    npt.assert_allclose(permuted, base, atol=1e-5)


def test_super_model_not_invariant_with_nonidentity_mixing():
    cfg = small_cfg(attn_kind="super", img_size=8)
    params = init_params(cfg, seed=2)
    rng = np.random.default_rng(13)
    # push W_A away from the identity (as training would)
    for i in range(cfg.n_layers):
        params[f"layer{i}.attn.w_a"].data += \
            rng.normal(size=(16, 16)).astype(np.float32) * 0.3
    tokens = rng.normal(size=(1, 16, 8)).astype(np.float32)
    perm = np.roll(np.arange(16), 3)
    base = forward_tokens(Tensor(tokens), params, cfg).data
    permuted = forward_tokens(Tensor(tokens[:, perm, :]), params, cfg).data
    assert np.abs(permuted - base).max() > 1e-3


# ---------------------------------------------------------------------------
# parameter accounting
# ---------------------------------------------------------------------------

def test_param_count_components():
    cfg = small_cfg(d_model=16)
    counts = model_param_count(cfg)
    assert counts["tokenizer"] == 3 * 3 * 3 * 16 + 16
    assert counts["head"] == 16 * 100 + 100
    assert counts["per_layer_attention"] == attention_param_count(cfg.attn_config())
    assert counts["seqpool"] == 16
    # the desk config (d 256, 6 layers, ctx 256 at one conv block, 64 at two)
    shared = {"per_layer_mlp": 262912, "norms": 6656, "seqpool": 256, "head": 25700}
    one_block = {"tokenizer": 7168, "per_layer_attention": 262144, **shared,
                 "total": 3190116}
    for kind in ("super", "sdpa"):
        assert model_param_count(ModelConfig(attn_kind=kind)) == one_block, kind
    assert model_param_count(ModelConfig(attn_kind="super", conv_blocks=2)) == {
        "tokenizer": 597248, "per_layer_attention": 200704, **shared,
        "total": 3411556}
    assert model_param_count(ModelConfig(attn_kind="sdpa", conv_blocks=2)) == {
        "tokenizer": 597248, "per_layer_attention": 262144, **shared,
        "total": 3780196}


def test_param_count_matches_enumeration():
    """model_param_count, param_shapes and init_params agree: the names,
    their order and their shapes, and each layer's attention count matches
    attention_param_count's closed form."""
    rng = np.random.default_rng(14)
    for kind, conv_blocks, (d, h) in itertools.product(
            ("sdpa", "super"), (1, 2, 3), ((5, 1), (12, 3))):
        cfg = ModelConfig(
            attn_kind=kind,
            img_size=int(rng.choice([8, 16, 32])),
            d_model=d,
            n_layers=int(rng.integers(1, 4)),
            n_heads=h,
            mlp_ratio=int(rng.integers(1, 4)),
            n_classes=int(rng.integers(2, 101)),
            conv_blocks=conv_blocks,
            seed=0,
        )
        params = init_params(cfg, seed=1)
        counts = model_param_count(cfg)
        assert counts["total"] == params.n_scalars(), cfg
        assert counts["per_layer_attention"] == \
            attention_param_count(cfg.attn_config()), cfg
        assert [(n, params[n].shape) for n in params.names()] == \
            list(param_shapes(cfg).items()), cfg


def test_super_vs_sdpa_total_ordering_follows_ctx_vs_d():
    # ctx is 256 for 32x32 inputs; totals differ by n_layers * (ctx^2 - d^2)
    for d, expect in ((128, "more"), (256, "equal"), (512, "less")):
        sup = model_param_count(small_cfg(d_model=d, n_heads=4, attn_kind="super"))
        sdp = model_param_count(small_cfg(d_model=d, n_heads=4, attn_kind="sdpa"))
        if expect == "more":
            assert sup["total"] > sdp["total"]
        elif expect == "equal":
            assert sup["total"] == sdp["total"]
        else:
            assert sup["total"] < sdp["total"]


# ---------------------------------------------------------------------------
# init statistics
# ---------------------------------------------------------------------------

def test_init_mixing_matrix_is_exact_identity():
    cfg = small_cfg(attn_kind="super")
    params = init_params(cfg, seed=3)
    npt.assert_array_equal(params["layer0.attn.w_a"].data,
                           np.eye(256, dtype=np.float32))


def test_init_statistics_match_xavier_variance():
    cfg = small_cfg(d_model=128)
    params = init_params(cfg, seed=5)
    w = params["head.w"].data  # 128 x 100 = 12800 draws of U(-b, b)
    n = w.size
    bound = np.sqrt(6.0 / (128 + 100))
    var = bound ** 2 / 3.0
    # sample mean: sd = sqrt(var / n); sample variance: sd = b^2 sqrt(4/(45 n))
    assert abs(w.mean()) < 3 * np.sqrt(var / n)
    assert abs(w.var() - var) < 3 * bound ** 2 * np.sqrt(4.0 / (45.0 * n))


def test_forward_backward_all_grads_finite():
    cfg = small_cfg(img_size=8, attn_kind="super")
    params = init_params(cfg, seed=6)
    imgs = Tensor(np.random.default_rng(15).normal(size=(4, 3, 8, 8)).astype(np.float32))
    labels = np.array([1, 2, 3, 4])
    loss = cross_entropy(forward(imgs, params, cfg), labels)
    backward(loss)
    for name, t in params.items():
        assert t.grad is not None, name
        assert t.grad.shape == t.shape, name
        assert np.all(np.isfinite(t.grad)), name
