import numpy as np
import numpy.testing as npt
import pytest

from cct.attention import (
    AttentionConfig,
    AttentionParams,
    attention_flops,
    attention_forward,
    attention_param_count,
    attention_scores,
    attention_shapes,
)
from cct.gradcheck import grad_check
from cct.model import init_tensors
from cct.tensor import ConfigError, ShapeError, Tensor

from oracles import naive_sdpa, naive_super_attention


def t64(a):
    return Tensor(np.asarray(a, dtype=np.float64))


def init_attention(cfg, rng):
    return AttentionParams(**init_tensors(attention_shapes(cfg), rng))


def rand_params(cfg, seed, dtype=np.float64):
    rng = np.random.default_rng(seed)
    d, el = cfg.d_model, cfg.ctx_len
    mk = lambda *s: Tensor(rng.normal(size=s, scale=0.5).astype(dtype))
    p = AttentionParams(w_q=mk(d, d), w_k=mk(d, d), w_o=mk(d, d))
    if cfg.kind == "sdpa":
        p.w_v = mk(d, d)
    else:
        p.w_a = mk(el, el)
    return p


def identity_params(cfg, dtype=np.float64):
    d, el = cfg.d_model, cfg.ctx_len
    eye = lambda n: Tensor(np.eye(n, dtype=dtype))
    p = AttentionParams(w_q=eye(d), w_k=eye(d), w_o=eye(d))
    if cfg.kind == "sdpa":
        p.w_v = eye(d)
    else:
        p.w_a = eye(el)
    return p


# ---------------------------------------------------------------------------
# config / params
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ConfigError):
        AttentionConfig(kind="flash", d_model=8, n_heads=2, ctx_len=4)
    with pytest.raises(ConfigError):
        AttentionConfig(kind="sdpa", d_model=6, n_heads=4, ctx_len=4)
    with pytest.raises(ConfigError):
        AttentionConfig(kind="sdpa", d_model=8, n_heads=2, ctx_len=0)


def test_init_shapes_and_identity_mixing():
    cfg = AttentionConfig(kind="super", d_model=8, n_heads=2, ctx_len=5)
    p = init_attention(cfg, np.random.default_rng(0))
    assert p.w_v is None and p.w_a is not None
    npt.assert_array_equal(p.w_a.data, np.eye(5, dtype=np.float32))
    for t in (p.w_q, p.w_k, p.w_o):
        assert t.shape == (8, 8) and t.requires_grad

    cfg2 = AttentionConfig(kind="sdpa", d_model=8, n_heads=2, ctx_len=5)
    p2 = init_attention(cfg2, np.random.default_rng(0))
    assert p2.w_a is None and p2.w_v is not None


def test_init_deterministic():
    cfg = AttentionConfig(kind="sdpa", d_model=8, n_heads=2, ctx_len=4)
    a = init_attention(cfg, np.random.default_rng(3))
    b = init_attention(cfg, np.random.default_rng(3))
    npt.assert_array_equal(a.w_q.data, b.w_q.data)
    npt.assert_array_equal(a.w_o.data, b.w_o.data)


# ---------------------------------------------------------------------------
# attention_forward, sdpa
# ---------------------------------------------------------------------------

def test_sdpa_single_token_identity_weights():
    cfg = AttentionConfig(kind="sdpa", d_model=4, n_heads=1, ctx_len=1)
    x = t64(np.random.default_rng(0).normal(size=(2, 1, 4)))
    y = attention_forward(x, identity_params(cfg), cfg)
    npt.assert_allclose(y.data, x.data, rtol=1e-12)


def test_sdpa_identical_tokens_identical_rows():
    cfg = AttentionConfig(kind="sdpa", d_model=6, n_heads=2, ctx_len=3)
    row = np.random.default_rng(1).normal(size=6)
    x = t64(np.tile(row, (1, 3, 1)))
    y = attention_forward(x, rand_params(cfg, 2), cfg)
    npt.assert_allclose(y.data[0, 0], y.data[0, 1], rtol=1e-12)
    npt.assert_allclose(y.data[0, 0], y.data[0, 2], rtol=1e-12)


def test_sdpa_matches_bruteforce_oracle():
    cfg = AttentionConfig(kind="sdpa", d_model=2, n_heads=1, ctx_len=2)
    rng = np.random.default_rng(4)
    x = rng.normal(size=(1, 2, 2))
    p = rand_params(cfg, 5)
    got = attention_forward(t64(x), p, cfg)
    want = naive_sdpa(x, p.w_q.data, p.w_k.data, p.w_v.data, p.w_o.data, n_heads=1)
    npt.assert_allclose(got.data, want, rtol=1e-10)


@pytest.mark.parametrize("d,h,el", [(8, 2, 4), (6, 3, 5), (12, 4, 7)])
def test_sdpa_matches_oracle_multihead(d, h, el):
    cfg = AttentionConfig(kind="sdpa", d_model=d, n_heads=h, ctx_len=el)
    rng = np.random.default_rng(d * 100 + el)
    x = rng.normal(size=(3, el, d))
    p = rand_params(cfg, d + el)
    got = attention_forward(t64(x), p, cfg)
    want = naive_sdpa(x, p.w_q.data, p.w_k.data, p.w_v.data, p.w_o.data, n_heads=h)
    npt.assert_allclose(got.data, want, rtol=1e-9, atol=1e-12)


def test_sdpa_rejects_wrong_dims():
    cfg = AttentionConfig(kind="sdpa", d_model=8, n_heads=2, ctx_len=4)
    p = rand_params(cfg, 0)
    with pytest.raises(ShapeError):
        attention_forward(t64(np.zeros((1, 5, 8))), p, cfg)
    with pytest.raises(ShapeError):
        attention_forward(t64(np.zeros((1, 4, 6))), p, cfg)


# ---------------------------------------------------------------------------
# attention_forward, super
# ---------------------------------------------------------------------------

def test_super_matches_oracle():
    cfg = AttentionConfig(kind="super", d_model=8, n_heads=2, ctx_len=5)
    rng = np.random.default_rng(7)
    x = rng.normal(size=(2, 5, 8))
    p = rand_params(cfg, 8)
    got = attention_forward(t64(x), p, cfg)
    want = naive_super_attention(x, p.w_q.data, p.w_k.data, p.w_a.data,
                                 p.w_o.data, n_heads=2)
    npt.assert_allclose(got.data, want, rtol=1e-9, atol=1e-12)


def test_super_identity_mixing_equals_sdpa_identity_values():
    # W_A = I on one side, W_V = I on the other, shared q/k/o
    rng = np.random.default_rng(9)
    scfg = AttentionConfig(kind="super", d_model=16, n_heads=4, ctx_len=6)
    dcfg = AttentionConfig(kind="sdpa", d_model=16, n_heads=4, ctx_len=6)
    sp = rand_params(scfg, 10)
    sp.w_a = t64(np.eye(6))
    dp = AttentionParams(w_q=sp.w_q, w_k=sp.w_k, w_o=sp.w_o, w_v=t64(np.eye(16)))
    x = t64(rng.normal(size=(2, 6, 16)))
    npt.assert_allclose(attention_forward(x, sp, scfg).data,
                        attention_forward(x, dp, dcfg).data, atol=1e-6)


def test_super_mean_mixing_all_rows_identical():
    # W_A = ones/l makes every value row the token mean; attention rows
    # sum to 1, so every output row is that mean through w_o
    cfg = AttentionConfig(kind="super", d_model=8, n_heads=2, ctx_len=4)
    p = rand_params(cfg, 11)
    p.w_a = t64(np.full((4, 4), 0.25))
    x = t64(np.random.default_rng(12).normal(size=(2, 4, 8)))
    y = attention_forward(x, p, cfg).data
    for i in range(1, 4):
        npt.assert_allclose(y[:, i], y[:, 0], atol=1e-6)


def test_super_single_token_identity():
    cfg = AttentionConfig(kind="super", d_model=4, n_heads=1, ctx_len=1)
    x = t64(np.random.default_rng(13).normal(size=(3, 1, 4)))
    y = attention_forward(x, identity_params(cfg), cfg)
    npt.assert_allclose(y.data, x.data, rtol=1e-12)


def test_super_rejects_other_context_length():
    cfg = AttentionConfig(kind="super", d_model=8, n_heads=2, ctx_len=4)
    p = rand_params(cfg, 0)
    with pytest.raises(ShapeError):
        attention_forward(t64(np.zeros((1, 6, 8))), p, cfg)
    p.w_a = t64(np.eye(6))  # a W_A for another context length
    with pytest.raises(ShapeError, match="w_a"):
        attention_forward(t64(np.zeros((1, 4, 8))), p, cfg)


def test_forwards_reject_missing_weights():
    cfg = AttentionConfig(kind="super", d_model=8, n_heads=2, ctx_len=4)
    p = rand_params(cfg, 0)
    p.w_a = None
    with pytest.raises(ConfigError):
        attention_forward(t64(np.zeros((1, 4, 8))), p, cfg)
    dcfg = AttentionConfig(kind="sdpa", d_model=8, n_heads=2, ctx_len=4)
    dp = rand_params(dcfg, 0)
    dp.w_v = None
    with pytest.raises(ConfigError):
        attention_forward(t64(np.zeros((1, 4, 8))), dp, dcfg)


# ---------------------------------------------------------------------------
# permutation behaviour
# ---------------------------------------------------------------------------

def test_sdpa_is_permutation_equivariant():
    cfg = AttentionConfig(kind="sdpa", d_model=8, n_heads=2, ctx_len=6)
    rng = np.random.default_rng(20)
    x = rng.normal(size=(2, 6, 8))
    p = rand_params(cfg, 21)
    perm = rng.permutation(6)
    y = attention_forward(t64(x), p, cfg).data
    y_p = attention_forward(t64(x[:, perm, :]), p, cfg).data
    npt.assert_allclose(y_p, y[:, perm, :], atol=1e-5)


def test_super_conjugation_identity():
    # super(Px; W_A) == P super(x; P^T W_A P)
    cfg = AttentionConfig(kind="super", d_model=8, n_heads=2, ctx_len=6)
    rng = np.random.default_rng(22)
    x = rng.normal(size=(2, 6, 8))
    p = rand_params(cfg, 23)
    perm = rng.permutation(6)
    pmat = np.eye(6)[perm]  # (Px)[i] = x[perm[i]]

    left = attention_forward(t64(x[:, perm, :]), p, cfg).data

    conj = AttentionParams(w_q=p.w_q, w_k=p.w_k, w_o=p.w_o,
                           w_a=t64(pmat.T @ p.w_a.data @ pmat))
    right = attention_forward(t64(x), conj, cfg).data[:, perm, :]
    npt.assert_allclose(left, right, atol=1e-5)


def test_super_nonidentity_mixing_breaks_equivariance():
    cfg = AttentionConfig(kind="super", d_model=8, n_heads=2, ctx_len=6)
    rng = np.random.default_rng(24)
    x = rng.normal(size=(1, 6, 8))
    p = rand_params(cfg, 25)  # generic non-identity W_A
    perm = np.roll(np.arange(6), 1)
    y = attention_forward(t64(x), p, cfg).data
    y_p = attention_forward(t64(x[:, perm, :]), p, cfg).data
    assert np.abs(y_p - y[:, perm, :]).max() > 1e-3


# ---------------------------------------------------------------------------
# scores
# ---------------------------------------------------------------------------

def test_scores_single_token_is_one():
    cfg = AttentionConfig(kind="sdpa", d_model=4, n_heads=2, ctx_len=1)
    s = attention_scores(t64(np.random.default_rng(0).normal(size=(2, 1, 4))),
                         rand_params(cfg, 1), cfg)
    npt.assert_array_equal(s.data, np.ones((2, 2, 1, 1)))


def test_scores_zero_q_uniform():
    cfg = AttentionConfig(kind="sdpa", d_model=4, n_heads=2, ctx_len=5)
    p = rand_params(cfg, 2)
    p.w_q = t64(np.zeros((4, 4)))
    s = attention_scores(t64(np.random.default_rng(3).normal(size=(1, 5, 4))), p, cfg)
    npt.assert_allclose(s.data, 0.2, rtol=1e-12)


def test_scores_rows_sum_to_one():
    cfg = AttentionConfig(kind="super", d_model=8, n_heads=4, ctx_len=7)
    s = attention_scores(t64(np.random.default_rng(4).normal(size=(3, 7, 8))),
                         rand_params(cfg, 5), cfg)
    assert s.shape == (3, 4, 7, 7)
    npt.assert_allclose(s.data.sum(axis=-1), 1.0, atol=1e-6)


# ---------------------------------------------------------------------------
# accounting
# ---------------------------------------------------------------------------

def test_param_count_small_cases():
    assert attention_param_count(
        AttentionConfig(kind="sdpa", d_model=4, n_heads=1, ctx_len=2)) == 64
    assert attention_param_count(
        AttentionConfig(kind="super", d_model=4, n_heads=1, ctx_len=2)) == 52


def test_param_count_ratio_half_k():
    sdpa = attention_param_count(
        AttentionConfig(kind="sdpa", d_model=512, n_heads=8, ctx_len=256))
    sup = attention_param_count(
        AttentionConfig(kind="super", d_model=512, n_heads=8, ctx_len=256))
    assert sdpa == 1048576 and sup == 851968
    assert sup / sdpa == 0.8125


def test_param_count_matches_allocation():
    rng = np.random.default_rng(6)
    for _ in range(20):
        h = int(rng.integers(1, 5))
        d = h * int(rng.integers(1, 9))
        cfg = AttentionConfig(kind=rng.choice(["sdpa", "super"]), d_model=d,
                              n_heads=h, ctx_len=int(rng.integers(1, 17)))
        p = init_attention(cfg, rng)
        allocated = sum(t.size for t in vars(p).values() if t is not None)
        assert attention_param_count(cfg) == allocated, cfg


def test_flops_value_projection_vs_mixing():
    cfg_s = AttentionConfig(kind="sdpa", d_model=512, n_heads=8, ctx_len=256)
    cfg_u = AttentionConfig(kind="super", d_model=512, n_heads=8, ctx_len=256)
    fs, fu = attention_flops(cfg_s), attention_flops(cfg_u)
    assert fs.stages["v_proj"] == 134_217_728
    assert fu.stages["token_mix"] == 67_108_864
    assert fu.total < fs.total


def test_flops_equal_at_d_equals_ctx():
    a = attention_flops(AttentionConfig(kind="sdpa", d_model=64, n_heads=4, ctx_len=64))
    b = attention_flops(AttentionConfig(kind="super", d_model=64, n_heads=4, ctx_len=64))
    assert a.total == b.total


def test_flops_super_loses_when_ctx_exceeds_d():
    a = attention_flops(AttentionConfig(kind="sdpa", d_model=128, n_heads=4, ctx_len=1024))
    b = attention_flops(AttentionConfig(kind="super", d_model=128, n_heads=4, ctx_len=1024))
    assert b.total > a.total


def test_flops_crossover_grid():
    dims = [32, 64, 128, 256, 512, 1024]
    for d in dims:
        for el in dims:
            s = attention_flops(AttentionConfig(kind="sdpa", d_model=d, n_heads=1, ctx_len=el))
            u = attention_flops(AttentionConfig(kind="super", d_model=d, n_heads=1, ctx_len=el))
            assert (u.total < s.total) == (el < d), (d, el)


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

def test_sdpa_gradcheck_all_inputs():
    cfg = AttentionConfig(kind="sdpa", d_model=6, n_heads=2, ctx_len=3)
    rng = np.random.default_rng(30)
    x = t64(rng.normal(size=(2, 3, 6)))
    p = rand_params(cfg, 31)
    fn = lambda x_, q, k, v, o: attention_forward(
        x_, AttentionParams(w_q=q, w_k=k, w_o=o, w_v=v), cfg)
    res = grad_check(fn, [x, p.w_q, p.w_k, p.w_v, p.w_o], tol=1e-4)
    assert res.ok, res


def test_super_gradcheck_all_inputs():
    cfg = AttentionConfig(kind="super", d_model=6, n_heads=2, ctx_len=3)
    rng = np.random.default_rng(32)
    x = t64(rng.normal(size=(2, 3, 6)))
    p = rand_params(cfg, 33)
    fn = lambda x_, q, k, a, o: attention_forward(
        x_, AttentionParams(w_q=q, w_k=k, w_o=o, w_a=a), cfg)
    res = grad_check(fn, [x, p.w_q, p.w_k, p.w_a, p.w_o], tol=1e-4)
    assert res.ok, res
