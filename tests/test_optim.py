import numpy as np
import numpy.testing as npt
import pytest

from cct.model import ModelConfig, init_params
from cct.optim import AdamWHyperParams, AdamWState, adamw_step, init_adamw_state
from cct.tensor import ConfigError, ShapeError, Tensor


class Params:
    """Minimal params stand-in: name -> Tensor with .items()."""

    def __init__(self, **named):
        self._named = {k: Tensor(np.asarray(v, dtype=np.float64), requires_grad=True)
                       for k, v in named.items()}

    def items(self):
        return self._named.items()

    def __getitem__(self, k):
        return self._named[k]


def test_zero_grad_zero_decay_is_fixed_point():
    p = Params(w=[1.0, -2.0, 3.0])
    state = init_adamw_state(p)
    hp = AdamWHyperParams(weight_decay=0.0)
    adamw_step(p, {"w": np.zeros(3)}, state, hp)
    npt.assert_array_equal(p["w"].data, [1.0, -2.0, 3.0])


def test_pure_decay_hand_value():
    # theta=1, g=0: moments stay zero, only decoupled decay acts
    p = Params(w=[1.0])
    state = init_adamw_state(p)
    adamw_step(p, {"w": np.zeros(1)}, state, AdamWHyperParams())
    # theta' = 1 - lr * wd = 1 - 0.0001
    npt.assert_allclose(p["w"].data, [0.9999], rtol=0, atol=1e-15)


def test_first_step_unit_gradient():
    # theta=0, g=1, wd=0: mhat = vhat = 1, step = -lr / (1 + eps)
    p = Params(w=[0.0])
    state = init_adamw_state(p)
    adamw_step(p, {"w": np.ones(1)}, state, AdamWHyperParams(weight_decay=0.0))
    npt.assert_allclose(p["w"].data, [-0.01 / (1.0 + 1e-8)], rtol=1e-12)
    assert abs(p["w"].data[0] + 0.01) < 1e-9


def test_identical_histories_identical_updates():
    p = Params(a=np.linspace(-1, 1, 6), b=np.linspace(-1, 1, 6))
    state = init_adamw_state(p)
    hp = AdamWHyperParams()
    rng = np.random.default_rng(0)
    for _ in range(5):
        g = rng.normal(size=6)
        adamw_step(p, {"a": g, "b": g}, state, hp)
    assert p["a"].data.tobytes() == p["b"].data.tobytes()
    assert state.t == 5


def test_quadratic_converges():
    # f(theta) = ||theta||^2, grad = 2 theta
    p = Params(w=np.ones(8))
    state = init_adamw_state(p)
    hp = AdamWHyperParams()
    for _ in range(200):
        adamw_step(p, {"w": 2.0 * p["w"].data}, state, hp)
    assert np.sum(p["w"].data ** 2) < 1e-2  # objective after 200 steps
    for _ in range(50):
        adamw_step(p, {"w": 2.0 * p["w"].data}, state, hp)
    assert np.linalg.norm(p["w"].data) < 1e-2


def test_second_moment_stays_nonnegative():
    p = Params(w=np.zeros(16))
    state = init_adamw_state(p)
    hp = AdamWHyperParams()
    rng = np.random.default_rng(1)
    for _ in range(20):
        adamw_step(p, {"w": rng.normal(size=16) * 10}, state, hp)
    assert np.all(state.v["w"] >= 0)


def test_bitwise_reproducible():
    def run():
        p = Params(w=np.linspace(-2, 2, 10))
        state = init_adamw_state(p)
        hp = AdamWHyperParams()
        rng = np.random.default_rng(2)
        for _ in range(10):
            adamw_step(p, {"w": rng.normal(size=10)}, state, hp)
        return p["w"].data.tobytes()

    assert run() == run()


def test_missing_grad_and_shape_mismatch():
    p = Params(w=np.ones(3))
    state = init_adamw_state(p)
    hp = AdamWHyperParams()
    with pytest.raises(ConfigError):
        adamw_step(p, {}, state, hp)
    with pytest.raises(ShapeError):
        adamw_step(p, {"w": np.ones(4)}, state, hp)
    stale = AdamWState(t=0, m={"w": np.ones(2)}, v={"w": np.ones(2)})
    with pytest.raises(ShapeError):
        adamw_step(p, {"w": np.ones(3)}, stale, hp)


def test_weight_decay_reaches_norms_and_biases():
    cfg = ModelConfig(attn_kind="super", d_model=8, n_layers=1, n_heads=2, seed=0)
    params = init_params(cfg, seed=0)
    for _, t in params.items():  # zero-initialised biases could not show a decay
        if not t.data.any():
            t.data = np.full(t.shape, 0.5, dtype=np.float32)
    state = init_adamw_state(params)
    hp = AdamWHyperParams()
    grads = {name: np.zeros(t.shape, dtype=np.float32) for name, t in params.items()}
    before = {name: t.data.copy() for name, t in params.items()}
    adamw_step(params, grads, state, hp)
    # zero gradient: every tensor, norm gains and biases included, only decays
    for name, t in params.items():
        expected = before[name] - hp.lr * hp.weight_decay * before[name]
        npt.assert_array_equal(t.data, expected, err_msg=name)
        assert not np.array_equal(t.data, before[name]), name


def test_state_mirrors_parameter_set():
    cfg = ModelConfig(attn_kind="sdpa", d_model=8, n_layers=2, n_heads=2, seed=0)
    params = init_params(cfg, seed=1)
    state = init_adamw_state(params)
    assert set(state.m) == set(params.names()) == set(state.v)
    for name, t in params.items():
        assert state.m[name].shape == t.shape
        assert state.v[name].shape == t.shape
    assert state.t == 0
