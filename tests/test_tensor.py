import math
import weakref

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cct.tensor import (
    AutodiffError,
    ConfigError,
    ShapeError,
    Tensor,
    backward,
    conv2d,
    cross_entropy,
    gelu,
    gradients,
    layernorm,
    linear,
    matmul,
    maxpool2d,
    no_grad,
    relu,
    softmax_rows,
    tape,
    transpose,
)

from oracles import naive_conv2d, naive_maxpool2d, naive_softmax_rows


def t64(data, requires_grad=False):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=requires_grad)


def ones_seeded(y, leaves):
    """The gradients of sum(y) for `leaves`: one sweep seeded with ones."""
    return gradients(y, np.ones_like(y.data), leaves)


def xent_grad_of(z, labels):
    """d(mean cross entropy)/d(logits z): (softmax - one-hot) / batch."""
    onehot = np.zeros_like(z)
    onehot[np.arange(len(z)), labels] = 1.0
    return (naive_softmax_rows(z) - onehot) / len(z)


# ---------------------------------------------------------------------------
# matmul
# ---------------------------------------------------------------------------

def test_matmul_identity():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    y = matmul(a, Tensor(np.eye(2, dtype=np.float32)))
    npt.assert_array_equal(y.data, a.data)


def test_matmul_hand_case():
    # [[1,2],[3,4]] @ [[5,6],[7,8]] = [[1*5+2*7, 1*6+2*8], [3*5+4*7, 3*6+4*8]]
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = Tensor([[5.0, 6.0], [7.0, 8.0]])
    npt.assert_array_equal(matmul(a, b).data, [[19.0, 22.0], [43.0, 50.0]])


def test_matmul_shape_error_names_both_shapes():
    a = Tensor(np.zeros((2, 3)))
    b = Tensor(np.zeros((4, 5)))
    with pytest.raises(ShapeError) as e:
        matmul(a, b)
    assert "(2, 3)" in str(e.value) and "(4, 5)" in str(e.value)


def test_matmul_batched_broadcast():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(4, 2, 3, 5))
    b = rng.normal(size=(5, 6))
    y = matmul(t64(a), t64(b))
    npt.assert_allclose(y.data, a @ b, rtol=1e-12)


def test_matmul_grad_matches_central_differences():
    # independent finite-difference oracle, 64-bit
    rng = np.random.default_rng(7)
    a0 = rng.normal(size=(3, 4))
    b0 = rng.normal(size=(4, 2))

    a = t64(a0, requires_grad=True)
    b = t64(b0, requires_grad=True)
    da, db = ones_seeded(matmul(a, b), (a, b))

    h = 1e-6
    for arr, grad in ((a0, da), (b0, db)):
        num = np.zeros_like(arr)
        for idx in np.ndindex(arr.shape):
            p = arr.copy()
            p[idx] += h
            m = arr.copy()
            m[idx] -= h
            num[idx] = ((p @ b0 if arr is a0 else a0 @ p).sum()
                        - (m @ b0 if arr is a0 else a0 @ m).sum()) / (2 * h)
        npt.assert_allclose(grad, num, rtol=1e-6, atol=1e-9)


def test_matmul_grad_broadcast_mixing_matrix():
    # (L,L) @ (B,L,d): grads must collapse the broadcast batch axis
    rng = np.random.default_rng(3)
    wa = t64(rng.normal(size=(3, 3)), requires_grad=True)
    x = t64(rng.normal(size=(2, 3, 4)), requires_grad=True)
    dwa, dx = ones_seeded(matmul(wa, x), (wa, x))
    # d sum(Wa x) / d Wa = sum_b g x_b^T with g all-ones
    g = np.ones((2, 3, 4))
    npt.assert_allclose(dwa, (g @ x.data.transpose(0, 2, 1)).sum(axis=0), rtol=1e-12)
    npt.assert_allclose(dx, np.broadcast_to(wa.data.T @ g, x.data.shape), rtol=1e-12)


# ---------------------------------------------------------------------------
# conv2d
# ---------------------------------------------------------------------------

def test_conv2d_delta_kernel_is_identity():
    rng = np.random.default_rng(1)
    x = Tensor(rng.normal(size=(2, 1, 5, 5)).astype(np.float32))
    w = np.zeros((1, 1, 3, 3), dtype=np.float32)
    w[0, 0, 1, 1] = 1.0  # centered delta
    y = conv2d(x, Tensor(w), Tensor(np.zeros(1, dtype=np.float32)), stride=1, pad=1)
    npt.assert_allclose(y.data, x.data, atol=1e-7)


def test_conv2d_ones_kernel_interior():
    c = 0.75
    x = Tensor(np.full((1, 1, 6, 6), c, dtype=np.float32))
    w = Tensor(np.ones((1, 1, 3, 3), dtype=np.float32))
    y = conv2d(x, w, Tensor(np.zeros(1, dtype=np.float32)), stride=1, pad=1)
    # interior pixel: full 3x3 window of the constant image
    npt.assert_allclose(y.data[0, 0, 2, 2], 9 * c, rtol=1e-6)


def test_conv2d_zero_weights_bias_broadcast():
    beta = np.array([0.5, -1.25], dtype=np.float32)
    x = Tensor(np.random.default_rng(0).normal(size=(2, 3, 4, 4)).astype(np.float32))
    w = Tensor(np.zeros((2, 3, 3, 3), dtype=np.float32))
    y = conv2d(x, w, Tensor(beta), stride=1, pad=1)
    npt.assert_array_equal(y.data, np.broadcast_to(beta[None, :, None, None], y.shape))


def test_conv2d_non_integer_output_rejected():
    x = Tensor(np.zeros((1, 1, 5, 5)))
    w = Tensor(np.zeros((1, 1, 2, 2)))
    with pytest.raises(ConfigError):
        conv2d(x, w, Tensor(np.zeros(1)), stride=2, pad=0)


@pytest.mark.parametrize("shape,k,stride,pad", [
    ((2, 3, 8, 8), 3, 1, 1),
    ((1, 2, 7, 9), 3, 2, 1),
    ((3, 1, 6, 6), 2, 2, 0),
    ((2, 4, 5, 5), 5, 1, 2),
])
def test_conv2d_matches_naive_reference(shape, k, stride, pad):
    rng = np.random.default_rng(hash((shape, k, stride, pad)) % 2**32)
    B, C, H, W = shape
    cout = 3
    x = rng.normal(size=shape)
    w = rng.normal(size=(cout, C, k, k))
    b = rng.normal(size=cout)
    y = conv2d(t64(x), t64(w), t64(b), stride=stride, pad=pad)
    npt.assert_allclose(y.data, naive_conv2d(x, w, b, stride, pad), rtol=1e-10, atol=1e-5)


def test_conv2d_backward_bias_and_weight():
    rng = np.random.default_rng(5)
    x = t64(rng.normal(size=(2, 2, 4, 4)), requires_grad=True)
    w = t64(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
    b = t64(rng.normal(size=3), requires_grad=True)
    dx, dw, db = ones_seeded(conv2d(x, w, b, stride=1, pad=1), (x, w, b))
    # bias gradient: one contribution per output pixel
    npt.assert_allclose(db, np.full(3, 2 * 4 * 4), rtol=1e-12)
    assert dx.shape == x.shape and dw.shape == w.shape
    assert np.all(np.isfinite(dx)) and np.all(np.isfinite(dw))


# ---------------------------------------------------------------------------
# maxpool2d
# ---------------------------------------------------------------------------

def test_maxpool_constant_image():
    x = Tensor(np.full((1, 2, 8, 8), 3.5, dtype=np.float32))
    y = maxpool2d(x, k=3, stride=2, pad=1)
    npt.assert_array_equal(y.data, np.full((1, 2, 4, 4), 3.5, dtype=np.float32))


def test_maxpool_shape_32_to_16():
    x = Tensor(np.zeros((2, 3, 32, 32), dtype=np.float32))
    assert maxpool2d(x, k=3, stride=2, pad=1).shape == (2, 3, 16, 16)


def test_maxpool_gradient_routes_to_argmax():
    x0 = np.zeros((1, 1, 4, 4))
    x0[0, 0, 1, 2] = 100.0  # dominates every window containing it
    x = t64(x0, requires_grad=True)
    dx, = ones_seeded(maxpool2d(x, k=2, stride=2, pad=0), (x,))
    # window (0, 1) covers rows 0:2, cols 2:4; its gradient lands on (1,2) only
    assert dx[0, 0, 1, 2] == 1.0
    assert dx[0, 0, 0, 2] == 0.0 and dx[0, 0, 0, 3] == 0.0 and dx[0, 0, 1, 3] == 0.0


def test_maxpool_tie_break_first_in_window():
    x0 = np.ones((1, 1, 2, 2))
    x = t64(x0, requires_grad=True)
    dx, = ones_seeded(maxpool2d(x, k=2, stride=2, pad=0), (x,))
    expect = np.zeros((1, 1, 2, 2))
    expect[0, 0, 0, 0] = 1.0  # first element in row-major window order
    npt.assert_array_equal(dx, expect)


@pytest.mark.parametrize("shape,k,stride,pad", [
    ((2, 2, 8, 8), 3, 2, 1),
    ((1, 3, 7, 7), 2, 2, 0),
    ((2, 1, 6, 9), 3, 3, 1),
])
def test_maxpool_matches_naive_reference(shape, k, stride, pad):
    rng = np.random.default_rng(11)
    x = rng.normal(size=shape)
    y = maxpool2d(t64(x), k=k, stride=stride, pad=pad)
    ref, _ = naive_maxpool2d(x, k, stride, pad)
    npt.assert_allclose(y.data, ref, rtol=1e-12)


def test_maxpool_all_padding_window_rejected():
    with pytest.raises(ConfigError):
        maxpool2d(Tensor(np.zeros((1, 1, 4, 4))), k=2, stride=2, pad=2)


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------

def test_relu_values():
    y = relu(Tensor([-1.0, 0.0, 2.0]))
    npt.assert_array_equal(y.data, [0.0, 0.0, 2.0])


def test_gelu_zero_and_phi_one():
    npt.assert_allclose(gelu(t64([0.0])).data, [0.0], atol=0)
    # gelu(1) = 1 * Phi(1), Phi(1) = 0.8413447460685429
    npt.assert_allclose(gelu(t64([1.0])).data, [0.8413447460685429], rtol=1e-9)


def test_relu_subgradient_zero_at_zero():
    x = t64([-1.0, 0.0, 2.0], requires_grad=True)
    dx, = ones_seeded(relu(x), (x,))
    npt.assert_array_equal(dx, [0.0, 0.0, 1.0])


# ---------------------------------------------------------------------------
# softmax
# ---------------------------------------------------------------------------

def test_softmax_symmetric_pair():
    npt.assert_allclose(softmax_rows(t64([0.0, 0.0])).data, [0.5, 0.5], rtol=1e-12)


def test_softmax_log_weights():
    x = t64([math.log(1), math.log(2), math.log(3)])
    npt.assert_allclose(softmax_rows(x).data, [1 / 6, 2 / 6, 3 / 6], rtol=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-50, 50), min_size=1, max_size=8),
       st.floats(-100, 100))
def test_softmax_shift_invariance(row, c):
    x = np.asarray(row, dtype=np.float64)
    a = softmax_rows(t64(x)).data
    b = softmax_rows(t64(x + c)).data
    npt.assert_allclose(a, b, atol=1e-6)


def test_softmax_rows_sum_to_one_and_stable():
    rng = np.random.default_rng(2)
    x = Tensor((rng.normal(size=(4, 5, 9)) * 1e4).astype(np.float32))
    s = softmax_rows(x, scale=0.3)
    assert np.all(np.isfinite(s.data))
    assert np.all(s.data >= 0) and np.all(s.data <= 1)
    npt.assert_allclose(s.data.sum(axis=-1), 1.0, atol=1e-6)


def test_softmax_scale_matches_oracle():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(3, 6))
    npt.assert_allclose(softmax_rows(t64(x), scale=0.5).data,
                        naive_softmax_rows(x, 0.5), rtol=1e-12)


# ---------------------------------------------------------------------------
# layernorm
# ---------------------------------------------------------------------------

def test_layernorm_constant_row_is_zero():
    x = Tensor(np.full((2, 4), 3.0, dtype=np.float32))
    y = layernorm(x, Tensor(np.ones(4, dtype=np.float32)), Tensor(np.zeros(4, dtype=np.float32)), eps=1e-5)
    npt.assert_allclose(y.data, 0.0, atol=1e-6)


def test_layernorm_unit_pair():
    # row [1,-1]: mean 0, var 1 -> unchanged as eps -> 0
    y = layernorm(t64([[1.0, -1.0]]), t64(np.ones(2)), t64(np.zeros(2)), eps=1e-12)
    npt.assert_allclose(y.data, [[1.0, -1.0]], rtol=1e-9)


def test_layernorm_affine_invariance():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(3, 5))
    g = t64(rng.normal(size=5))
    b = t64(rng.normal(size=5))
    y1 = layernorm(t64(x), g, b, eps=1e-12)
    y2 = layernorm(t64(2.5 * x + 7.0), g, b, eps=1e-12)
    npt.assert_allclose(y1.data, y2.data, atol=1e-8)


# ---------------------------------------------------------------------------
# linear
# ---------------------------------------------------------------------------

def test_linear_identity_weights():
    x = Tensor(np.random.default_rng(0).normal(size=(2, 3, 4)).astype(np.float32))
    y = linear(x, Tensor(np.eye(4, dtype=np.float32)))
    npt.assert_array_equal(y.data, x.data)


def test_linear_zero_weights_bias():
    beta = np.array([1.0, 2.0, 3.0], dtype=np.float32)
    x = Tensor(np.ones((4, 2), dtype=np.float32))
    y = linear(x, Tensor(np.zeros((2, 3), dtype=np.float32)), Tensor(beta))
    npt.assert_array_equal(y.data, np.broadcast_to(beta, (4, 3)))


def test_linear_agrees_with_matmul_op():
    x = t64([[1.0, 2.0]])
    w = t64([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    npt.assert_array_equal(linear(x, w).data, matmul(x, w).data)


# ---------------------------------------------------------------------------
# cross entropy
# ---------------------------------------------------------------------------

def test_cross_entropy_uniform_logits():
    logits = t64(np.zeros((4, 100)))
    labels = np.array([0, 17, 50, 99])
    loss = cross_entropy(logits, labels)
    npt.assert_allclose(loss.data, math.log(100), rtol=1e-12)


def test_cross_entropy_saturated():
    logits = np.zeros((1, 10))
    logits[0, 3] = 40.0
    loss = cross_entropy(t64(logits), np.array([3]))
    assert float(loss.data) < 1e-9


def test_cross_entropy_two_class_hand_case():
    # softmax([0, ln 3]) = [1/4, 3/4]; -ln(3/4) = ln(4/3)
    loss = cross_entropy(t64([[0.0, math.log(3)]]), np.array([1]))
    npt.assert_allclose(loss.data, math.log(4 / 3), rtol=1e-12)


def test_cross_entropy_label_out_of_range():
    with pytest.raises(IndexError):
        cross_entropy(Tensor(np.zeros((2, 5))), np.array([0, 5]))
    with pytest.raises(IndexError):
        cross_entropy(Tensor(np.zeros((2, 5))), np.array([-1, 0]))


def test_cross_entropy_gradient_is_softmax_minus_onehot():
    rng = np.random.default_rng(8)
    z = rng.normal(size=(3, 5))
    labels = np.array([1, 4, 0])
    logits = t64(z, requires_grad=True)
    backward(cross_entropy(logits, labels))
    soft = naive_softmax_rows(z)
    onehot = np.zeros_like(z)
    onehot[np.arange(3), labels] = 1.0
    npt.assert_allclose(logits.grad, (soft - onehot) / 3, rtol=1e-10)


# ---------------------------------------------------------------------------
# backward / tape
# ---------------------------------------------------------------------------

def _linear_xent(seed=0):
    """A leaf x through linear and cross_entropy: (x, w, labels)."""
    r = np.random.default_rng(seed)
    x, w = t64(r.normal(size=(3, 4)), True), t64(r.normal(size=(4, 5)), True)
    return x, w, np.array([1, 4, 0])


def test_backward_sum_of_squares():
    # x @ x^T of a row vector is its sum of squares, a (1, 1) loss
    x = t64([[1.0, -2.0, 3.0]], requires_grad=True)
    backward(matmul(x, transpose(x, (1, 0))))
    npt.assert_allclose(x.grad, 2 * x.data, rtol=1e-12)


def test_backward_accumulates_across_calls():
    # two graphs of one expression: each sweep adds its gradients to .grad
    x, w, labels = _linear_xent()
    backward(cross_entropy(linear(x, w), labels))
    once = x.grad.copy()
    backward(cross_entropy(linear(x, w), labels))
    npt.assert_allclose(once, xent_grad_of(x.data @ w.data, labels) @ w.data.T, rtol=1e-12)
    assert x.grad.tobytes() == (once + once).tobytes()


def test_a_second_sweep_of_a_graph_raises_and_keeps_the_first_gradients():
    x, w, labels = _linear_xent()
    loss = cross_entropy(relu(linear(x, w)), labels)
    backward(loss)
    once = x.grad.copy(), w.grad.copy()
    with pytest.raises(AutodiffError, match="swept once"):
        backward(loss)
    with pytest.raises(AutodiffError, match="swept once"):
        gradients(loss, np.ones_like(loss.data), (x, w))
    assert (x.grad.tobytes(), w.grad.tobytes()) == tuple(g.tobytes() for g in once)


def test_a_root_built_on_a_swept_output_raises():
    x, w, labels = _linear_xent()
    h = linear(x, w)
    backward(cross_entropy(relu(h), labels))
    once = x.grad.copy()
    with pytest.raises(AutodiffError, match="swept once"):
        backward(cross_entropy(h, labels))
    assert x.grad.tobytes() == once.tobytes()


def test_a_sweep_frees_what_an_op_kept_once_its_rule_has_run():
    # softmax's rule and the matmul reading its output both keep its array;
    # by the time the sweep runs the rule of the matmul below, both are gone
    r = np.random.default_rng(3)
    x, w, v = (t64(r.normal(size=shape), True) for shape in ((3, 4), (4, 5), (5, 2)))
    s = matmul(x, w)
    rule, alive = s._rule, []

    def wrapped(g):
        alive.append(probs() is not None)
        return rule(g)

    s._rule = wrapped
    p = softmax_rows(s)
    probs = weakref.ref(p.data)
    loss = cross_entropy(matmul(p, v), np.array([1, 0, 1]))
    del p
    assert probs() is not None
    backward(loss)
    assert alive == [False]
    assert np.isfinite(x.grad).all()


def test_backward_rejects_non_scalar():
    x, w, _ = _linear_xent()
    with pytest.raises(AutodiffError):
        backward(linear(x, w))


def test_diamond_graph_gradient():
    # loss(a + a): both parents of the add are one node, whose gradient is
    # the sum of the two branches
    z = t64(np.random.default_rng(1).normal(size=(3, 5)), requires_grad=True)
    labels = np.array([2, 0, 4])
    a = z.reshape(3, 5)
    backward(cross_entropy(a + a, labels))
    npt.assert_allclose(z.grad, 2 * xent_grad_of(2 * z.data, labels), rtol=1e-12)


def test_tape_is_topologically_ordered():
    x = t64([[1.0, 2.0]], requires_grad=True)
    w = t64([[1.0, -1.0, 0.5], [1.0, 2.0, -3.0]], requires_grad=True)
    y = cross_entropy(relu(matmul(x, w)), np.array([1]))
    order = tape(y)
    assert isinstance(order, list)
    assert [t._op for t in order] == ["matmul", "relu", "cross_entropy"]
    ids = [t.node_id for t in order]
    seen = set()
    for t in order:
        assert all(p.node_id in seen or p.node_id not in ids for p in t._parents)
        seen.add(t.node_id)
    assert len(set(ids)) == len(ids)


def test_backward_reads_rule_at_replay_time():
    # a rule swapped in after the op returned is the one backward calls
    x = t64([[1.0, -2.0, 3.0]], requires_grad=True)
    y = relu(x)
    rule, calls = y._rule, []

    def wrapped(g):
        calls.append(g.shape)
        return rule(g)

    y._rule = wrapped
    backward(cross_entropy(y, np.array([2])))
    assert calls == [(1, 3)]
    want = xent_grad_of(np.maximum(x.data, 0), [2]) * (x.data > 0)
    npt.assert_allclose(x.grad, want, rtol=1e-12)


def test_a_rule_wrapped_on_an_interior_output_runs_from_a_later_root():
    # as a tracer wraps each op's rule as it returns; the caller then drops
    # the output and backward starts from a root built on top of it
    x, w, labels = _linear_xent(2)
    h = linear(x, w)
    hd = h.data.copy()
    rule, calls = h._rule, []

    def wrapped(g):
        calls.append(g.shape)
        return rule(g)

    h._rule = wrapped
    root = cross_entropy(relu(h), labels)
    del h
    backward(root)
    assert calls == [(3, 5)]
    gh = xent_grad_of(np.maximum(hd, 0), labels) * (hd > 0)
    npt.assert_allclose(x.grad, gh @ w.data.T, rtol=1e-12)


def test_no_grad_blocks_recording():
    x = t64([[1.0, 2.0]], requires_grad=True)
    with no_grad():
        y = cross_entropy(x, np.array([0]))
    assert not y.requires_grad
    with pytest.raises(AutodiffError):
        backward(y)


def test_forward_determinism_bitwise():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(4, 6)).astype(np.float32)
    w = rng.normal(size=(6, 6)).astype(np.float32)
    a = matmul(Tensor(x), Tensor(w)).data
    b = matmul(Tensor(x), Tensor(w)).data
    assert a.tobytes() == b.tobytes()
    c = softmax_rows(Tensor(x)).data
    d = softmax_rows(Tensor(x)).data
    assert c.tobytes() == d.tobytes()


def test_finite_outputs_from_finite_inputs():
    rng = np.random.default_rng(10)
    x = Tensor((rng.normal(size=(3, 7)) * 1e3).astype(np.float32))
    for y in (softmax_rows(x),
              layernorm(x, Tensor(np.ones(7, dtype=np.float32)),
                        Tensor(np.zeros(7, dtype=np.float32)), eps=1e-5),
              gelu(x), relu(x)):
        assert np.all(np.isfinite(y.data))
