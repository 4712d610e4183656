"""The fast kernels against their straightforward formulas.

gelu, softmax_rows, layernorm, maxpool2d and linear work in place on as few
buffers as they can. They must still give the same bytes, forward and
backward, as the plain formulas in oracles.py, and their backward rules must
leave the upstream gradient and every array the forward kept untouched.
Every rule reads only what its op bound when it ran, so it gives the same
bytes after the output and the parents have dropped their data. A layernorm
or GELU output that feeds linear or matmul is rebuilt by that consumer's
rule, to the same bytes.
"""
import re
from pathlib import Path

import numpy as np
import pytest

from cct import tensor
from cct.tensor import (Tensor, add, conv2d, cross_entropy, gelu, layernorm,
                        linear, map_chunks, matmul, maxpool2d, no_grad, relu,
                        reshape, softmax_rows, transpose)

from oracles import (ref_add, ref_conv2d, ref_gelu, ref_layernorm, ref_linear,
                     ref_matmul, ref_maxpool2d, ref_relu, ref_softmax_rows)


def f32(rng, *shape):
    return rng.standard_normal(shape).astype(np.float32)


def transposed(rng, *shape):
    """A float32 array of `shape` whose last two axes are a swapped view."""
    a = f32(rng, *shape[:-2], shape[-1], shape[-2])
    return np.swapaxes(a, -1, -2)


def _case(name, rng):
    """(fast op on Tensors, reference on arrays, float32 inputs)."""
    if name == "gelu":
        return gelu, ref_gelu, [f32(rng, 4, 64, 128)]
    if name == "softmax_scale1":
        return softmax_rows, ref_softmax_rows, [f32(rng, 2, 2, 64, 256) * 3]
    if name == "softmax_scale0.125":
        return ((lambda x: softmax_rows(x, scale=0.125)),
                (lambda x: ref_softmax_rows(x, scale=0.125)),
                [f32(rng, 2, 2, 64, 256) * 3])
    if name == "layernorm":
        return ((lambda x, g, b: layernorm(x, g, b, eps=1e-5)),
                (lambda x, g, b: ref_layernorm(x, g, b, eps=1e-5)),
                [f32(rng, 4, 64, 256) * 2 + 0.5, f32(rng, 256), f32(rng, 256)])
    if name == "maxpool_post_relu":
        # half the inputs are 0 after relu, so many windows tie at 0
        x = np.maximum(f32(rng, 4, 8, 16, 16), np.float32(0))
        return ((lambda x: maxpool2d(x, k=3, stride=2, pad=1)),
                (lambda x: ref_maxpool2d(x, k=3, stride=2, pad=1)), [x])
    if name == "linear_bias":
        return linear, ref_linear, [f32(rng, 4, 64, 96), f32(rng, 96, 80), f32(rng, 80)]
    if name == "linear_nobias":
        return linear, ref_linear, [f32(rng, 4, 64, 96), f32(rng, 96, 80)]
    if name == "linear_view_input":
        return linear, ref_linear, [transposed(rng, 4, 64, 96), f32(rng, 96, 80)]
    raise KeyError(name)


CASES = ["gelu", "softmax_scale1", "softmax_scale0.125", "layernorm",
         "maxpool_post_relu", "linear_bias", "linear_nobias", "linear_view_input"]


def _run(name, seed, g_layout):
    rng = np.random.default_rng(seed)
    fast, ref, arrays = _case(name, rng)
    out = fast(*[Tensor(a, requires_grad=True) for a in arrays])
    want, want_rule = ref(*arrays)
    g = f32(rng, *out.shape) if g_layout == "contiguous" else transposed(rng, *out.shape)
    return out, want, want_rule, g


@pytest.mark.parametrize("g_layout", ["contiguous", "transposed"])
@pytest.mark.parametrize("name", CASES)
def test_forward_and_rule_are_bit_identical_to_reference(name, g_layout):
    out, want, want_rule, g = _run(name, 0, g_layout)
    assert out.data.dtype == want.dtype == np.float32
    assert out.data.shape == want.shape
    assert out.data.tobytes() == want.tobytes()
    got, expected = out._rule(g), want_rule(g)
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


@pytest.mark.parametrize("name", CASES)
def test_rule_writes_neither_g_nor_what_the_forward_kept(name):
    out, _, _, g = _run(name, 1, "contiguous")
    g_before, out_before = g.tobytes(), out.data.tobytes()
    first = [a.tobytes() for a in out._rule(g)]
    second = [a.tobytes() for a in out._rule(g)]
    assert first == second
    assert g.tobytes() == g_before
    assert out.data.tobytes() == out_before


def test_maxpool_under_no_grad_records_nothing_and_gives_same_bytes():
    rng = np.random.default_rng(2)
    x = np.maximum(f32(rng, 2, 4, 16, 16), np.float32(0))
    with no_grad():
        out = maxpool2d(Tensor(x, requires_grad=True), k=3, stride=2, pad=1)
    assert out._rule is None and out._op is None and not out.requires_grad
    assert out.data.tobytes() == ref_maxpool2d(x, 3, 2, 1)[0].tobytes()


def test_maxpool_skips_nan_and_routes_grad_to_first_max():
    x = np.array([[[[np.nan, 1.0, 1.0],
                    [-np.inf, 2.0, 2.0],
                    [np.nan, np.nan, np.nan]]]], dtype=np.float32)
    out = maxpool2d(Tensor(x, requires_grad=True), k=3, stride=1)
    want, want_rule = ref_maxpool2d(x, 3, 1, 0)
    assert out.data.tobytes() == want.tobytes()
    g = np.ones_like(out.data)
    assert out._rule(g)[0].tobytes() == want_rule(g)[0].tobytes()
    # a window whose max is -inf keeps slot 0 for the gradient, as before
    y = np.array([[[[np.nan, -np.inf], [np.nan, -np.inf]]]], dtype=np.float32)
    out = maxpool2d(Tensor(y, requires_grad=True), k=2, stride=1)
    want, want_rule = ref_maxpool2d(y, 2, 1, 0)
    g = np.ones_like(out.data)
    assert out.data.tobytes() == want.tobytes()
    assert out._rule(g)[0].tobytes() == want_rule(g)[0].tobytes()


# ---------------------------------------------------------------------------
# every kernel at several leading dims, float32 and float64
# ---------------------------------------------------------------------------

def _arr(rng, dtype, *shape):
    return rng.standard_normal(shape).astype(dtype)


def _dim_case(name, rng, n, dt):
    """(fast op, reference, inputs) with leading dim n."""
    if name == "gelu":
        return gelu, ref_gelu, [_arr(rng, dt, n, 16, 24)]
    if name.startswith("softmax"):
        scale = float(name.split("_")[1])
        return ((lambda x: softmax_rows(x, scale=scale)),
                (lambda x: ref_softmax_rows(x, scale=scale)),
                [_arr(rng, dt, n, 2, 8, 16) * 3])
    if name == "layernorm":
        return ((lambda x, g, b: layernorm(x, g, b, eps=1e-5)),
                (lambda x, g, b: ref_layernorm(x, g, b, eps=1e-5)),
                [_arr(rng, dt, n, 8, 32) * 2 + 0.5, _arr(rng, dt, 32), _arr(rng, dt, 32)])
    if name == "maxpool2d":
        x = np.maximum(_arr(rng, dt, n, 4, 8, 8), 0)
        return ((lambda x: maxpool2d(x, k=3, stride=2, pad=1)),
                (lambda x: ref_maxpool2d(x, 3, 2, 1)), [x])
    if name == "relu":
        return relu, ref_relu, [_arr(rng, dt, n, 4, 8, 8)]
    if name == "add":
        return add, ref_add, [_arr(rng, dt, n, 8, 16), _arr(rng, dt, n, 8, 16)]
    if name == "linear":
        return linear, ref_linear, [_arr(rng, dt, n, 8, 24), _arr(rng, dt, 24, 20),
                                    _arr(rng, dt, 20)]
    if name == "matmul_stacked":
        return matmul, ref_matmul, [_arr(rng, dt, n, 2, 8, 12), _arr(rng, dt, n, 2, 12, 10)]
    if name == "matmul_shared_lhs":  # the W_A token mix
        return matmul, ref_matmul, [_arr(rng, dt, 16, 16), _arr(rng, dt, n, 16, 12)]
    if name == "conv2d":
        return ((lambda x, w, b: conv2d(x, w, b, stride=1, pad=1)),
                (lambda x, w, b: ref_conv2d(x, w, b, 1, 1)),
                [_arr(rng, dt, n, 3, 8, 8), _arr(rng, dt, 6, 3, 3, 3), _arr(rng, dt, 6)])
    raise KeyError(name)


DIM_CASES = ["gelu", "softmax_1.0", "softmax_0.125", "layernorm", "maxpool2d",
             "relu", "add", "linear", "matmul_stacked", "matmul_shared_lhs", "conv2d"]


@pytest.mark.parametrize("g_layout", ["contiguous", "transposed"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n", [1, 3, 8, 32])
@pytest.mark.parametrize("name", DIM_CASES)
def test_kernel_matches_reference(name, n, dtype, g_layout):
    rng = np.random.default_rng(n)
    fast, ref, arrays = _dim_case(name, rng, n, dtype)
    out = fast(*[Tensor(a, requires_grad=True) for a in arrays])
    g = _arr(rng, dtype, *out.shape)
    if g_layout == "transposed":
        g = np.swapaxes(np.ascontiguousarray(np.swapaxes(g, -1, -2)), -1, -2)
    want, want_rule = ref(*arrays)
    assert out.data.dtype == want.dtype == dtype and out.shape == want.shape
    assert out.data.tobytes() == want.tobytes()
    got, expected = out._rule(g), want_rule(g)
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


@pytest.mark.parametrize("name", ["softmax_rows", "layernorm"])
def test_one_dim_row_kernel_matches_reference(name):
    rng = np.random.default_rng(5)
    x, gamma, beta, g = (_arr(rng, np.float32, 64) for _ in range(4))
    if name == "softmax_rows":
        out, (want, want_rule) = softmax_rows(Tensor(x, requires_grad=True)), ref_softmax_rows(x)
    else:
        out = layernorm(*(Tensor(a, requires_grad=True) for a in (x, gamma, beta)))
        want, want_rule = ref_layernorm(x, gamma, beta, eps=1e-5)
    assert out.data.tobytes() == want.tobytes()
    assert [a.tobytes() for a in out._rule(g)] == [a.tobytes() for a in want_rule(g)]


# ---------------------------------------------------------------------------
# a rule reads only what its op bound at forward time
# ---------------------------------------------------------------------------

def _release_case(name, rng):
    """(op on Tensors, float32 inputs) for each op that records a rule."""
    a = f32(rng, 3, 4, 5)
    image = f32(rng, 2, 3, 8, 8)
    return {
        "add": (add, [a, f32(rng, 5)]),
        "reshape": (lambda x: reshape(x, (12, 5)), [a]),
        "transpose": (lambda x: transpose(x, (2, 0, 1)), [a]),
        "matmul": (matmul, [f32(rng, 4, 4), a[:, :, :4]]),
        "linear": (linear, [a, f32(rng, 5, 6), f32(rng, 6)]),
        "linear_nobias": (linear, [a, f32(rng, 5, 6)]),
        "relu": (relu, [a]),
        "gelu": (gelu, [a]),
        "softmax_rows": (lambda x: softmax_rows(x, scale=0.5), [a]),
        "layernorm": (layernorm, [a, f32(rng, 5), f32(rng, 5)]),
        "conv2d": ((lambda x, w, b: conv2d(x, w, b, stride=1, pad=1)),
                   [image, f32(rng, 6, 3, 3, 3), f32(rng, 6)]),
        "maxpool2d": ((lambda x: maxpool2d(x, k=3, stride=2, pad=1)), [image]),
        "cross_entropy": ((lambda z: cross_entropy(z, np.array([0, 3, 1]))),
                          [f32(rng, 3, 5)]),
        "chunks": ((lambda x, w: map_chunks(lambda xc: gelu(linear(xc, w)),
                                            x, [w], work=1)),
                   [f32(rng, 6, 5), f32(rng, 5, 4)]),
    }[name]


RELEASE_CASES = ["add", "reshape", "transpose", "matmul", "linear",
                 "linear_nobias", "relu", "gelu", "softmax_rows", "layernorm",
                 "conv2d", "maxpool2d", "cross_entropy", "chunks"]


def test_release_cases_cover_every_op_that_records():
    recorded = set(re.findall(r'_record\("(\w+)"', Path(tensor.__file__).read_text()))
    covered = set()
    rng = np.random.default_rng(0)
    for name in RELEASE_CASES:
        op, arrays = _release_case(name, rng)
        covered.add(op(*[Tensor(x, requires_grad=True) for x in arrays])._op)
    assert covered == recorded


@pytest.mark.parametrize("name", RELEASE_CASES)
def test_rule_gives_the_same_bytes_after_its_tensors_drop_their_data(name):
    """Against a control built from the same arrays, as the chunks op's rule
    runs once."""
    rng = np.random.default_rng(6)
    op, arrays = _release_case(name, rng)

    def built():
        return op(*[Tensor(x, requires_grad=True) for x in arrays])

    out = built()
    g = f32(rng, *out.shape)

    def run_rule(out):
        return [None if d is None else (d.shape, np.ascontiguousarray(d).tobytes())
                for d in out._rule(g)]

    before = run_rule(built())
    for t in (out, *out._parents):
        t.data = None
    assert run_rule(out) == before


# ---------------------------------------------------------------------------
# a consumer rebuilds a layernorm or GELU output instead of keeping it
# ---------------------------------------------------------------------------

def _recompute_case(name, rng):
    """(producer, its float32 inputs, consumer of (producer output, w), w)."""
    a = f32(rng, 3, 4, 5)
    ln = (layernorm, [a, f32(rng, 5), f32(rng, 5)])
    return {
        "layernorm_linear": (*ln, lambda h, w: linear(h, w), f32(rng, 5, 6)),
        "gelu_linear": (gelu, [a], lambda h, w: linear(h, w), f32(rng, 5, 6)),
        "layernorm_matmul": (*ln, lambda h, w: matmul(w, h), f32(rng, 4, 4)),
        "layernorm_matmul_rhs": (*ln, lambda h, w: matmul(h, w), f32(rng, 5, 2)),
        "gelu_matmul": (gelu, [a], lambda h, w: matmul(w, h), f32(rng, 4, 4)),
    }[name]


RECOMPUTE_CASES = ["layernorm_linear", "gelu_linear", "layernorm_matmul",
                   "layernorm_matmul_rhs", "gelu_matmul"]


@pytest.mark.parametrize("name", RECOMPUTE_CASES)
def test_a_consumer_rule_rebuilds_its_operand_to_the_same_bytes(name):
    """The consumer's rule gives the bytes it gives over a leaf holding the
    producer's output, before and after every tensor drops its data."""
    rng = np.random.default_rng(7)
    producer, arrays, consumer, w = _recompute_case(name, rng)
    leaves = [Tensor(x, requires_grad=True) for x in arrays]
    h = producer(*leaves)
    assert h._remake().tobytes() == h.data.tobytes()
    out = consumer(h, Tensor(w, requires_grad=True))
    plain = consumer(Tensor(h.data.copy(), requires_grad=True), Tensor(w, requires_grad=True))
    assert out.data.tobytes() == plain.data.tobytes()
    g = f32(rng, *out.shape)

    def run_rule(t):
        return [(d.shape, np.ascontiguousarray(d).tobytes()) for d in t._rule(g)]

    want = run_rule(plain)
    assert run_rule(out) == want
    for t in (out, *out._parents, *leaves):
        t.data = None
    assert run_rule(out) == want


def test_no_grad_records_no_rebuild():
    rng = np.random.default_rng(8)
    x = Tensor(f32(rng, 3, 5), requires_grad=True)
    with no_grad():
        outs = [gelu(x), layernorm(x, Tensor(f32(rng, 5), requires_grad=True),
                                   Tensor(f32(rng, 5), requires_grad=True))]
    assert [(t._rule, t._remake) for t in outs] == [(None, None)] * 2


@pytest.mark.parametrize("n", [1, 3])
def test_conv2d_returns_a_c_contiguous_nchw_array(n):
    rng = np.random.default_rng(n)
    arrays = [f32(rng, n, 3, 8, 8), f32(rng, 6, 3, 3, 3), f32(rng, 6)]
    out = conv2d(*[Tensor(a, requires_grad=True) for a in arrays], stride=1, pad=1)
    want, want_rule = ref_conv2d(*arrays, 1, 1)
    assert out.data.flags.c_contiguous
    assert out.data.tobytes() == want.tobytes()
    g = f32(rng, *out.shape)
    assert [a.tobytes() for a in out._rule(g)] == [a.tobytes() for a in want_rule(g)]


@pytest.mark.parametrize("n", [1, 3])
def test_conv2d_computes_no_input_gradient_for_an_input_that_needs_none(n):
    """An image batch (requires_grad=False) gets dx None; dw and db are the
    oracle's bytes."""
    rng = np.random.default_rng(10 + n)
    arrays = [f32(rng, n, 3, 8, 8), f32(rng, 6, 3, 3, 3), f32(rng, 6)]
    x = Tensor(arrays[0])
    out = conv2d(x, *[Tensor(a, requires_grad=True) for a in arrays[1:]], stride=1, pad=1)
    _, want_rule = ref_conv2d(*arrays, 1, 1)
    g = f32(rng, *out.shape)
    dx, dw, db = out._rule(g)
    _, want_dw, want_db = want_rule(g)
    assert dx is None
    assert (dw.tobytes(), db.tobytes()) == (want_dw.tobytes(), want_db.tobytes())


def test_maxpool_with_more_window_slots_than_a_byte_holds():
    """k=17 has 289 slots: the argmax keeps every one of them apart."""
    rng = np.random.default_rng(9)
    x = f32(rng, 2, 3, 20, 20)
    out = maxpool2d(Tensor(x, requires_grad=True), k=17, stride=1)
    want, want_rule = ref_maxpool2d(x, 17, 1, 0)
    assert out.data.tobytes() == want.tobytes()
    g = f32(rng, *out.shape)
    assert out._rule(g)[0].tobytes() == want_rule(g)[0].tobytes()
