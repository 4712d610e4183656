"""Slow reference implementations used as independent oracles in tests.

Everything here is deliberately naive (explicit loops, no shared code with
the package) so that agreement with the fast kernels is meaningful. The one
exception, ref_train_step, builds a train step from the package's plain
per-chunk graphs, so that it shares no code with train_step's chunk pool.
"""

import math

import numpy as np

from cct.model import forward_tokens, tokenize
from cct.tensor import CHUNK, Tensor, cross_entropy, gradients, no_grad


def naive_conv2d(x, w, b, stride, pad):
    """6-loop cross-correlation. x (B,C,H,W), w (Cout,Cin,k,k), b (Cout,)."""
    B, C, H, W = x.shape
    Cout, Cin, kh, kw = w.shape
    assert C == Cin
    Ho = (H + 2 * pad - kh) // stride + 1
    Wo = (W + 2 * pad - kw) // stride + 1
    xp = np.zeros((B, C, H + 2 * pad, W + 2 * pad), dtype=np.float64)
    xp[:, :, pad:pad + H, pad:pad + W] = x
    y = np.zeros((B, Cout, Ho, Wo), dtype=np.float64)
    for n in range(B):
        for co in range(Cout):
            for i in range(Ho):
                for j in range(Wo):
                    acc = 0.0
                    for ci in range(C):
                        for u in range(kh):
                            for v in range(kw):
                                acc += xp[n, ci, i * stride + u, j * stride + v] * w[co, ci, u, v]
                    y[n, co, i, j] = acc + b[co]
    return y


def naive_maxpool2d(x, k, stride, pad):
    """Loop maxpool with -inf padding; also returns argmax coords per window."""
    B, C, H, W = x.shape
    Ho = (H + 2 * pad - k) // stride + 1
    Wo = (W + 2 * pad - k) // stride + 1
    xp = np.full((B, C, H + 2 * pad, W + 2 * pad), -np.inf, dtype=np.float64)
    xp[:, :, pad:pad + H, pad:pad + W] = x
    y = np.zeros((B, C, Ho, Wo), dtype=np.float64)
    arg = np.zeros((B, C, Ho, Wo, 2), dtype=np.int64)
    for n in range(B):
        for c in range(C):
            for i in range(Ho):
                for j in range(Wo):
                    best = -np.inf
                    bu = bv = 0
                    for u in range(k):
                        for v in range(k):
                            val = xp[n, c, i * stride + u, j * stride + v]
                            if val > best:  # strict: first occurrence wins ties
                                best = val
                                bu, bv = u, v
                    y[n, c, i, j] = best
                    arg[n, c, i, j] = (i * stride + bu - pad, j * stride + bv - pad)
    return y, arg


def naive_softmax_rows(x, scale=1.0):
    z = scale * np.asarray(x, dtype=np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def naive_layernorm(x, gamma, beta, eps):
    x = np.asarray(x, dtype=np.float64)
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * gamma + beta


def naive_gelu(x):
    phi = np.vectorize(lambda t: 0.5 * (1.0 + math.erf(t / math.sqrt(2.0))))
    return x * phi(np.asarray(x, dtype=np.float64))


def naive_sdpa(x, w_q, w_k, w_v, w_o, n_heads):
    """Step-by-step multi-head attention on one batch element at a time."""
    x = np.asarray(x, dtype=np.float64)
    B, L, d = x.shape
    dh = d // n_heads
    out = np.zeros_like(x)
    for n in range(B):
        q = x[n] @ w_q
        k = x[n] @ w_k
        v = x[n] @ w_v
        heads = []
        for h in range(n_heads):
            sl = slice(h * dh, (h + 1) * dh)
            scores = naive_softmax_rows(q[:, sl] @ k[:, sl].T / math.sqrt(dh))
            heads.append(scores @ v[:, sl])
        out[n] = np.concatenate(heads, axis=-1) @ w_o
    return out


def naive_super_attention(x, w_q, w_k, w_a, w_o, n_heads):
    """Like naive_sdpa but values come from mixing tokens with w_a (L x L)."""
    x = np.asarray(x, dtype=np.float64)
    B, L, d = x.shape
    dh = d // n_heads
    out = np.zeros_like(x)
    for n in range(B):
        q = x[n] @ w_q
        k = x[n] @ w_k
        v = w_a @ x[n]
        heads = []
        for h in range(n_heads):
            sl = slice(h * dh, (h + 1) * dh)
            scores = naive_softmax_rows(q[:, sl] @ k[:, sl].T / math.sqrt(dh))
            heads.append(scores @ v[:, sl])
        out[n] = np.concatenate(heads, axis=-1) @ w_o
    return out


# ---------------------------------------------------------------------------
# Vectorized references: the straightforward formulas the fast kernels in
# cct.tensor must reproduce bit for bit (same float operations, same order).
# Each returns (forward output, backward rule); a rule maps the upstream
# gradient to the tuple of parent gradients, like a recorded tensor's _rule.
# ---------------------------------------------------------------------------

_INV_SQRT_2PI = 0.3989422804014327


def ref_gelu(x):
    from scipy.special import ndtr
    out = x * ndtr(x)

    def rule(g):
        return (g * (ndtr(x) + x * np.exp(-0.5 * x * x) * _INV_SQRT_2PI),)

    return out, rule


def ref_softmax_rows(x, scale=1.0):
    z = x * scale if scale != 1.0 else x
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    s = e / e.sum(axis=-1, keepdims=True)

    def rule(g):
        dot = (g * s).sum(axis=-1, keepdims=True)
        dz = s * (g - dot)
        return (dz * scale if scale != 1.0 else dz,)

    return s, rule


def ref_layernorm(x, gamma, beta, eps):
    d = x.shape[-1]
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = xhat * gamma + beta

    def rule(g):
        gh = g * gamma
        m1 = gh.mean(axis=-1, keepdims=True)
        m2 = (gh * xhat).mean(axis=-1, keepdims=True)
        dx = inv * (gh - m1 - xhat * m2)
        dgamma = (g * xhat).reshape(-1, d).sum(axis=0)
        dbeta = g.reshape(-1, d).sum(axis=0)
        return dx, dgamma, dbeta

    return out, rule


def ref_maxpool2d(x, k, stride, pad):
    bsz, c, h, wdt = x.shape
    ho = (h + 2 * pad - k) // stride + 1
    wo = (wdt + 2 * pad - k) // stride + 1
    hp, wp = h + 2 * pad, wdt + 2 * pad
    xp = (np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)),
                 constant_values=-np.inf) if pad else x)
    best = np.full((bsz, c, ho, wo), -np.inf, dtype=x.dtype)
    arg = np.zeros((bsz, c, ho, wo), dtype=np.int32)
    for i in range(k):
        for j in range(k):
            cand = xp[:, :, i:i + stride * ho:stride, j:j + stride * wo:stride]
            better = cand > best
            best = np.where(better, cand, best)
            if i or j:
                arg = np.where(better, np.int32(i * k + j), arg)

    def rule(g):
        ih, iw = np.divmod(arg.astype(np.int64), k)
        rows = ih + np.arange(ho, dtype=np.int64)[:, None] * stride
        cols_ = iw + np.arange(wo, dtype=np.int64)[None, :] * stride
        flat = ((np.arange(bsz, dtype=np.int64)[:, None, None, None] * c
                 + np.arange(c, dtype=np.int64)[None, :, None, None]) * hp + rows) * wp + cols_
        dxp = np.bincount(flat.ravel(), weights=g.ravel(),
                          minlength=bsz * c * hp * wp).reshape(bsz, c, hp, wp)
        dxp = dxp.astype(g.dtype, copy=False)
        dx = dxp[:, :, pad:pad + h, pad:pad + wdt] if pad else dxp
        return (np.ascontiguousarray(dx),)

    return best, rule


def ref_linear(x, w, b=None):
    out = x @ w
    if b is not None:
        out = out + b
    d_in, d_out = w.shape

    def rule(g):
        gf = g.reshape(-1, d_out)
        dw = x.reshape(-1, d_in).T @ gf
        dx = g @ w.T
        if b is None:
            return dx, dw
        return dx, dw, gf.sum(axis=0)

    return out, rule


def ref_relu(x):
    def rule(g):
        return (g * (x > 0),)

    return np.maximum(x, 0), rule


def ref_add(a, b):
    def rule(g):
        return g, g

    return a + b, rule


def _sum_to(g, shape):
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    return g


def ref_matmul(a, b):
    """a @ b with numpy broadcasting over the leading (batch) dims; a rule
    that sums the batch axes an operand was broadcast over."""
    def rule(g):
        da = _sum_to(g @ np.swapaxes(b, -1, -2), a.shape)
        db = _sum_to(np.swapaxes(a, -1, -2) @ g, b.shape)
        return da, db

    return a @ b, rule


def ref_conv2d(x, w, b, stride, pad):
    """im2col cross-correlation: one (ho*wo, cin*k*k) @ (cin*k*k, cout)
    product per image."""
    bsz, cin, h, wdt = x.shape
    cout, _, k, _ = w.shape
    ho = (h + 2 * pad - k) // stride + 1
    wo = (wdt + 2 * pad - k) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    cols = np.empty((bsz, ho, wo, cin, k, k), dtype=x.dtype)
    for i in range(k):
        for j in range(k):
            cols[..., i, j] = xp[:, :, i:i + stride * ho:stride,
                                 j:j + stride * wo:stride].transpose(0, 2, 3, 1)
    cols = cols.reshape(bsz, ho * wo, cin * k * k)
    wmat = w.reshape(cout, -1)
    out = (cols @ wmat.T + b).transpose(0, 2, 1).reshape(bsz, cout, ho, wo)

    def rule(g):
        gf = g.reshape(bsz, cout, ho * wo).transpose(0, 2, 1)
        db = gf.sum(axis=(0, 1))
        dw = (np.ascontiguousarray(gf).reshape(-1, cout).T
              @ cols.reshape(-1, cin * k * k)).reshape(w.shape)
        dc = (gf @ wmat).reshape(bsz, ho, wo, cin, k, k)
        dxp = np.zeros((bsz, cin, h + 2 * pad, wdt + 2 * pad), dtype=dc.dtype)
        for i in range(k):
            for j in range(k):
                dxp[:, :, i:i + stride * ho:stride, j:j + stride * wo:stride] += \
                    dc[..., i, j].transpose(0, 3, 1, 2)
        return np.ascontiguousarray(dxp[:, :, pad:pad + h, pad:pad + wdt]), dw, db

    return out, rule


# ---------------------------------------------------------------------------
# Data-path references: one image at a time, in the order and arithmetic of
# the per-record path that cct.data.batch_iter must reproduce byte for byte.
# ---------------------------------------------------------------------------

def ref_reflect_pad(image, pad):
    """(C, H, W) image reflected by pad on each spatial side, the edge
    itself not repeated (numpy's "reflect"), by explicit index mapping."""
    def source(i, size):
        if i < 0:
            return -i
        if i >= size:
            return 2 * (size - 1) - i
        return i

    _, h, w = image.shape
    rows = [source(i, h) for i in range(-pad, h + pad)]
    cols = [source(j, w) for j in range(-pad, w + pad)]
    return image[:, rows][:, :, cols]


def ref_window(image, oy, ox, flip):
    """The 32x32 window at (oy, ox) of image's reflect pad 4, mirrored left
    to right if flip; (4, 4) unflipped is the image."""
    out = ref_reflect_pad(image, 4)[:, oy:oy + 32, ox:ox + 32]
    return np.ascontiguousarray(out[:, :, ::-1] if flip else out)


def ref_normalize(images, norm):
    """(x / 255 - mean) / std as one expression; uint8 in, float32 out."""
    x = np.asarray(images).astype(np.float32)
    shape = (3, 1, 1)
    return (x / 255.0 - norm.mean.reshape(shape).astype(np.float32)) \
        / norm.std.reshape(shape).astype(np.float32)


def ref_norm_stats(pixels, block=128):
    """Per-channel (mean, std) of pixels (N, 3072) uint8 scaled to [0, 1],
    from exact counts of the 256 values per channel (np.bincount over blocks
    of records), with the exact integer sums and zero std clamped to 1."""
    pixels = np.asarray(pixels).reshape(len(pixels), 3, -1)
    counts = np.zeros((3, 256), dtype=np.int64)
    for lo in range(0, len(pixels), block):
        for c in range(3):
            counts[c] += np.bincount(pixels[lo:lo + block, c].ravel(), minlength=256)
    mean, std = [], []
    for per_value in counts.tolist():  # Python ints: no overflow below
        n = sum(per_value)
        s = sum(v * k for v, k in enumerate(per_value))
        sq = sum(v * v * k for v, k in enumerate(per_value))
        mean.append(s / n)
        std.append(math.sqrt((n * sq - s * s) / (n * n)))
    mean = np.array(mean) / 255.0
    std = np.array(std) / 255.0
    return mean, np.where(std < 1e-8, 1.0, std)


def ref_train_step(params, cfg, batch):
    """(loss, logits, {name: gradient}) of one train step from one plain
    graph per CHUNK rows, built and swept on the calling thread: chunk c's
    forward_tokens(tokenize(...)), the sweep of its rows' cross_entropy
    seeded with n_c / B, and the chunks' gradients
    summed in chunk order. The seed is that chunk's share of the batch mean:
    cross_entropy divides it by n_c, which is exact when n_c is a power of
    two, as are chunks of 4, 4 and 2."""
    images, labels = batch.images.data, batch.labels
    n = len(images)
    leaves = params.tensors()
    logits, sums = [], None
    for lo in range(0, n, CHUNK):
        rows = slice(lo, lo + CHUNK)
        z = forward_tokens(tokenize(Tensor(images[rows]), params, cfg), params, cfg)
        seed = np.full((), len(z.data), z.data.dtype) / n
        grads = gradients(cross_entropy(z, labels[rows]), seed, leaves)
        sums = grads if sums is None else [a + g for a, g in zip(sums, grads)]
        logits.append(z.data)
    logits = np.concatenate(logits)
    with no_grad():
        loss = cross_entropy(Tensor(logits), labels).item()
    return loss, logits, dict(zip(params.names(), sums))
