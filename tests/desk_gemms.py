"""The desk model's matrix products, as operands built with numpy alone.

`cases(batch)` returns (name, a, b) triples with the shapes and memory
layouts that cct.tensor hands to its GEMMs at the desk config (d=256,
l=256, 4 heads, MLP width 512, 100 classes, one 3x3 conv block of 256
filters), forward and backward. Batch 256 is the eval batch, so it gets the
forward products only. The stacked products are the same BLAS calls per
matrix at any batch, so they are listed up to batch 8.

Run as a script, it prints the sha256 of every `a @ b` as one JSON object,
computed by numpy alone, with OpenBLAS at its own thread count:

    python tests/desk_gemms.py 1 8 32 256
"""
import hashlib
import json
import sys

import numpy as np

D, L, HEADS, HIDDEN, CLASSES = 256, 256, 4, 512, 100
PIXELS, PATCH = 32 * 32, 3 * 3 * 3


def _f32(rng, *shape):
    return rng.standard_normal(shape).astype(np.float32)


def _heads(rng, b):
    """(B, H, L, hd) as a view of a (B, L, H, hd) array, as _split_heads makes it."""
    return _f32(rng, b, L, HEADS, D // HEADS).transpose(0, 2, 1, 3)


def cases(batch: int) -> list:
    rng = np.random.default_rng(batch)
    rows = batch * L
    train = batch != 256
    out = []
    for d_in, d_out in ((D, D), (D, HIDDEN), (HIDDEN, D)):
        x, w, g = _f32(rng, rows, d_in), _f32(rng, d_in, d_out), _f32(rng, rows, d_out)
        out.append((f"linear{d_in}x{d_out}", x, w))
        if train:
            out += [(f"linear{d_in}x{d_out}.dx", g, w.T),
                    (f"linear{d_in}x{d_out}.dw", x.T, g)]
    x, w, g = _f32(rng, batch, D), _f32(rng, D, CLASSES), _f32(rng, batch, CLASSES)
    out.append(("head", x, w))
    if train:
        out += [("head.dx", g, w.T), ("head.dw", x.T, g)]
        gflat = _f32(rng, batch * PIXELS, D)
        cols = _f32(rng, batch, PIXELS, PATCH)
        out.append(("conv.dw", gflat.T, cols.reshape(-1, PATCH)))
    if batch > 8:
        return out

    cols, wmat = _f32(rng, batch, PIXELS, PATCH), _f32(rng, D, PATCH)
    gconv = _f32(rng, batch, D, PIXELS).transpose(0, 2, 1)
    q, k, v = _heads(rng, batch), _heads(rng, batch), _heads(rng, batch)
    kt = k.transpose(0, 1, 3, 2)
    s, gs = _f32(rng, batch, HEADS, L, L), _f32(rng, batch, HEADS, L, L)
    gctx = _heads(rng, batch)
    w_a, xs, gv = _f32(rng, L, L), _f32(rng, batch, L, D), _f32(rng, batch, L, D)
    gp, pool, gpool = _f32(rng, D, 1), _f32(rng, batch, 1, L), _f32(rng, batch, 1, D)
    gscore = _f32(rng, batch, L, 1)
    out += [("conv", cols, wmat.T)]
    if train:
        out += [("conv.dcols", gconv, wmat)]
    out += [("scores", q, kt), ("mix", s, v), ("w_a", w_a, xs),
            ("pool.scores", xs, gp), ("pool.mix", pool, xs)]
    if train:
        sw = np.swapaxes
        out += [("scores.dq", gs, sw(kt, -1, -2)), ("scores.dk", sw(q, -1, -2), gs),
                ("mix.ds", gctx, sw(v, -1, -2)), ("mix.dv", sw(s, -1, -2), gctx),
                ("w_a.da", gv, sw(xs, -1, -2)), ("w_a.dx", sw(w_a, -1, -2), gv),
                ("pool.scores.dx", gscore, sw(gp, -1, -2)),
                ("pool.scores.dg", sw(xs, -1, -2), gscore),
                ("pool.mix.dp", gpool, sw(xs, -1, -2)),
                ("pool.mix.dx", sw(pool, -1, -2), gpool)]
    return out


def digest(arr) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


if __name__ == "__main__":
    print(json.dumps({f"{b}/{name}": digest(a @ m)
                      for b in map(int, sys.argv[1:]) for name, a, m in cases(b)}))
