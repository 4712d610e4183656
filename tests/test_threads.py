"""The chunk pool: its size, the OpenBLAS pin, and that the bytes a train
step gives do not depend on how many cores run it."""
import ctypes
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import cct
from cct import tensor
from cct.data import batch_iter, compute_norm_stats, synthetic_dataset
from cct.gradcheck import grad_check
from cct.model import ModelConfig, forward, forward_tokens, init_params, tokenize

SRC = Path(cct.__file__).resolve().parent


def _batch(n):
    records = synthetic_dataset(n, 4, seed=0)
    return next(iter(batch_iter(records, n, 0, compute_norm_stats(records), True)))


def small_step_digest() -> str:
    """sha256 over the loss and every gradient of one train step of a small
    model with dropout: batch 10 (chunks of 4, 4 and 2), d=64, 2 layers of
    super attention."""
    cfg = ModelConfig(d_model=64, n_layers=2, n_heads=2, dropout_p=0.1, seed=3)
    params = init_params(cfg, 3)
    batch = _batch(10)
    loss = tensor.cross_entropy(
        forward(batch.images, params, cfg, training=True, dropout_seed=7), batch.labels)
    tensor.backward(loss)
    h = hashlib.sha256(loss.data.tobytes())
    for name, t in params.items():
        h.update(name.encode())
        h.update(t.grad.tobytes())
    return h.hexdigest()


def eval_logits_digest() -> str:
    """sha256 of no-grad logits of the same model over the same 10 images."""
    cfg = ModelConfig(d_model=64, n_layers=2, n_heads=2, dropout_p=0.1, seed=3)
    with tensor.no_grad():
        logits = forward(_batch(10).images, init_params(cfg, 3), cfg)
    return hashlib.sha256(logits.data.tobytes()).hexdigest()


def _on_pool(monkeypatch):
    """Make every batch of two or more chunks run on the pool."""
    monkeypatch.setattr(tensor, "_WORKERS", 4)
    monkeypatch.setattr(tensor, "_GRAIN", 1)


_ONE_CORE_CHILD = """
import json, os, sys
os.sched_setaffinity(0, {{min(os.sched_getaffinity(0))}})
sys.path[:0] = [{src!r}, {tests!r}]
from cct import tensor
import test_threads
print(json.dumps({{"workers": tensor._WORKERS,
                  "step": test_threads.small_step_digest(),
                  "eval": test_threads.eval_logits_digest()}}))
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
def test_a_one_core_process_has_one_worker_and_the_same_bytes(monkeypatch):
    """A child pinned to one core before `import cct` runs every chunk inline."""
    code = _ONE_CORE_CHILD.format(src=str(SRC.parent), tests=str(Path(__file__).parent))
    child = subprocess.run([sys.executable, "-c", code], capture_output=True,
                           text=True, check=True, timeout=300)
    one_core = json.loads(child.stdout)
    assert one_core["workers"] == 1
    _on_pool(monkeypatch)
    assert small_step_digest() == one_core["step"]
    assert eval_logits_digest() == one_core["eval"]


def test_dropout_step_bytes_do_not_depend_on_the_worker_count(monkeypatch):
    monkeypatch.setattr(tensor, "_WORKERS", 1)
    inline = small_step_digest()
    _on_pool(monkeypatch)
    assert small_step_digest() == inline


def test_chunked_forward_is_the_per_chunk_graphs_concatenated(monkeypatch):
    """Logits for a batch of 6 are those of images 0-3 and 4-5 run alone."""
    _on_pool(monkeypatch)
    cfg = ModelConfig(d_model=16, n_layers=1, n_heads=2, dropout_p=0.1, seed=1)
    params = init_params(cfg, 1)
    images = _batch(6).images
    whole = forward(images, params, cfg, training=True, dropout_seed=5)
    assert whole._parents == (images, *params.tensors())
    parts = [forward_tokens(tokenize(tensor.Tensor(images.data[lo:hi]), params, cfg),
                            params, cfg, True, 5, c).data
             for c, (lo, hi) in enumerate([(0, 4), (4, 6)])]
    assert whole.data.tobytes() == np.concatenate(parts).tobytes()


def test_backward_through_forward_accumulates_across_calls(monkeypatch):
    _on_pool(monkeypatch)
    cfg = ModelConfig(d_model=16, n_layers=1, n_heads=2, seed=1)
    params = init_params(cfg, 1)
    batch = _batch(6)
    loss = tensor.cross_entropy(forward(batch.images, params, cfg, training=True),
                                batch.labels)
    tensor.backward(loss)
    once = {n: t.grad.copy() for n, t in params.items()}
    tensor.backward(loss)
    for n, t in params.items():
        assert t.grad.tobytes() == (once[n] + once[n]).tobytes(), n


def test_float64_gradients_through_forward_match_central_differences(monkeypatch):
    """Two chunks, the last one partial, with dropout keyed by chunk: the
    chunk op's gradients for the images and every parameter."""
    _on_pool(monkeypatch)
    cfg = ModelConfig(img_size=4, d_model=4, n_layers=1, n_heads=2, mlp_ratio=1,
                      n_classes=5, dropout_p=0.1, seed=2)
    params = init_params(cfg, 2, dtype=np.float64)
    rng = np.random.default_rng(4)
    images = tensor.Tensor(rng.normal(size=(6, 3, 4, 4)), dtype=np.float64)
    res = grad_check(lambda *_: forward(images, params, cfg, training=True,
                                        dropout_seed=3),
                     [images, *params.tensors()], tol=1e-5)
    assert res.ok, res.max_rel_err
    assert len(res.per_input) == 1 + len(params)


def test_pool_size_follows_affinity_once_openblas_is_pinned():
    if not tensor._OPENBLAS:
        assert tensor._WORKERS == 1
        return
    assert tensor._WORKERS == len(os.sched_getaffinity(0))
    for path, setter in tensor._OPENBLAS:
        lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
        getter = getattr(lib, setter.replace("set_num", "get_num"))
        getter.argtypes, getter.restype = [], ctypes.c_int
        assert getter() == 1, path


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc malloc only")
def test_glibc_malloc_serves_every_thread_from_one_arena():
    assert tensor._ONE_ARENA


def test_a_failing_chunk_raises_after_every_chunk_has_finished(monkeypatch):
    monkeypatch.setattr(tensor, "_WORKERS", 4)
    done = np.zeros(8, dtype=bool)

    def chunk(c):
        if c == 2:
            raise ValueError("chunk 2")
        time.sleep(0.01)
        done[c] = True

    with pytest.raises(ValueError, match="chunk 2"):
        tensor.run_chunks(chunk, 8, tensor._GRAIN)
    assert done.sum() == 7
