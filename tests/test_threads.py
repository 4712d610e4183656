"""The chunk pool: its size, the OpenBLAS pin, that the bytes a train step
gives do not depend on how many cores run it, that a chunk's graph keeps
only the arrays its backward reads and cannot rebuild and lives only until
its own sweep ends, and that backward keeps one running sum of the chunks'
gradients."""
import ctypes
import gc
import hashlib
import json
import os
import platform
import resource
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import cct
from cct import model, tensor
from cct.data import batch_iter, compute_norm_stats, synthetic_dataset
from cct.gradcheck import grad_check
from cct.model import ModelConfig, forward, forward_tokens, init_params, tokenize
from cct.train import train_step
from oracles import ref_train_step

SRC = Path(cct.__file__).resolve().parent


def _batch(n):
    records = synthetic_dataset(n, 4, seed=0)
    return next(iter(batch_iter(records, n, 0, compute_norm_stats(records), True)))


def small_step_digest() -> str:
    """sha256 over the loss and every gradient of one train step of a small
    model: batch 10 (chunks of 4, 4 and 2), d=64, 2 layers of super
    attention."""
    cfg = ModelConfig(d_model=64, n_layers=2, n_heads=2, seed=3)
    params = init_params(cfg, 3)
    batch = _batch(10)
    loss = tensor.cross_entropy(
        forward(batch.images, params, cfg), batch.labels)
    tensor.backward(loss)
    h = hashlib.sha256(loss.data.tobytes())
    for name, t in params.items():
        h.update(name.encode())
        h.update(t.grad.tobytes())
    return h.hexdigest()


def eval_logits_digest() -> str:
    """sha256 of no-grad logits of the same model over the same 10 images."""
    cfg = ModelConfig(d_model=64, n_layers=2, n_heads=2, seed=3)
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


def test_chunked_forward_is_the_per_chunk_graphs_concatenated(monkeypatch):
    """Logits for a batch of 6 are those of images 0-3 and 4-5 run alone."""
    _on_pool(monkeypatch)
    cfg = ModelConfig(d_model=16, n_layers=1, n_heads=2, seed=1)
    params = init_params(cfg, 1)
    images = _batch(6).images
    whole = forward(images, params, cfg)
    assert whole._parents == (images, *params.tensors())
    parts = [forward_tokens(tokenize(tensor.Tensor(images.data[lo:hi]), params, cfg),
                            params, cfg).data
             for lo, hi in [(0, 4), (4, 6)]]
    assert whole.data.tobytes() == np.concatenate(parts).tobytes()


def test_backward_through_forward_accumulates_across_calls(monkeypatch):
    _on_pool(monkeypatch)
    cfg = ModelConfig(d_model=16, n_layers=1, n_heads=2, seed=1)
    params = init_params(cfg, 1)
    batch = _batch(6)

    def forward_and_backward():
        tensor.backward(tensor.cross_entropy(
            forward(batch.images, params, cfg), batch.labels))

    forward_and_backward()
    once = {n: t.grad.copy() for n, t in params.items()}
    forward_and_backward()
    for n, t in params.items():
        assert t.grad.tobytes() == (once[n] + once[n]).tobytes(), n


def test_a_second_backward_of_one_loss_raises(monkeypatch):
    """The first sweep frees the chunk graphs; the second one says so and
    leaves the gradients as the first one set them."""
    _on_pool(monkeypatch)
    cfg = ModelConfig(d_model=16, n_layers=1, n_heads=2, seed=1)
    params = init_params(cfg, 1)
    batch = _batch(6)
    loss = tensor.cross_entropy(forward(batch.images, params, cfg),
                                batch.labels)
    tensor.backward(loss)
    once = {n: t.grad.copy() for n, t in params.items()}
    with pytest.raises(tensor.AutodiffError, match="swept once"):
        tensor.backward(loss)
    for n, t in params.items():
        assert t.grad.tobytes() == once[n].tobytes(), n


def test_a_graph_keeps_the_weights_it_was_built_with(monkeypatch):
    """An optimizer step replaces each parameter's array; a sweep of a graph
    built before it still gives the gradients of the weights it ran with."""
    _on_pool(monkeypatch)
    cfg = ModelConfig(d_model=16, n_layers=1, n_heads=2, seed=1)
    batch = _batch(6)

    def loss_of(params):
        return tensor.cross_entropy(forward(batch.images, params, cfg),
                                    batch.labels)

    control = init_params(cfg, 1)
    tensor.backward(loss_of(control))
    params = init_params(cfg, 1)
    loss = loss_of(params)
    for t in params.tensors():
        t.data = t.data * 2
    tensor.backward(loss)
    for n, t in params.items():
        assert t.grad.tobytes() == control[n].grad.tobytes(), n


def test_chunk_graphs_drop_every_interior_output(monkeypatch):
    """After a training forward on the pool, each chunk graph's recorded
    nodes hold no data but the chunk's logits; backward still runs."""
    _on_pool(monkeypatch)
    logits_of_chunks = []

    def recording_map_chunks(fn, x, params, work):
        def chunk(xc):
            logits_of_chunks.append(fn(xc))
            return logits_of_chunks[-1]
        return tensor.map_chunks(chunk, x, params, work)

    monkeypatch.setattr(model, "map_chunks", recording_map_chunks)
    cfg = ModelConfig(d_model=16, n_layers=1, n_heads=2, seed=1)
    params = init_params(cfg, 1)
    batch = _batch(10)
    logits = forward(batch.images, params, cfg)
    assert len(logits_of_chunks) == 3
    for y in logits_of_chunks:
        nodes = tensor.tape(y)
        assert len(nodes) > 1 and nodes[-1] is y and y.data is not None
        assert [t._op for t in nodes[:-1] if t.data is not None] == []
    tensor.backward(tensor.cross_entropy(logits, batch.labels))
    assert all(np.isfinite(t.grad).all() for t in params.tensors())


def _base(a: np.ndarray) -> np.ndarray:
    while a.base is not None:
        a = a.base
    return a


def test_no_rebuildable_activation_outlives_a_chunk_forward(monkeypatch):
    """After a training forward on the pool, no layernorm, GELU or conv2d
    output array is alive: their consumers rebuild the first two in
    backward, and relu keeps only a mask of the conv2d output."""
    _on_pool(monkeypatch)
    refs = {}
    real_record = tensor._record

    def record(op, out_data, *args, **kwargs):
        if op in ("layernorm", "gelu", "conv2d"):
            refs.setdefault(op, []).append(weakref.ref(_base(out_data)))
        return real_record(op, out_data, *args, **kwargs)

    monkeypatch.setattr(tensor, "_record", record)
    cfg = ModelConfig(d_model=16, n_layers=2, n_heads=2, seed=1)
    params = init_params(cfg, 1)
    batch = _batch(10)
    logits = forward(batch.images, params, cfg)
    gc.collect()
    # 3 chunks, each with 2 layernorms and a GELU per layer, a final
    # layernorm and one conv block
    assert {op: len(r) for op, r in refs.items()} == \
        {"conv2d": 3, "layernorm": 15, "gelu": 6}
    assert [op for op, r in refs.items() for ref in r if ref() is not None] == []
    tensor.backward(tensor.cross_entropy(logits, batch.labels))
    assert all(np.isfinite(t.grad).all() for t in params.tensors())


def test_backward_keeps_one_running_sum_of_the_chunk_gradients(monkeypatch):
    """Each chunk's parameter gradients go into the chunk-order sum as they
    arrive: over 16 chunks backward's peak stays a few gradient sets, where
    holding every chunk's set until the end takes 17."""
    monkeypatch.setattr(tensor, "_WORKERS", 1)
    cfg = ModelConfig(img_size=8, d_model=128, n_layers=2, n_heads=2, seed=1)
    params = init_params(cfg, 1)
    rng = np.random.default_rng(0)
    images = tensor.Tensor(rng.standard_normal((16 * tensor.CHUNK, 3, 8, 8)),
                           dtype=np.float32)
    loss = tensor.cross_entropy(forward(images, params, cfg),
                                rng.integers(0, cfg.n_classes, len(images.data)))
    one_set = sum(t.data.nbytes for t in params.tensors())
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tensor.backward(loss)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 4 * one_set, peak / one_set


@pytest.mark.parametrize("kind", ["super", "sdpa"])
@pytest.mark.parametrize("where", ["inline", "pool"])
def test_train_step_gives_the_bytes_of_forward_cross_entropy_backward(
        monkeypatch, kind, where):
    """Batch 10 (chunks of 4, 4 and 2): the fused step's loss,
    logits and every gradient are those of the public sequence, and those
    of plain per-chunk graphs summed in chunk order (ref_train_step)."""
    if where == "pool":
        _on_pool(monkeypatch)
    else:
        monkeypatch.setattr(tensor, "_WORKERS", 1)
    cfg = ModelConfig(attn_kind=kind, d_model=64, n_layers=2, n_heads=2, seed=3)
    batch = _batch(10)
    params = init_params(cfg, 3)
    logits = forward(batch.images, params, cfg)
    loss = tensor.cross_entropy(logits, batch.labels)
    tensor.backward(loss)
    fused = init_params(cfg, 3)
    got_loss, got_logits, grads = train_step(fused, cfg, batch)
    assert np.float32(got_loss).tobytes() == loss.data.tobytes()
    assert got_logits.tobytes() == logits.data.tobytes()
    for name, t in params.items():
        assert grads[name].dtype == t.grad.dtype, name
        assert grads[name].tobytes() == t.grad.tobytes(), name
    want_loss, want_logits, want = ref_train_step(init_params(cfg, 3), cfg, batch)
    assert np.float32(got_loss).tobytes() == np.float32(want_loss).tobytes()
    assert got_logits.tobytes() == want_logits.tobytes()
    for name, g in want.items():
        assert grads[name].dtype == g.dtype, name
        assert grads[name].tobytes() == g.tobytes(), name


def _desk_step_peak(n: int, kind: str = "super") -> int:
    cfg = ModelConfig(attn_kind=kind)
    params = init_params(cfg, 0)
    batch = _batch(n)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        train_step(params, cfg, batch)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kind", ["super", "sdpa"])
def test_a_desk_chunk_train_step_peaks_at_most_26_mib_per_sample(kind):
    """The sweep frees each op's arrays as it passes the op, so a train step
    of one 4-sample chunk peaks no higher than its forward's bound."""
    peak = _desk_step_peak(tensor.CHUNK, kind)
    assert peak / tensor.CHUNK <= 26 * 2**20, peak / tensor.CHUNK / 2**20


def test_a_desk_train_step_peak_does_not_grow_with_the_batch():
    """Each chunk is swept as soon as its forward ends, so at most one chunk
    graph per worker is alive: with two workers, batch 64 (16 chunks) peaks
    near batch 8 (2 chunks), where holding every chunk graph until the end
    takes about 6 times as much. A larger pool compares batches that keep
    every worker busy."""
    small = tensor.CHUNK * max(2, tensor._WORKERS)
    peaks = _desk_step_peak(small), _desk_step_peak(8 * small)
    assert peaks[1] <= 1.5 * peaks[0], [p / 2**20 for p in peaks]


def test_backward_frees_every_chunk_graph_while_the_loss_is_held(monkeypatch):
    """After backward through forward, no array that an op inside a chunk
    graph output is alive, though the caller still holds the loss."""
    _on_pool(monkeypatch)
    cfg = ModelConfig(d_model=16, n_layers=2, n_heads=2, seed=1)
    params = init_params(cfg, 1)
    batch = _batch(10)
    leaf_arrays = {id(_base(t.data)) for t in (batch.images, *params.tensors())}
    refs = []
    real_record = tensor._record

    def record(op, out_data, *args, **kwargs):
        if op not in ("chunks", "cross_entropy") and id(_base(out_data)) not in leaf_arrays:
            refs.append((op, weakref.ref(_base(out_data))))
        return real_record(op, out_data, *args, **kwargs)

    monkeypatch.setattr(tensor, "_record", record)
    loss = tensor.cross_entropy(forward(batch.images, params, cfg), batch.labels)
    gc.collect()
    held = {op for op, ref in refs if ref() is not None}
    assert {"softmax_rows", "linear"} <= held  # read by rules, or the logits
    tensor.backward(loss)
    gc.collect()
    assert [op for op, ref in refs if ref() is not None] == []
    assert loss.requires_grad and all(np.isfinite(t.grad).all() for t in params.tensors())


def test_each_read_rebuilds_its_operand_and_frees_it_when_the_rule_returns(monkeypatch):
    """Each rule that reads a layernorm or GELU output rebuilds it and drops
    it when it returns, so no earlier rebuild is alive when the next one
    runs."""
    rebuilt, alive_at_each_rebuild = [], []
    real_record = tensor._record

    def record(op, out_data, parents, rule, remake=None):
        if remake is not None:
            def tracked(remake=remake):
                alive_at_each_rebuild.append(sum(r() is not None for r in rebuilt))
                out = remake()
                rebuilt.append(weakref.ref(out))
                return out
            remake = tracked
        return real_record(op, out_data, parents, rule, remake)

    monkeypatch.setattr(tensor, "_record", record)
    cfg = ModelConfig(d_model=16, n_layers=2, n_heads=2, seed=1)
    params = init_params(cfg, 1)
    batch = _batch(tensor.CHUNK)
    tensor.backward(tensor.cross_entropy(
        forward(batch.images, params, cfg), batch.labels))
    # per layer: ln1's three readers, ln2's and the GELU's one; final_ln's two
    assert alive_at_each_rebuild == [0] * (5 * cfg.n_layers + 2)


class _Calls:
    """A chunk function that sleeps (chunk 0 for first_seconds) and counts
    the calls that have started and that are still running."""

    def __init__(self, seconds, first_seconds=None):
        self.seconds, self.first_seconds = seconds, first_seconds or seconds
        self.started = self.running = 0
        self.lock = threading.Lock()

    def __call__(self, c):
        with self.lock:
            self.started += 1
            self.running += 1
        try:
            time.sleep(self.first_seconds if c == 0 else self.seconds)
            return c
        finally:
            with self.lock:
                self.running -= 1


def test_run_chunks_hands_each_result_on_in_chunk_order(monkeypatch):
    """`then` runs on the calling thread in chunk order; when a `then`
    fails, no call is still running and the queued calls never start."""
    monkeypatch.setattr(tensor, "_WORKERS", 4)
    caller = threading.get_ident()
    seen = []

    def fn(c):
        time.sleep(0.01 * ((c * 5) % 3))
        return c, threading.get_ident()

    def then(r):
        assert r[1] != caller
        seen.append(threading.get_ident())
        return r[0]

    assert tensor.run_chunks(fn, 8, tensor._GRAIN, then=then) == list(range(8))
    assert seen == [caller] * 8

    slow = _Calls(0.01)

    def fail_at_1(c):
        if c == 1:
            raise ValueError("then 1")
        return c

    with pytest.raises(ValueError, match="then 1"):
        tensor.run_chunks(slow, 64, tensor._GRAIN, then=fail_at_1)
    assert slow.running == 0
    assert slow.started < 64


@pytest.mark.parametrize("stop", [KeyboardInterrupt, SystemExit])
def test_an_interrupt_in_then_cancels_the_queued_calls(monkeypatch, stop):
    """Ctrl-C, or SIGTERM turned into SystemExit, at chunk 0 of 64 surfaces
    once the calls already started have ended, without running the rest."""
    monkeypatch.setattr(tensor, "_WORKERS", max(tensor._WORKERS, 2))
    calls = _Calls(0.02)

    def interrupt(c):
        raise stop()

    with pytest.raises(stop):
        tensor.run_chunks(calls, 64, tensor._GRAIN, then=interrupt)
    assert calls.running == 0
    assert calls.started <= 2 * tensor._WORKERS


@pytest.mark.parametrize("kind", ["super", "sdpa"])
def test_a_desk_chunk_graph_holds_at_most_22_mib_per_sample(kind):
    """The bytes a training forward of one 4-sample chunk leaves allocated
    at the default config (d=256, 6 layers, 256 tokens)."""
    cfg = ModelConfig(attn_kind=kind)
    params = init_params(cfg, 0)
    images = _batch(tensor.CHUNK).images
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        logits = forward(images, params, cfg)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert logits.requires_grad
    assert held / tensor.CHUNK <= 22 * 2**20, held / tensor.CHUNK / 2**20


@pytest.mark.parametrize("kind", ["super", "sdpa"])
def test_a_desk_chunk_forward_peaks_at_most_26_mib_per_sample(kind):
    """Interior outputs die with their callers' references, so the bytes a
    training forward of one 4-sample chunk at the default config allocates
    at its peak stay near what it keeps."""
    cfg = ModelConfig(attn_kind=kind)
    params = init_params(cfg, 0)
    images = _batch(tensor.CHUNK).images
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        logits = forward(images, params, cfg)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert logits.requires_grad
    assert peak / tensor.CHUNK <= 26 * 2**20, peak / tensor.CHUNK / 2**20


def test_a_layernorm_output_is_freed_when_its_caller_drops_it(monkeypatch):
    """Inside a chunk's forward, each layernorm output array is gone by the
    time the next layernorm runs: the graph does not hold it."""
    alive_at_each_layernorm, refs = [], []
    real_record = tensor._record

    def record(op, out_data, *args, **kwargs):
        if op == "layernorm":
            alive_at_each_layernorm.append([r() is not None for r in refs])
            refs.append(weakref.ref(_base(out_data)))
        return real_record(op, out_data, *args, **kwargs)

    monkeypatch.setattr(tensor, "_record", record)
    cfg = ModelConfig(d_model=16, n_layers=2, n_heads=2, seed=1)
    params = init_params(cfg, 1)
    batch = _batch(tensor.CHUNK)
    logits = forward(batch.images, params, cfg)
    assert alive_at_each_layernorm == [[False] * i for i in range(5)]
    tensor.backward(tensor.cross_entropy(logits, batch.labels))
    assert all(np.isfinite(t.grad).all() for t in params.tensors())


@pytest.mark.parametrize("kind", ["super", "sdpa"])
def test_a_desk_chunk_sweep_rebuilds_each_layernorm_output_once(monkeypatch, kind):
    """One chunk's train_step rebuilds a layernorm output once per read:
    ln1's output has three readers per layer and final_ln's two, 26 reads in
    all. Its gradients are those of a graph that binds every operand's array."""
    cfg = ModelConfig(attn_kind=kind)
    params = init_params(cfg, 0)
    batch = _batch(tensor.CHUNK)
    rebuilds = []
    real_record = tensor._record

    def record(op, out_data, parents, rule, remake=None):
        if op == "layernorm" and remake is not None:
            remake = lambda remake=remake: rebuilds.append(op) or remake()
        return real_record(op, out_data, parents, rule, remake)

    monkeypatch.setattr(tensor, "_record", record)

    def grads():
        rebuilds.clear()
        _, _, got = train_step(params, cfg, batch)
        return len(rebuilds), [g.tobytes() for g in got.values()]

    count, got = grads()
    assert count == 4 * cfg.n_layers + 2
    monkeypatch.setattr(tensor, "_kept", lambda t: (lambda d=t.data: d))
    assert grads() == (0, got)


def test_float64_gradients_through_forward_match_central_differences(monkeypatch):
    """Two chunks, the last one partial: the chunk op's gradients for the
    images and every parameter."""
    _on_pool(monkeypatch)
    cfg = ModelConfig(img_size=4, d_model=4, n_layers=1, n_heads=2, mlp_ratio=1,
                      n_classes=5, seed=2)
    params = init_params(cfg, 2, dtype=np.float64)
    rng = np.random.default_rng(4)
    images = tensor.Tensor(rng.normal(size=(6, 3, 4, 4)), dtype=np.float64)
    res = grad_check(lambda *_: forward(images, params, cfg),
                     [images, *params.tensors()], tol=1e-5)
    assert res.ok, res.max_rel_err
    assert len(res.per_input) == 1 + len(params)


def test_float64_train_step_gradients_match_central_differences(monkeypatch):
    """The same model and batch through train_step, the path every run takes:
    its parameter gradients against central differences of the mean
    cross-entropy of a no-grad forward."""
    _on_pool(monkeypatch)
    cfg = ModelConfig(img_size=4, d_model=4, n_layers=1, n_heads=2, mlp_ratio=1,
                      n_classes=5, seed=2)
    params = init_params(cfg, 2, dtype=np.float64)
    rng = np.random.default_rng(4)
    images = tensor.Tensor(rng.normal(size=(6, 3, 4, 4)), dtype=np.float64)
    labels = rng.integers(0, cfg.n_classes, 6)
    h = 1e-5
    _, _, grads = train_step(params, cfg, SimpleNamespace(images=images, labels=labels))

    def loss():
        with tensor.no_grad():
            logits = forward(images, params, cfg)
            return float(tensor.cross_entropy(logits, labels).data)

    worst = 0.0
    for name, t in params.items():
        flat, num = t.data.ravel(), np.zeros(t.size)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = loss()
            flat[i] = orig - h
            num[i] = (up - loss()) / (2 * h)
            flat[i] = orig
        a = grads[name].ravel()
        assert grads[name].dtype == np.float64, name
        err = np.abs(a - num) / np.maximum(np.maximum(np.abs(a), np.abs(num)), 1.0)
        worst = max(worst, float(err.max()))
    assert worst < 1e-5, worst


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


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc malloc only")
def test_freed_heap_is_reused_without_page_faults():
    # 80 MiB freed at once: glibc's default would trim it or unmap it, and
    # the next round would fault in all of its 20480 pages again
    assert tensor._KEEP_HEAP

    def round_faults():
        f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        arrays = [np.ones(1 << 20, dtype=np.uint8) for _ in range(80)]
        del arrays
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0

    round_faults()
    assert round_faults() < 80 * 256 // 10


def test_ctrl_c_while_waiting_for_a_chunk_ends_the_running_calls_first(monkeypatch):
    """A KeyboardInterrupt raised in the caller while it waits for chunk 0
    surfaces only after chunk 0, which is running, has ended."""
    monkeypatch.setattr(tensor, "_WORKERS", max(tensor._WORKERS, 2))
    calls = _Calls(0.2, first_seconds=0.6)

    def ctrl_c(signum, frame):
        raise KeyboardInterrupt

    old = signal.signal(signal.SIGALRM, ctrl_c)
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.1)
        with pytest.raises(KeyboardInterrupt):
            tensor.run_chunks(calls, 64, tensor._GRAIN)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    assert calls.running == 0
    assert calls.started <= 2 * tensor._WORKERS


def test_a_failing_chunk_raises_after_every_started_chunk_has_finished(monkeypatch):
    """The calls already running end before the failure is raised; the
    queued ones are cancelled."""
    monkeypatch.setattr(tensor, "_WORKERS", 4)
    calls = _Calls(0.01)

    def chunk(c):
        if c == 2:
            raise ValueError("chunk 2")
        calls(c)

    with pytest.raises(ValueError, match="chunk 2"):
        tensor.run_chunks(chunk, 64, tensor._GRAIN)
    assert calls.running == 0
    assert calls.started < 63
