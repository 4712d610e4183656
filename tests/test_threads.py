"""The kernel thread pool: its size, the OpenBLAS pin, and that the bytes a
train step gives do not depend on how many cores run it."""
import ast
import ctypes
import hashlib
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import cct
from cct import tensor
from cct.data import batch_iter, compute_norm_stats, synthetic_dataset
from cct.model import ModelConfig, forward, init_params

SRC = Path(cct.__file__).resolve().parent


def small_step_digest() -> str:
    """sha256 over the loss and every gradient of one train step of a small
    model: batch 4, d=64, 2 layers of super attention."""
    cfg = ModelConfig(d_model=64, n_layers=2, n_heads=2, seed=3)
    params = init_params(cfg, 3)
    records = synthetic_dataset(4, 4, seed=0)
    batch = next(iter(batch_iter(records, 4, 0, compute_norm_stats(records), True)))
    loss = tensor.cross_entropy(forward(batch.images, params, cfg, training=True),
                                batch.labels)
    tensor.backward(loss)
    h = hashlib.sha256(loss.data.tobytes())
    for name, t in params.items():
        h.update(name.encode())
        h.update(t.grad.tobytes())
    return h.hexdigest()


_ONE_CORE_CHILD = """
import json, os, sys
os.sched_setaffinity(0, {{min(os.sched_getaffinity(0))}})
sys.path[:0] = [{src!r}, {tests!r}]
from cct import tensor
import test_threads
print(json.dumps({{"workers": tensor._WORKERS,
                  "digest": test_threads.small_step_digest()}}))
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
def test_a_one_core_process_has_one_worker_and_the_same_bytes(monkeypatch):
    """A child pinned to one core before `import cct` splits nothing."""
    code = _ONE_CORE_CHILD.format(src=str(SRC.parent), tests=str(Path(__file__).parent))
    child = subprocess.run([sys.executable, "-c", code], capture_output=True,
                           text=True, check=True, timeout=300)
    one_core = json.loads(child.stdout)
    assert one_core["workers"] == 1
    # here every kernel splits that may: four parts, no grain
    monkeypatch.setattr(tensor, "_WORKERS", 4)
    monkeypatch.setattr(tensor, "_GRAIN", 1)
    assert small_step_digest() == one_core["digest"]


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


def test_a_failing_part_raises_after_every_part_has_finished(monkeypatch):
    monkeypatch.setattr(tensor, "_WORKERS", 4)
    done = np.zeros(8, dtype=bool)

    def part(rows):
        done[rows] = True
        if rows.start == 2:
            raise ValueError("part 2")

    with pytest.raises(ValueError, match="part 2"):
        tensor._split(part, 8, tensor._GRAIN)
    assert done.all()


def test_splits_from_many_threads_at_once_write_every_row_once(monkeypatch):
    """More workers than cores, several callers, a short switch interval:
    each part must write its own rows and nothing else."""
    monkeypatch.setattr(tensor, "_WORKERS", 8)
    rows, callers = 97, 6
    hits = np.zeros((callers, rows), dtype=np.int64)

    def part(caller, r):
        for i in range(r.start, r.stop):
            hits[caller, i] += 1  # one part per row: no lost update possible

    def call(caller):
        for _ in range(20):
            tensor._split(lambda r: part(caller, r), rows, tensor._GRAIN)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=call, args=(c,)) for c in range(callers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert (hits == 20).all()


# ---------------------------------------------------------------------------
# every matrix product goes through _gemm
# ---------------------------------------------------------------------------

_PRODUCTS = {"matmul", "dot", "einsum", "tensordot", "vdot", "inner", "outer"}


def _products_outside_gemm(source: str) -> list:
    """(line, what) of each matrix product not inside a function _gemm."""
    found = []

    def visit(node, in_gemm):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            in_gemm = in_gemm or node.name == "_gemm"
        if not in_gemm:
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                found.append((node.lineno, "@"))
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr in _PRODUCTS):
                found.append((node.lineno, node.func.attr))
        for child in ast.iter_child_nodes(node):
            visit(child, in_gemm)

    visit(ast.parse(source), False)
    return found


def test_guard_sees_each_kind_of_product():
    source = ("import numpy as np\n"
              "def f(a, b):\n"
              "    a @ b\n"
              "    a @= b\n"
              "    np.matmul(a, b)\n"
              "    a.dot(b)\n"
              "    np.einsum('ij,jk', a, b)\n"
              "    np.tensordot(a, b)\n"
              "def _gemm(a, b):\n"
              "    def part(r):\n"
              "        np.matmul(a[r], b)\n"
              "    return a @ b\n")
    assert [what for _, what in _products_outside_gemm(source)] == [
        "@", "@", "matmul", "dot", "einsum", "tensordot"]


def test_no_matrix_product_in_cct_bypasses_gemm():
    """With OpenBLAS pinned to one thread, a product outside _gemm would run
    on one core and nothing would say so."""
    stray = {path.name: found for path in sorted(SRC.glob("*.py"))
             if (found := _products_outside_gemm(path.read_text()))}
    assert stray == {}
