import numpy as np
import pytest

import cct.tensor
from cct.gradcheck import OP_CASES, grad_check, run_suite
from cct.tensor import ConfigError, Tensor, gelu, matmul


def t64(data):
    return Tensor(np.asarray(data, dtype=np.float64))


def test_quadratic_passes():
    x = t64(np.random.default_rng(0).normal(size=(3, 4)))
    res = grad_check(lambda t: (t * t).sum(), [x], tol=1e-6)
    assert res.ok and res.max_rel_err < 1e-6


def test_nonscalar_output_uses_projection():
    rng = np.random.default_rng(1)
    a, b = t64(rng.normal(size=(3, 4))), t64(rng.normal(size=(4, 2)))
    res = grad_check(matmul, [a, b], tol=1e-6)
    assert res.ok
    assert len(res.per_input) == 2


def test_rejects_float32():
    with pytest.raises(ConfigError):
        grad_check(lambda t: t.sum(), [Tensor(np.ones(3, dtype=np.float32))])


def test_broken_backward_rule_is_caught(monkeypatch):
    # negative control: corrupt one backward rule, the checker must flag it
    monkeypatch.setattr(cct.tensor, "_gelu_grad", lambda x, cdf: np.ones_like(x) * 0.123)
    x = t64(np.random.default_rng(2).normal(size=(3, 3)) + 2.0)
    res = grad_check(gelu, [x], tol=1e-5)
    assert not res.ok


def test_suite_covers_all_ops_and_passes():
    reports = run_suite(instances=3, tol=1e-5, seed=0)
    assert {r.op for r in reports} == set(OP_CASES)
    for r in reports:
        assert r.failures == 0, f"{r.op}: max_rel_err={r.max_rel_err}"
        assert r.max_rel_err < 1e-5


def test_suite_is_deterministic():
    a = run_suite(instances=2, tol=1e-5, seed=7)
    b = run_suite(instances=2, tol=1e-5, seed=7)
    assert [(r.op, r.max_rel_err) for r in a] == [(r.op, r.max_rel_err) for r in b]
