"""Adam optimizer against a reference scalar implementation."""

import numpy as np
import pytest

from dasr.optim import AdamState, adam_step, clip_grad_norm
from dasr.tensor import Parameter


def reference_adam(w0, grad_fn, lr, steps, beta1=0.9, beta2=0.999, eps=1e-8):
    """Scalar Adam recurrence, written independently of the optimizer."""
    w, m, v = w0, 0.0, 0.0
    history = []
    for t in range(1, steps + 1):
        g = grad_fn(w)
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        mhat = m / (1 - beta1 ** t)
        vhat = v / (1 - beta2 ** t)
        w = w - lr * mhat / (np.sqrt(vhat) + eps)
        history.append(w)
    return w, history


def test_zero_gradient_leaves_parameters_unchanged():
    p = Parameter(np.array([1.0, -2.0, 3.0]), name="p")
    p.grad = np.zeros(3, dtype=np.float32)
    before = p.data.copy()
    adam_step([p], AdamState(), lr=0.1)
    assert np.array_equal(p.data, before)
    assert p.grad is None  # zeroed after the step


def test_first_step_magnitude_is_lr():
    p = Parameter(np.array([0.0]), name="p")
    p.grad = np.array([1.0], dtype=np.float32)
    adam_step([p], AdamState(), lr=0.01)
    # bias correction makes the first update exactly lr (up to eps)
    assert abs(float(p.data[0]) + 0.01) < 1e-6


def test_missing_grad_raises():
    p = Parameter(np.array([1.0]), name="p")
    with pytest.raises(ValueError, match="no gradient"):
        adam_step([p], AdamState(), lr=0.1)


def test_converges_on_quadratic_and_matches_reference():
    p = Parameter(np.array([0.0]), name="w")
    state = AdamState()
    trajectory = []
    for _ in range(100):
        w = float(p.data[0])
        p.grad = np.array([2.0 * (w - 3.0)], dtype=np.float32)
        adam_step([p], state, lr=0.1)
        trajectory.append(float(p.data[0]))
    ref_w, ref_hist = reference_adam(0.0, lambda w: 2.0 * (w - 3.0),
                                     lr=0.1, steps=100)
    assert abs(trajectory[-1] - 3.0) < 0.1
    assert abs(trajectory[-1] - ref_w) < 1e-3
    assert np.allclose(trajectory, ref_hist, atol=1e-3)


def test_moment_buffer_shape_guard():
    state = AdamState()
    p = Parameter(np.zeros(3), name="p")
    p.grad = np.ones(3, dtype=np.float32)
    adam_step([p], state, lr=0.1)
    q = Parameter(np.zeros(4), name="p")  # same name, new shape
    q.grad = np.ones(4, dtype=np.float32)
    with pytest.raises(ValueError, match="shape"):
        adam_step([q], state, lr=0.1)


def test_moment_buffer_layout_is_fixed():
    state = AdamState()
    p = Parameter(np.zeros(3), name="p")
    p.grad = np.ones(3, dtype=np.float32)
    adam_step([p], state, lr=0.1)
    q = Parameter(np.zeros(2), name="q")
    for params in ([p, q], [q]):
        for t in params:
            t.grad = np.ones(t.shape, dtype=np.float32)
        with pytest.raises(ValueError, match="does not match"):
            adam_step(params, state, lr=0.1)


def test_clip_grad_norm():
    a = Parameter(np.zeros(3), name="a")
    b = Parameter(np.zeros(4), name="b")
    a.grad = np.full(3, 3.0, dtype=np.float32)
    b.grad = np.full(4, 4.0, dtype=np.float32)
    norm = clip_grad_norm([a, b], max_norm=1.0)
    assert norm == pytest.approx(np.sqrt(9 * 3 + 16 * 4))
    post = np.sqrt(np.sum(a.grad.astype(float) ** 2)
                   + np.sum(b.grad.astype(float) ** 2))
    assert post == pytest.approx(1.0, rel=1e-5)
    # disabled clipping leaves gradients alone
    a.grad = np.full(3, 3.0, dtype=np.float32)
    clip_grad_norm([a], max_norm=0.0)
    assert np.allclose(a.grad, 3.0)
