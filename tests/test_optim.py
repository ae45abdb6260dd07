"""Adam optimizer against a reference scalar implementation."""

import numpy as np
import pytest

from dasr.models import Model
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


class Params(Model):
    """A model of loose named arrays."""

    def __init__(self, **arrays):
        super().__init__()
        for name, arr in arrays.items():
            self._add(name, np.asarray(arr, dtype=np.float32))


def test_zero_gradient_leaves_parameters_unchanged():
    model = Params(p=[1.0, -2.0, 3.0])
    state = AdamState(model)
    before = model.slabs()[0].copy()
    adam_step(model.parameters(), state, lr=0.1)
    assert np.array_equal(model.slabs()[0], before)


def test_first_step_magnitude_is_lr():
    model = Params(p=[0.0], q=[0.0, 0.0])
    state = AdamState(model)
    p, q = model.parameters()
    p.grad[...] = 1.0
    q.grad[...] = -2.0
    adam_step(model.parameters(), state, lr=0.01)
    # bias correction makes the first update exactly lr (up to eps)
    assert abs(float(p.data[0]) + 0.01) < 1e-6
    assert np.allclose(q.data, 0.01, atol=1e-6)
    # the gradients are zeroed in place, so .grad still views the slab
    assert not model.slabs()[1].any()
    assert np.shares_memory(p.grad, model.slabs()[1])


def test_converges_on_quadratic_and_matches_reference():
    model = Params(w=[0.0])
    state = AdamState(model)
    (p,) = model.parameters()
    trajectory = []
    for _ in range(100):
        w = float(p.data[0])
        p.grad[...] = 2.0 * (w - 3.0)
        adam_step(model.parameters(), state, lr=0.1)
        trajectory.append(float(p.data[0]))
    ref_w, ref_hist = reference_adam(0.0, lambda w: 2.0 * (w - 3.0),
                                     lr=0.1, steps=100)
    assert abs(trajectory[-1] - 3.0) < 0.1
    assert abs(trajectory[-1] - ref_w) < 1e-3
    assert np.allclose(trajectory, ref_hist, atol=1e-3)


def test_other_models_parameters_refused():
    # another model's parameters are not the state's, even under the same
    # names and shapes, and neither is a reordered part of its own list
    model = Params(p=np.zeros(3), q=[0.0])
    state = AdamState(model)
    for params in (Params(p=np.zeros(3), q=[0.0]).parameters(),
                   Params(p=np.zeros(4), q=[0.0]).parameters(),
                   model.parameters()[:1], model.parameters()[::-1]):
        with pytest.raises(ValueError, match="state's model"):
            adam_step(params, state, lr=0.1)
    assert state.step_count == 0


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
