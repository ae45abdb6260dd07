"""Adam optimizer and gradient clipping for Parameter lists.

Adam works on a model's flat parameter and gradient slabs
(``Model.slabs``), so one step costs a handful of vector operations per
cache-sized block of the slab instead of a dozen small ones per parameter.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .models import Model
from .tensor import Parameter

# slab elements per block of the Adam update (128 KiB of float32)
_BLOCK = 32768


class AdamState:
    """First/second-moment slabs and a step counter for one model. Creating
    it packs the model's parameters into their slabs, so create it before
    the model's first forward."""

    def __init__(self, model: Model):
        self.model = model
        size = model.slabs()[0].size
        self.m = np.zeros(size, dtype=np.float32)
        self.v = np.zeros(size, dtype=np.float32)
        self.step_count = 0


def adam_step(params: Sequence[Parameter], state: AdamState, lr: float,
              beta1: float = 0.9, beta2: float = 0.999,
              eps: float = 1e-8) -> None:
    """One bias-corrected Adam update of the state's model, whose parameter
    list ``params`` must be; gradients are zeroed afterwards."""
    if list(params) != state.model.parameters():
        raise ValueError("adam: the parameter list is not that of the "
                         "state's model")
    data, g = state.model.slabs()
    m, v = state.m, state.v
    state.step_count += 1
    t = state.step_count
    bias2 = 1.0 / np.sqrt(1.0 - beta2 ** t)
    step_size = lr / (1.0 - beta1 ** t)
    # block by block, so a block stays in cache through all of its vector
    # ops; each block's gradient slice is overwritten by its update
    for lo in range(0, g.size, _BLOCK):
        gb, mb, vb = (a[lo:lo + _BLOCK] for a in (g, m, v))
        mb *= beta1
        mb += (1.0 - beta1) * gb
        np.square(gb, out=gb)
        vb *= beta2
        vb += (1.0 - beta2) * gb
        np.sqrt(vb, out=gb)
        gb *= bias2
        gb += eps
        np.divide(mb, gb, out=gb)
        gb *= step_size
    data -= g
    g.fill(0.0)


def clip_grad_norm(params: Sequence[Parameter], max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most ``max_norm``.

    Returns the pre-clip norm. ``max_norm <= 0`` disables clipping.
    """
    total = 0.0
    for p in params:
        flat = p.grad.reshape(-1)
        total += float(np.dot(flat, flat))
    norm = float(np.sqrt(total))
    if max_norm > 0 and norm > max_norm:
        factor = np.float32(max_norm / (norm + 1e-12))
        for p in params:
            p.grad *= factor
    return norm
