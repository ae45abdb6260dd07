"""Adam optimizer and gradient clipping for Parameter lists.

The moment buffers live in flat slabs covering the whole parameter list,
so one step costs a handful of vector operations per cache-sized block of
the slab instead of a dozen small ones per parameter.
"""

from __future__ import annotations

from itertools import zip_longest
from typing import Sequence

import numpy as np

from .tensor import Parameter

# slab elements per block of the Adam update (128 KiB of float32)
_BLOCK = 32768


class AdamState:
    """Flat first/second-moment slabs plus a step counter.

    The slab layout is planned from the first parameter list seen; a later
    list with other names or shapes is an error (moment buffers must
    shape-match their parameters).
    """

    def __init__(self):
        self.step_count: int = 0
        self._layout: list[tuple[str, tuple]] | None = None
        self._slices: list[tuple[int, int]] = []
        self._m: np.ndarray | None = None
        self._v: np.ndarray | None = None
        self._g: np.ndarray | None = None

    def _plan(self, params: Sequence[Parameter]) -> None:
        layout = [(p.name, p.shape) for p in params]
        if self._layout is None:
            ofs = 0
            for p in params:
                self._slices.append((ofs, p.size))
                ofs += p.size
            self._m = np.zeros(ofs, dtype=np.float32)
            self._v = np.zeros(ofs, dtype=np.float32)
            self._g = np.empty(ofs, dtype=np.float32)
            self._layout = layout
        elif layout != self._layout:
            new, old = next((a, b) for a, b in zip_longest(
                layout, self._layout) if a != b)
            raise ValueError(f"adam: parameter (name, shape) {new} does not "
                             f"match moment buffer entry {old}")


def adam_step(params: Sequence[Parameter], state: AdamState, lr: float,
              beta1: float = 0.9, beta2: float = 0.999,
              eps: float = 1e-8) -> None:
    """One bias-corrected Adam update; gradients are zeroed afterwards."""
    for p in params:
        if p.grad is None:
            raise ValueError(f"adam: parameter {p.name} has no gradient")
    state._plan(params)
    g, m, v = state._g, state._m, state._v
    for p, (ofs, n) in zip(params, state._slices):
        g[ofs:ofs + n] = p.grad.reshape(-1)
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
    for p, (ofs, n) in zip(params, state._slices):
        p.data -= g[ofs:ofs + n].reshape(p.shape)
        p.grad = None


def clip_grad_norm(params: Sequence[Parameter], max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most ``max_norm``.

    Returns the pre-clip norm. ``max_norm <= 0`` disables clipping.
    """
    total = 0.0
    for p in params:
        if p.grad is not None:
            flat = p.grad.reshape(-1)
            total += float(np.dot(flat, flat))
    norm = float(np.sqrt(total))
    if max_norm > 0 and norm > max_norm:
        factor = np.float32(max_norm / (norm + 1e-12))
        for p in params:
            if p.grad is not None:
                p.grad *= factor
    return norm
