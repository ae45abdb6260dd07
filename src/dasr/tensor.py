"""Dense float32 tensors with reverse-mode automatic differentiation.

The engine is deliberately small: every operation needed by the networks in
this package (strided convolution, a whole dense block, leaky ReLU, pixel
shuffle, concatenation, affine maps, reductions) builds a backward graph of
closures, and ``backward`` walks it in reverse topological order. Graphs are
rebuilt every training step.

A node's closure takes the gradient of its output and returns a sequence
with one gradient per input (its ``_prev``), ``None`` for an input it did
not compute one for. ``backward`` alone sums them: the gradients it has yet
to pass on live in a dict local to the call, each is dropped as soon as its
node's closure has run, and only leaves (tensors without a closure) get a
``.grad``. ``backward`` holds no module state.

Graphs are acyclic: a node refers to its inputs, never to its outputs or to
a container the caller keeps growing, so reference counting frees a graph,
with the padded inputs, slabs and window matrices its convolutions keep, as
soon as its last output is dropped; no cyclic garbage collection is needed.

The engine holds no mode. An op records a node if and only if one of its
inputs has ``requires_grad`` (``Model.untracked()`` holds a model's
parameters as constants, so inference builds no graph), and its output
keeps the dtype its inputs promote to: only ``Tensor(data)`` casts, to
float32, and ``grad_compare`` runs float64 by handing ``f`` a float64 input.

Conventions:
  * 4-D tensors are laid out [batch, channel, height, width].
  * ``conv2d`` is cross-correlation (no kernel flip). A stride-1 conv that
    does not widen reads shifted runs of its flat padded input instead of
    building a window matrix, so its graph keeps about 1x its input; other
    convs keep their input's window matrix (kh·kw times the input) when
    the weight is tracked. The rule reads shapes only, so tracked and
    constant forwards are the same bits. Backward, like ``linear``'s, runs
    in the forward dtype.
  * ``dense_block`` runs a generator dense block (its convs, leaky ReLUs,
    concatenations and scaled residual) as one op with the same shifted-run
    conv code, over one padded slab that holds its input and every
    activation; its graph keeps that slab and the stacked weights.
  * Reductions accumulate in float64 and emit a scalar in the dtype their
    inputs promote to.
"""

from __future__ import annotations

import itertools
from typing import Callable, Optional, Sequence

import numpy as np

# a node's closure: output gradient -> one gradient (or None) per input
Backward = Callable[[np.ndarray], Sequence[Optional[np.ndarray]]]


class Tensor:
    """An array plus an optional gradient and backward-graph node;
    ``Tensor(data)`` casts ``data`` to float32."""

    __slots__ = ("data", "grad", "requires_grad", "_prev", "_backward", "_op")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float32)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._prev: tuple = ()
        self._backward: Optional[Backward] = None
        self._op = ""

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() on tensor of size {self.data.size}")
        return float(self.data.reshape(()))

    def detach(self) -> "Tensor":
        """The same array, no graph; used to stop gradients at a boundary."""
        return _make(self.data, (), None, "")

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, op={self._op or 'leaf'})"


class Parameter(Tensor):
    """A named, gradient-tracked tensor owned by a model."""

    __slots__ = ("name",)

    def __init__(self, data, name: str):
        super().__init__(data, requires_grad=True)
        self.name = name

    def __repr__(self) -> str:
        return f"Parameter({self.name}, shape={self.shape})"


def _make(out_data, parents: Sequence[Tensor], backward, op: str) -> Tensor:
    """Wrap op output as it is, with no cast; attach a node only if some
    parent is tracked."""
    out = Tensor.__new__(Tensor)
    out.data, out.grad, out.requires_grad = np.asarray(out_data), None, False
    out._prev, out._backward, out._op = (), None, ""
    if any(p.requires_grad for p in parents):
        out.requires_grad, out._prev = True, tuple(parents)
        out._backward, out._op = backward, op
    return out


# ---------------------------------------------------------------------------
# elementwise / shape ops
# ---------------------------------------------------------------------------

def _check_same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise ValueError(f"{op}: shape mismatch {a.shape} vs {b.shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "add")

    def backward(g):
        return g, g

    return _make(a.data + b.data, (a, b), backward, "add")


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "sub")

    def backward(g):
        return g, -g

    return _make(a.data - b.data, (a, b), backward, "sub")


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "mul")

    def backward(g):
        return g * b.data, g * a.data

    return _make(a.data * b.data, (a, b), backward, "mul")


def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)

    def backward(g):
        return (g * np.float32(s),)

    return _make(a.data * np.float32(s), (a,), backward, "scale")


def leaky_relu(x: Tensor, slope: float) -> Tensor:
    """max(x, slope*x); the subgradient at exactly 0 uses the negative slope."""
    if not 0.0 < slope < 1.0:
        raise ValueError(f"leaky_relu: slope must be in (0,1), got {slope}")
    pos = x.data > 0
    out_data = np.where(pos, x.data, x.data * np.float32(slope))

    def backward(g):
        return (np.where(pos, g, g * np.float32(slope)),)

    return _make(out_data, (x,), backward, "leaky_relu")


def softplus(x: Tensor) -> Tensor:
    """log(1 + exp(x)), stable for large |x|; d/dx = sigmoid(x)."""
    out_data = np.logaddexp(np.float32(0.0), x.data)

    def backward(g):
        e = np.exp(-np.abs(x.data))
        sig = np.where(x.data >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
        return (g * sig.astype(np.float32),)

    return _make(out_data, (x,), backward, "softplus")


def reshape(x: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    orig = x.shape

    def backward(g):
        return (g.reshape(orig),)

    return _make(x.data.reshape(shape), (x,), backward, "reshape")


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    """Concatenate along ``axis``; all other extents must agree."""
    # a snapshot, so the backward closure never refers to a list the caller
    # keeps appending this op's output to (that would close a cycle)
    tensors = tuple(tensors)
    if len(tensors) == 0:
        raise ValueError("concat: need at least one tensor")
    ref = tensors[0].shape
    for t in tensors[1:]:
        if len(t.shape) != len(ref):
            raise ValueError(f"concat: rank mismatch {t.shape} vs {ref}")
        for d, (ea, eb) in enumerate(zip(ref, t.shape)):
            if d != axis % len(ref) and ea != eb:
                raise ValueError(
                    f"concat: extent mismatch on axis {d}: {ea} vs {eb}"
                )
    # each input's index into the output, built once with Python ints
    # (np.cumsum and np.split cost several times as much per call)
    offsets = list(itertools.accumulate((t.shape[axis] for t in tensors),
                                        initial=0))
    lead = (slice(None),) * (axis % len(ref))
    spans = [lead + (slice(lo, hi),) for lo, hi in zip(offsets, offsets[1:])]

    def backward(g):
        return [g[s] for s in spans]

    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    return _make(out_data, tensors, backward, "concat")


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------

def _scalar(acc: float, *inputs: Tensor) -> np.ndarray:
    """A reduction's value in the dtype its inputs promote to."""
    return np.array(acc, np.result_type(*(t.data for t in inputs)))


def sum_all(x: Tensor) -> Tensor:
    acc = float(np.sum(x.data, dtype=np.float64))

    def backward(g):
        return (np.broadcast_to(g, x.shape).astype(np.float32),)

    return _make(_scalar(acc, x), (x,), backward, "sum")


def mean(x: Tensor) -> Tensor:
    n = x.size
    acc = float(np.sum(x.data, dtype=np.float64) / n)

    def backward(g):
        return (np.full(x.shape, g / n, dtype=np.float32),)

    return _make(_scalar(acc, x), (x,), backward, "mean")


def reduce_mean_abs_diff(a: Tensor, b: Tensor) -> Tensor:
    """(1/N) * sum |a - b| over all N elements, accumulated in float64."""
    _check_same_shape(a, b, "reduce_mean_abs_diff")
    d = a.data.astype(np.float64) - b.data.astype(np.float64)
    n = d.size
    acc = float(np.abs(d).sum() / n)
    sign = np.sign(d).astype(np.float32)

    def backward(g):
        gd = sign * np.float32(g / n)
        return gd, -gd

    return _make(_scalar(acc, a, b), (a, b), backward, "mean_abs_diff")


# ---------------------------------------------------------------------------
# convolution / linear / pixel shuffle
# ---------------------------------------------------------------------------

def _im2col(slab: np.ndarray, wp: int, kh: int, kw: int, stride: int,
            ho: int, wo: int) -> np.ndarray:
    """A padded input's ``_slab`` [N, C, L'] with rows Wp wide -> the window
    matrix [N, C*kh*kw, L']: a strided [N, C, kh, kw, Ho, Wo] window view of
    the slab copied into the first Ho*Wo columns of another ``_slab``."""
    n, c = slab.shape[0], slab.shape[1]
    sn, sc, s = slab.strides[0], slab.strides[1], slab.itemsize
    windows = np.ndarray((n, c, kh, kw, ho, wo), slab.dtype, slab, 0,
                         (sn, sc, wp * s, s, wp * s * stride, s * stride))
    cols, head = _slab(n, c * kh * kw, ho, wo, slab.dtype)
    head.reshape(n, c, kh, kw, ho, wo)[...] = windows
    return cols


# Shifted-run convolution, shared by conv2d's stride-1 narrowing path and
# dense_block. A zero-padded [N, C, Hp, Wp] input read flat by rows is a
# [N, C, L] slab, L = Hp·Wp, and its window offset (i, j) is the run of ho
# rows of wo elements, Wp apart, from i·Wp + j. With the stacked weight Ws
# [kh·kw·Cout, Cin], whose row block i·kw + j is W[:, :, i, j], the conv is
# one product Y = Ws·slab summed over the run (i, j) of each row block (i, j).
# With Gs [N, kh·kw·Cout, L], G copied to each run and zero elsewhere,
# dW = Σₙ Gs·slabᵀ and dslab = Wsᵀ·Gs.
#
# Slabs, Gs and the window matrices of the other convs (and their G) carry
# zero columns past L up to a multiple of 32, which dW's inner extent then
# is: OpenBLAS 0.3.31's threaded sgemm (Haswell kernels) sums an inner
# extent above 448 that is not a multiple of 32 in another order than one
# thread does, which would tie checkpoint bytes to the BLAS thread count.

def _slab(n: int, c: int, hp: int, wp: int, dtype
          ) -> tuple[np.ndarray, np.ndarray]:
    """A zeroed [N, C, L'] slab, L' = Hp·Wp rounded up to a multiple of 32,
    and the [N, C, Hp, Wp] view of its first Hp·Wp columns."""
    flat = np.zeros((n, c, -(-hp * wp // 32) * 32), dtype=dtype)
    return flat, flat[:, :, :hp * wp].reshape(n, c, hp, wp)


def _stack_weight(w: np.ndarray, dtype) -> np.ndarray:
    """[Cout, Cin, kh, kw] -> the stacked [kh·kw·Cout, Cin] weight."""
    return np.ascontiguousarray(
        w.transpose(2, 3, 0, 1).reshape(-1, w.shape[1]), dtype=dtype)


def _shifted(a: np.ndarray, kh: int, kw: int, wp: int, ho: int,
             wo: int) -> np.ndarray:
    """[N, kh·kw·Cout, L] contiguous -> the [N, kh, kw, Cout, ho, wo] view
    whose (i, j) block is row block (i, j)'s run from i·Wp + j, trimmed to
    wo columns a row."""
    n, m, length = a.shape
    cout, s = m // (kh * kw), a.itemsize
    return np.ndarray((n, kh, kw, cout, ho, wo), a.dtype, a, 0,
                      (a.strides[0], (kw * cout * length + wp) * s,
                       (cout * length + 1) * s, length * s, wp * s, s))


def _run_forward(slab: np.ndarray, ws: np.ndarray, kh: int, kw: int,
                 wp: int, ho: int, wo: int) -> np.ndarray:
    """Conv of a [N, Cin, L'] slab (a channel prefix may be a view) with the
    stacked weight: [N, Cout, ho, wo], contiguous."""
    y = np.matmul(ws, slab[:, :, :(ho + kh - 1) * wp])
    return _shifted(y, kh, kw, wp, ho, wo).sum(axis=(1, 2))


def _run_shift(g: np.ndarray, kh: int, kw: int, wp: int,
               length: int) -> np.ndarray:
    """G [N, Cout, ho, wo] -> Gs [N, kh·kw·Cout, L']: G shifted to each
    run, L' the slab's length."""
    n, cout, ho, wo = g.shape
    gs = np.zeros((n, kh * kw * cout, length), dtype=g.dtype)
    _shifted(gs, kh, kw, wp, ho, wo)[...] = g[:, None, None]
    return gs


def _run_dw(slab: np.ndarray, gs: np.ndarray, kh: int, kw: int
            ) -> np.ndarray:
    """dW [Cout, Cin, kh, kw] = Σₙ Gs·slabᵀ, unstacked."""
    dw = np.matmul(gs, slab.transpose(0, 2, 1))
    dw = dw[0] if dw.shape[0] == 1 else dw.sum(axis=0)
    return np.ascontiguousarray(
        dw.reshape(kh, kw, -1, slab.shape[1]).transpose(2, 3, 0, 1))


def _run_dx(ws: np.ndarray, gs: np.ndarray, top: int, h: int,
            wp: int) -> np.ndarray:
    """Rows top..top+h-1, the input's, of dslab [N, Cin, Hp, Wp] = Wsᵀ·Gs,
    through the transpose view of Ws."""
    dx = np.matmul(ws.T, gs[:, :, top * wp:(top + h) * wp])
    return dx.reshape(gs.shape[0], ws.shape[1], h, wp)


def conv2d(x: Tensor, w: Tensor, b: Optional[Tensor] = None,
           stride: int = 1, padding: int = 0) -> Tensor:
    """2-D cross-correlation with optional bias.

    x: [N, Cin, H, W], w: [Cout, Cin, kh, kw], b: [Cout].
    Output extent along each spatial axis: (H + 2*padding - kh)//stride + 1.

    A stride-1 conv with Cout <= Cin and padding <= k-1 (the generator's
    ``trunk_conv`` and ``conv_last``; its dense-block convs run the same
    code in ``dense_block``) builds no window matrix of x. Zero-padded and
    read flat by rows, x is a slab whose window offsets are shifted runs:
    out is one product of the stacked [kh·kw·Cout, Cin] weight with the
    slab, summed over the runs; dW is one product of the slab with kh·kw
    shifted copies of G, and dx the transpose view of the stacked weight
    times those copies. The graph keeps the padded x and the stacked weight.

    Other convs build the window matrix ``cols`` of the padded x, with
    zero columns up to a multiple of 32, and keep it when w is tracked:
    out = W·cols, dW = Σₙ Gₙ·colsₙᵀ with G padded alike, and dx
    scatter-adds Wᵀ·G over the kh·kw strided window offsets. Backward runs
    in the forward dtype.
    """
    if x.data.ndim != 4:
        raise ValueError(f"conv2d: input must be 4-D, got shape {x.shape}")
    if w.data.ndim != 4:
        raise ValueError(f"conv2d: weight must be 4-D, got shape {w.shape}")
    n, cin, h, wd = x.shape
    cout, cin_w, kh, kw = w.shape
    if kh % 2 == 0 or kw % 2 == 0:
        raise ValueError(f"conv2d: kernel extents must be odd, got {kh}x{kw}")
    if stride < 1:
        raise ValueError(f"conv2d: stride must be >= 1, got {stride}")
    if padding < 0:
        raise ValueError(f"conv2d: padding must be >= 0, got {padding}")
    if cin != cin_w:
        raise ValueError(
            f"conv2d: input channels {cin} != weight in-channels {cin_w}")
    if b is not None and b.shape != (cout,):
        raise ValueError(
            f"conv2d: bias shape {b.shape} != out-channels ({cout},)")
    hp, wp = h + 2 * padding, wd + 2 * padding
    if hp < kh or wp < kw:
        raise ValueError(
            f"conv2d: padded input {hp}x{wp} smaller than kernel {kh}x{kw}")

    # the bias too, so that a float64 bias is not rounded into a float32 output
    compute_dtype = np.result_type(x.data.dtype, w.data.dtype,
                                   (w if b is None else b).data.dtype)
    ho = (hp - kh) // stride + 1
    wo = (wp - kw) // stride + 1
    narrowing = stride == 1 and cout <= cin and padding < min(kh, kw)
    flat, xp = _slab(n, cin, hp, wp, compute_dtype)
    xp[:, :, padding:padding + h, padding:padding + wd] = x.data
    if narrowing:
        saved, length = flat, flat.shape[2]
        wc = _stack_weight(w.data, compute_dtype)
        out_data = _run_forward(saved, wc, kh, kw, wp, ho, wo)
    else:
        wc = w.data.astype(compute_dtype, copy=False)
        saved = _im2col(flat, wp, kh, kw, stride, ho, wo)
        out_data = np.matmul(wc.reshape(cout, -1)[None],
                             saved[:, :, :ho * wo]).reshape(n, cout, ho, wo)
    if b is not None:
        out_data += b.data[None, :, None, None]

    parents = (x, w) if b is None else (x, w, b)
    # read now: a parameter held constant at build time gets no gradient
    need_x, need_w = x.requires_grad, w.requires_grad
    need_b = b is not None and b.requires_grad
    if not need_w:
        saved = None  # only dW reads it

    def backward(g):
        dx = dw = None
        if narrowing:
            gs = _run_shift(g, kh, kw, wp, length)
            if need_w:
                dw = _run_dw(saved, gs, kh, kw)
            if need_x:
                dx = _run_dx(wc, gs, padding, h, wp)[
                    ..., padding:padding + wd]
        else:
            gmat = g.reshape(n, cout, ho * wo)
            if need_w:
                gpad, head = _slab(n, cout, ho, wo, g.dtype)
                head[...] = g
                dw = (np.matmul(gpad, saved.transpose(0, 2, 1)).sum(axis=0)
                      .reshape(w.shape))
            if need_x:
                dcols = np.matmul(wc.reshape(cout, -1).T[None], gmat).reshape(
                    n, cin, kh, kw, ho, wo)
                dxp = np.zeros((n, cin, hp, wp), dtype=dcols.dtype)
                for i in range(kh):
                    for j in range(kw):
                        dxp[:, :, i:i + stride * ho:stride,
                            j:j + stride * wo:stride] += dcols[:, :, i, j]
                dx = dxp[:, :, padding:padding + h, padding:padding + wd]
        db = g.sum(axis=(0, 2, 3)) if need_b else None
        return (dx, dw) if b is None else (dx, dw, db)

    return _make(out_data, parents, backward, "conv2d")


def dense_block(x: Tensor, convs: Sequence[tuple[Tensor, Tensor]],
                slope: float, residual_scale: float) -> Tensor:
    """A dense block of 3x3, padding-1 convs as one op:
    x + residual_scale·convₖ([x, a₀, …, aₖ₋₁]), where
    aᵢ = leaky_relu(convᵢ([x, a₀, …, aᵢ₋₁]), slope) and [..] concatenates
    channels. ``convs`` holds (weight, bias) pairs; the last maps back to
    x's channels.

    One zero-padded [N, C+ΣGᵢ, H+2, W+2] slab holds x and each aᵢ in its
    own channel band, and conv i reads the slab's first C+G₀+…+Gᵢ₋₁
    channels in place as shifted runs (see ``conv2d``). The graph keeps
    the slab and the stacked weights. The backward walks the convs in
    reverse with one slab gradient and takes each leaky-ReLU mask from the
    sign of the stored aᵢ, the same test as on the pre-activation since
    slope > 0.
    """
    if not 0.0 < slope < 1.0:
        raise ValueError(f"dense_block: slope must be in (0,1), got {slope}")
    if x.data.ndim != 4:
        raise ValueError(
            f"dense_block: input must be 4-D, got shape {x.shape}")
    n, c, h, wd = x.shape
    last = len(convs) - 1
    cins = [c]  # conv i's in-channels; conv i's band is cins[i]:cins[i+1]
    for i, (w, b) in enumerate(convs):
        cout = c if i == last else w.shape[0]
        if w.shape != (cout, cins[i], 3, 3) or b.shape != (cout,):
            raise ValueError(
                f"dense_block: conv{i} weight {w.shape} and bias {b.shape} "
                f"do not map {cins[i]} to {cout} channels with a 3x3 kernel")
        if i < last:
            cins.append(cins[i] + cout)
    dtype = np.result_type(x.data.dtype,
                           *(t.data.dtype for conv in convs for t in conv))
    slope32 = np.float32(slope)
    wp = wd + 2
    flat, slab = _slab(n, cins[-1], h + 2, wp, dtype)
    inner = slab[:, :, 1:h + 1, 1:wd + 1]
    inner[:, :c] = x.data
    stacks = [_stack_weight(w.data, dtype) for w, _ in convs]
    for i, ((_, b), ws) in enumerate(zip(convs, stacks)):
        pre = _run_forward(flat[:, :cins[i]], ws, 3, 3, wp, h, wd)
        pre += b.data[None, :, None, None]
        if i < last:
            inner[:, cins[i]:cins[i + 1]] = np.where(pre > 0, pre,
                                                     pre * slope32)
    out_data = x.data + pre * np.float32(residual_scale)

    parents = (x,) + tuple(t for conv in convs for t in conv)
    # read now: a parameter held constant at build time gets no gradient
    need = [t.requires_grad for t in parents]

    def backward(g):
        grads = [None] * len(parents)
        gi = g * np.float32(residual_scale)
        for i in range(last, -1, -1):
            if i < last:
                band = slice(cins[i], cins[i + 1])
                da = dslab[:, band, :, 1:wd + 1]
                gi = np.where(inner[:, band] > 0, da, da * slope32)
            gs = _run_shift(gi, 3, 3, wp, flat.shape[2])
            if need[1 + 2 * i]:
                grads[1 + 2 * i] = _run_dw(flat[:, :cins[i]], gs, 3, 3)
            if need[2 + 2 * i]:
                grads[2 + 2 * i] = gi.sum(axis=(0, 2, 3))
            if i > 0 or need[0]:
                dx = _run_dx(stacks[i], gs, 1, h, wp)
                if i == last:
                    dslab = dx  # the slab gradient's rows 1..h, summed
                else:
                    dslab[:, :cins[i]] += dx
        if need[0]:
            grads[0] = g + dslab[:, :c, :, 1:wd + 1]
        return grads

    return _make(out_data, parents, backward, "dense_block")


def linear(x: Tensor, w: Tensor, b: Optional[Tensor] = None) -> Tensor:
    """Affine map: x [N,D] @ w [M,D]^T + b [M]."""
    if x.data.ndim != 2 or w.data.ndim != 2:
        raise ValueError(
            f"linear: need 2-D input and weight, got {x.shape}, {w.shape}")
    n, d = x.shape
    m, d_w = w.shape
    if d != d_w:
        raise ValueError(f"linear: input width {d} != weight width {d_w}")
    if b is not None and b.shape != (m,):
        raise ValueError(f"linear: bias shape {b.shape} != ({m},)")
    out_data = x.data @ w.data.T
    if b is not None:
        # not in place, so a float64 bias is not rounded into a float32 output
        out_data = out_data + b.data[None, :]
    parents = (x, w) if b is None else (x, w, b)
    need_x, need_w = x.requires_grad, w.requires_grad
    need_b = b is not None and b.requires_grad

    def backward(g):
        dx = dw = None
        if need_w:
            dw = g.T @ x.data
        if need_x:
            dx = g @ w.data
        db = g.sum(axis=0) if need_b else None
        return (dx, dw) if b is None else (dx, dw, db)

    return _make(out_data, parents, backward, "linear")


def pixel_shuffle(x: Tensor, r: int) -> Tensor:
    """Depth-to-space: [N, C*r^2, H, W] -> [N, C, r*H, r*W]."""
    n, c_r2, h, wd = x.shape
    if c_r2 % (r * r) != 0:
        raise ValueError(
            f"pixel_shuffle: channels {c_r2} not divisible by r^2={r * r}")
    c = c_r2 // (r * r)
    out_data = (x.data.reshape(n, c, r, r, h, wd)
                .transpose(0, 1, 4, 2, 5, 3)
                .reshape(n, c, h * r, wd * r))

    def backward(g):
        gi = (g.reshape(n, c, h, r, wd, r)
              .transpose(0, 1, 3, 5, 2, 4)
              .reshape(n, c_r2, h, wd))
        return (np.ascontiguousarray(gi),)

    return _make(np.ascontiguousarray(out_data), (x,), backward,
                 "pixel_shuffle")


# ---------------------------------------------------------------------------
# backward pass and gradient checking
# ---------------------------------------------------------------------------

def backward(loss: Tensor) -> None:
    """Add d(loss)/d(leaf) into the .grad of every tracked leaf reachable
    from ``loss``; interior nodes get no .grad.

    Repeated calls on the same graph accumulate (backward twice without a
    reset doubles every gradient).
    """
    if loss.size != 1:
        raise ValueError(
            f"backward: loss must be scalar, got shape {loss.shape}")
    # iterative reverse topological order (graphs can be deeper than the
    # Python recursion limit)
    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._prev:
            if id(p) not in visited and p.requires_grad:
                stack.append((p, False))

    # gradients not yet passed on, by node id; popped when the walk
    # reaches the node, so no interior gradient outlives its use
    pending = {id(loss): np.ones_like(loss.data, dtype=np.float32)}
    for node in reversed(topo):
        g = pending.pop(id(node), None)
        if g is None:
            continue
        if node._backward is None:
            if node.grad is None:
                node.grad = g
            else:
                node.grad += g
            continue
        for p, pg in zip(node._prev, node._backward(g)):
            if pg is None or not p.requires_grad:
                continue
            acc = pending.get(id(p))
            if acc is None:
                pending[id(p)] = pg.astype(np.float32, copy=True)
            else:
                acc += pg


def grad_compare(f: Callable[[Tensor], Tensor], x: Tensor, eps: float = 1e-3
                 ) -> tuple[np.ndarray, np.ndarray, float]:
    """(analytic, numeric, worst): the gradient of the scalar f(x) by
    ``backward`` and by central differences, both float64, and their max
    per-element relative error |analytic - numeric| / max(|analytic|,
    |numeric|, 1e-8).
    """
    x.grad = None
    out = f(x)
    backward(out)
    if x.grad is None:
        raise ValueError("grad_check: f(x) does not depend on x")
    analytic = x.grad.astype(np.float64).copy()

    numeric = np.zeros_like(analytic)
    # a float64 copy of x: every op f runs on it promotes to float64
    probe = _make(x.data.astype(np.float64), (), None, "")
    flat = probe.data.reshape(-1)
    nflat = numeric.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = f(probe).item()
        flat[i] = orig - eps
        fm = f(probe).item()
        flat[i] = orig
        nflat[i] = (fp - fm) / (2.0 * eps)

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return analytic, numeric, float(np.max(np.abs(analytic - numeric) / denom))


def grad_check(f: Callable[[Tensor], Tensor], x: Tensor,
               eps: float = 1e-3) -> float:
    """Max per-element relative error between analytic and central-difference
    gradients (see ``grad_compare``)."""
    return grad_compare(f, x, eps)[2]
