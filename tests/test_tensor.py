"""Tensor engine: op semantics, oracles, and gradient checks."""

import gc
import tracemalloc

import numpy as np
import pytest

from dasr import tensor as T
from dasr.losses import sobel_l1
from dasr.models import GENERATOR_PRESETS, Generator, GeneratorConfig, Model
from dasr.tensor import Tensor

DESK_CONFIG = GeneratorConfig(scale=2, **GENERATOR_PRESETS["desk"])


def conv_oracle(x, w, b, stride, pad):
    """Direct double-loop cross-correlation in float64."""
    n, c, h, wd = x.shape
    k, _, kh, kw = w.shape
    xp = np.zeros((n, c, h + 2 * pad, wd + 2 * pad))
    xp[:, :, pad:pad + h, pad:pad + wd] = x
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (wd + 2 * pad - kw) // stride + 1
    out = np.zeros((n, k, ho, wo))
    for ni in range(n):
        for ki in range(k):
            for i in range(ho):
                for j in range(wo):
                    acc = 0.0
                    for ci in range(c):
                        for a in range(kh):
                            for bb in range(kw):
                                acc += (xp[ni, ci, i * stride + a,
                                           j * stride + bb]
                                        * w[ki, ci, a, bb])
                    out[ni, ki, i, j] = acc + (0.0 if b is None else b[ki])
    return out


SOBEL_GH = np.array([[-1, 0, 1], [-2, 0, 2], [-1, 0, 1]], dtype=np.float32)


class TestConv2d:
    def test_identity_kernel(self):
        x = Tensor(np.arange(9, dtype=np.float32).reshape(1, 1, 3, 3))
        w = Tensor(np.ones((1, 1, 1, 1), dtype=np.float32))
        out = T.conv2d(x, w, stride=1, padding=0)
        assert np.array_equal(out.data, x.data)

    def test_sobel_on_ramp_is_8(self):
        ramp = np.tile(np.arange(5, dtype=np.float32), (5, 1))
        out = T.conv2d(Tensor(ramp[None, None]), Tensor(SOBEL_GH[None, None]),
                       stride=1, padding=0)
        assert out.shape == (1, 1, 3, 3)
        assert np.allclose(out.data, 8.0)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(42)
        x = rng.random((1, 2, 6, 6)).astype(np.float32)
        w = rng.random((3, 2, 3, 3)).astype(np.float32)
        b = rng.random(3).astype(np.float32)
        for stride, pad in [(1, 0), (1, 1), (2, 1), (2, 0)]:
            got = T.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride,
                           padding=pad).data
            want = conv_oracle(x, w, b, stride, pad)
            assert np.abs(got - want).max() < 1e-5

    def test_shape_errors_name_dimension(self):
        x = Tensor(np.zeros((1, 2, 4, 4)))
        w = Tensor(np.zeros((3, 5, 3, 3)))
        with pytest.raises(ValueError, match="channels 2"):
            T.conv2d(x, w)
        with pytest.raises(ValueError, match="odd"):
            T.conv2d(x, Tensor(np.zeros((3, 2, 2, 2))))
        with pytest.raises(ValueError, match="stride"):
            T.conv2d(x, Tensor(np.zeros((3, 2, 3, 3))), stride=0)
        with pytest.raises(ValueError, match="bias"):
            T.conv2d(x, Tensor(np.zeros((3, 2, 3, 3))), Tensor(np.zeros(4)),
                     padding=1)

    def test_gradients(self):
        rng = np.random.default_rng(7)
        w = Tensor(rng.random((3, 2, 3, 3)) * 2 - 1, requires_grad=True)
        b = Tensor(rng.random(3) * 2 - 1, requires_grad=True)
        # 2 -> 3 channels widens: dx scatter-adds the window offsets. 3 -> 2
        # narrows: at stride 1 and padding <= k - 1, dx is one correlation of
        # the output gradient with the flipped kernel; padding 3 on a 3x3 or
        # 1 on a 1x1 kernel takes the scatter-add again
        nrng = np.random.default_rng(8)
        narrow = [(Tensor(nrng.random((2, 3, k, k)) * 2 - 1,
                          requires_grad=True),
                   Tensor(nrng.random(2) * 2 - 1, requires_grad=True))
                  for k in (3, 1)]
        # (weight, bias, input shape, stride, padding); at stride 2 with no
        # padding the last row and column of a 6x6 input lie in no window,
        # and a batch of 2 sums the filter gradient over the batch
        cases = [(w, b, (1, 2, 6, 6), 1, 0), (w, b, (1, 2, 6, 6), 1, 1),
                 (w, b, (1, 2, 6, 6), 2, 1), (w, b, (1, 2, 6, 6), 2, 0),
                 (w, b, (2, 2, 5, 7), 1, 1), (w, b, (2, 2, 5, 7), 2, 0)]
        cases += [(*narrow[0], shape, 1, pad) for shape, pad in
                  [((1, 3, 6, 6), 0), ((1, 3, 6, 6), 1), ((2, 3, 5, 7), 1),
                   ((2, 3, 5, 7), 0), ((1, 3, 4, 5), 3)]]
        cases += [(*narrow[1], (2, 3, 5, 7), 1, pad) for pad in (0, 1)]
        cases += [(*narrow[0], (2, 3, 5, 7), 2, 1)]
        for w, b, shape, stride, pad in cases:
            x = Tensor(rng.random(shape) * 2 - 1, requires_grad=True)
            out_shape = T.conv2d(x, w, b, stride=stride, padding=pad).shape
            # a non-uniform output gradient, so each window offset counts;
            # positive, so no bias gradient sits near 0
            probe = Tensor(rng.random(out_shape) + 0.5)

            def loss(xt, wt, bt):
                out = T.conv2d(xt, wt, bt, stride=stride, padding=pad)
                return T.mean(T.mul(out, probe))

            assert T.grad_check(lambda t: loss(t, w, b), x) < 1e-3
            assert T.grad_check(lambda t: loss(x, t, b), w) < 1e-3
            assert T.grad_check(lambda t: loss(x, w, t), b) < 1e-3
            if (shape, stride, pad) == ((1, 2, 6, 6), 2, 0):
                # the last row and column lie in no window: exactly zero
                assert not x.grad[:, :, 5].any() and not x.grad[..., 5].any()
                assert x.grad[:, :, 4].any() and x.grad[..., 4].any()

    def test_bias_gradient_with_signed_probe(self):
        # the loss is linear in the bias, so the float64 central difference
        # is exact unless the bias is rounded to the float32 output; a signed
        # probe puts bias gradients near 0, where that rounding shows
        rng = np.random.default_rng(7)
        w = Tensor(rng.random((3, 2, 3, 3)) * 2 - 1)
        b = Tensor(rng.random(3) * 2 - 1, requires_grad=True)
        for shape, stride, pad in [((1, 2, 6, 6), 1, 0), ((1, 2, 6, 6), 2, 1),
                                   ((2, 2, 5, 7), 2, 0)]:
            x = Tensor(rng.random(shape) * 2 - 1)
            out_shape = T.conv2d(x, w, b, stride=stride, padding=pad).shape
            probe = Tensor(rng.random(out_shape) * 2 - 1)

            def loss(bt):
                out = T.conv2d(x, w, bt, stride=stride, padding=pad)
                return T.mean(T.mul(out, probe))

            assert T.grad_check(loss, b) < 1e-5

    def test_window_matrix_is_the_strided_window_copy(self):
        rng = np.random.default_rng(8)
        x = rng.random((2, 3, 7, 6)).astype(np.float32)
        flat, head = T._slab(2, 3, 7, 6, np.float32)
        head[...] = x
        for stride in (1, 2):
            ho, wo = (7 - 3) // stride + 1, (6 - 3) // stride + 1
            view = np.lib.stride_tricks.sliding_window_view(
                x, (3, 3), axis=(2, 3))[:, :, ::stride, ::stride]
            want = view.transpose(0, 1, 4, 5, 2, 3).reshape(2, 27, ho * wo)
            got = T._im2col(flat, 6, 3, 3, stride, ho, wo)
            # zero columns up to a multiple of 32, as a slab pads
            assert got.shape == (2, 27, 32)
            assert not got[:, :, ho * wo:].any()
            assert got[:, :, :ho * wo].tobytes() == want.tobytes()

    def test_unpadded_window_matrix_of_a_strided_input(self):
        # every conv copies x into its padded slab, padding 0 too; a
        # reversed view must give the contiguous copy's output
        rng = np.random.default_rng(9)
        base = rng.random((1, 2, 7, 7)).astype(np.float32)
        w = Tensor(rng.random((5, 2, 3, 3)) * 2 - 1)
        for stride in (1, 2):
            got = T.conv2d(Tensor(base[..., ::-1]), w, stride=stride).data
            want = T.conv2d(Tensor(base[..., ::-1].copy()), w,
                            stride=stride).data
            assert np.array_equal(got, want)


def windows_ref(x, w, g, pad):
    """float64 window-matrix reference of a stride-1 conv: the output, and
    for an output gradient g the filter and input gradients."""
    x, w, g = (np.asarray(a, dtype=np.float64) for a in (x, w, g))
    n, c, h, wd = x.shape
    k, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), (2, 3))
    cols = win.transpose(0, 1, 4, 5, 2, 3).reshape(n, c * kh * kw, -1)
    out = np.matmul(w.reshape(k, -1), cols)
    gmat = g.reshape(n, k, -1)
    dw = np.matmul(gmat, cols.transpose(0, 2, 1)).sum(0).reshape(w.shape)
    dcols = np.matmul(w.reshape(k, -1).T, gmat).reshape(
        n, c, kh, kw, *g.shape[2:])
    dxp = np.zeros_like(xp)
    for i in range(kh):
        for j in range(kw):
            dxp[:, :, i:i + g.shape[2], j:j + g.shape[3]] += dcols[:, :, i, j]
    return (out.reshape(g.shape), dw,
            dxp[:, :, pad:pad + h, pad:pad + wd])


class TestShiftedRunForward:
    """A stride-1 conv with Cout <= Cin and padding < min(kh, kw) computes
    its output and filter gradient from shifted runs of the padded input,
    with no window matrix; the other convs keep the window-matrix path."""

    @staticmethod
    def grid():
        # (kernel, input extent, padding) for odd kh != kw, 1xW and Hx1
        # inputs and every padding up to k-1 the input admits
        for kh, kw in [(1, 3), (3, 1), (5, 3), (3, 3)]:
            for hw in [(1, 7), (6, 1), (5, 6)]:
                for pad in range(max(kh, kw)):
                    if min(hw[0] + 2 * pad - kh, hw[1] + 2 * pad - kw) >= 0:
                        yield (kh, kw), hw, pad

    def test_matches_float64_window_matrix_reference(self, monkeypatch):
        rng = np.random.default_rng(21)
        im2col = T._im2col
        fwd_windows = []
        # (batch, channels, row width) of each padded slab windowed
        monkeypatch.setattr(T, "_im2col", lambda *a: (
            fwd_windows.append((*a[0].shape[:2], a[1])), im2col(*a))[1])
        cases = list(self.grid())
        assert sum(pad < min(k) for k, _, pad in cases) >= 12
        for (kh, kw), hw, pad in cases:
            x = Tensor(rng.random((2, 4, *hw)) * 2 - 1, requires_grad=True)
            w = Tensor(rng.random((3, 4, kh, kw)) * 2 - 1, requires_grad=True)
            b = Tensor(rng.random(3) * 2 - 1)
            fwd_windows.clear()
            out = T.conv2d(x, w, b, padding=pad)
            assert fwd_windows == ([] if pad < min(kh, kw) else
                                   [(2, 4, hw[1] + 2 * pad)])
            probe = rng.random(out.shape) + 0.5
            want, dw, dx = windows_ref(x.data, w.data, probe, pad)
            want += b.data[None, :, None, None]
            assert out.data.flags.c_contiguous
            assert np.abs(out.data - want).max() < 1e-5
            T.backward(T.sum_all(T.mul(out, Tensor(probe))))
            assert np.abs(w.grad - dw).max() < 1e-4
            assert np.abs(x.grad - dx).max() < 1e-4
            # one float64 input makes the whole conv float64
            x64 = Tensor(x.data)
            x64.data = x.data.astype(np.float64)
            out64 = T.conv2d(x64, w, b, padding=pad)
            assert out64.data.dtype == np.float64
            assert np.abs(out64.data - want).max() < 1e-12

    def test_forward_keeps_no_window_matrix(self):
        # a 96 -> 32 dense-block conv at 80x80: the window matrix of its
        # input is 96*9*80*80*4 bytes, 22 MB
        rng = np.random.default_rng(22)
        x = Tensor(rng.random((1, 96, 80, 80), dtype=np.float32))
        w = T.Parameter(rng.random((32, 96, 3, 3), dtype=np.float32) - 0.5,
                        "w")
        cols_bytes = 96 * 9 * 80 * 80 * 4
        tracemalloc.start()
        try:
            T.conv2d(x, Tensor(w.data), padding=1)
            constant_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            out = T.conv2d(x, w, padding=1)
            retained = tracemalloc.get_traced_memory()[0] - before
            g = np.ones(out.shape, dtype=np.float32)
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            dw = out._backward(g)[1]
            dw_peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert dw.shape == w.shape
        assert constant_peak < cols_bytes
        assert retained < 3 * x.data.nbytes
        # nor does the filter gradient rebuild it
        assert dw_peak < cols_bytes


class TestLeakyRelu:
    def test_definition(self):
        out = T.leaky_relu(Tensor([2.0, -2.0]), 0.2)
        assert np.allclose(out.data, [2.0, -0.4])

    def test_zeros(self):
        out = T.leaky_relu(Tensor(np.zeros(5)), 0.3)
        assert np.array_equal(out.data, np.zeros(5, dtype=np.float32))

    def test_slope_range_validated(self):
        with pytest.raises(ValueError):
            T.leaky_relu(Tensor([1.0]), 1.5)

    def test_gradient_vs_finite_difference(self):
        x = Tensor([1.3, -0.7], requires_grad=True)
        err = T.grad_check(lambda t: T.mean(T.leaky_relu(t, 0.2)), x)
        assert err < 1e-3

    def test_negative_branch_slope_at_zero(self):
        x = Tensor([0.0], requires_grad=True)
        T.backward(T.sum_all(T.leaky_relu(x, 0.2)))
        assert np.allclose(x.grad, [0.2])


class TestPixelShuffle:
    def test_definition_mapping(self):
        x = Tensor(np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 4, 1, 1))
        out = T.pixel_shuffle(x, 2)
        assert out.shape == (1, 1, 2, 2)
        assert np.array_equal(out.data[0, 0], [[1, 2], [3, 4]])

    def test_matches_index_oracle(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.random((2, 8, 3, 5)))
        out = T.pixel_shuffle(x, 2).data
        assert out.shape == (2, 2, 6, 10)
        for n, c, h, w, i, j in np.ndindex(2, 2, 3, 5, 2, 2):
            assert (out[n, c, 2 * h + i, 2 * w + j]
                    == x.data[n, 4 * c + 2 * i + j, h, w])

    def test_gradient(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.random((1, 8, 2, 2)) * 2 - 1, requires_grad=True)
        err = T.grad_check(lambda t: T.mean(T.pixel_shuffle(t, 2)), x)
        assert err < 1e-3

    def test_indivisible_channels(self):
        with pytest.raises(ValueError, match="divisible"):
            T.pixel_shuffle(Tensor(np.zeros((1, 3, 2, 2))), 2)


class TestConcat:
    def test_extents_add(self):
        a = Tensor(np.zeros((1, 2, 4, 4)))
        b = Tensor(np.ones((1, 3, 4, 4)))
        out = T.concat([a, b], axis=1)
        assert out.shape == (1, 5, 4, 4)

    def test_concat_empty_is_identity(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.random((1, 2, 3, 3)))
        empty = Tensor(np.zeros((1, 0, 3, 3)))
        out = T.concat([x, empty], axis=1)
        assert np.array_equal(out.data, x.data)

    def test_gradient_splits_back(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.ones((2, 2)), requires_grad=True)
        T.backward(T.sum_all(T.concat([a, b], axis=1)))
        assert np.array_equal(a.grad, np.ones((2, 3), dtype=np.float32))
        assert np.array_equal(b.grad, np.ones((2, 2), dtype=np.float32))

    def test_extent_mismatch(self):
        with pytest.raises(ValueError, match="extent mismatch"):
            T.concat([Tensor(np.zeros((1, 2, 4, 4))),
                      Tensor(np.zeros((1, 2, 5, 4)))], axis=1)


class TestLinear:
    def test_identity(self):
        x = Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = T.linear(x, Tensor(np.eye(2)), Tensor(np.zeros(2)))
        assert np.allclose(out.data, x.data)

    def test_hand_arithmetic(self):
        out = T.linear(Tensor([[1.0, 2.0]]), Tensor([[1.0, 1.0]]),
                       Tensor([0.5]))
        assert np.allclose(out.data, [[3.5]])

    def test_gradients(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.random((2, 5)) * 2 - 1, requires_grad=True)
        w = Tensor(rng.random((3, 5)) * 2 - 1, requires_grad=True)
        b = Tensor(rng.random(3), requires_grad=True)
        assert T.grad_check(lambda t: T.mean(T.linear(t, w, b)), x) < 1e-3
        assert T.grad_check(lambda t: T.mean(T.linear(x, t, b)), w) < 1e-3
        assert T.grad_check(lambda t: T.mean(T.linear(x, w, t)), b) < 1e-3
        # signed probe: the bias gradient nears 0, and the float64 bias probe
        # must not be rounded to the float32 output
        probe = Tensor(rng.random((2, 3)) * 2 - 1)
        assert T.grad_check(
            lambda t: T.mean(T.mul(T.linear(x, w, t), probe)), b) < 1e-5

    def test_shape_error(self):
        with pytest.raises(ValueError, match="width"):
            T.linear(Tensor(np.zeros((2, 5))), Tensor(np.zeros((3, 4))))


class TestReduceMeanAbsDiff:
    def test_equal_is_zero(self):
        a = Tensor(np.full((3, 4), 0.7))
        assert T.reduce_mean_abs_diff(a, a).item() == 0.0

    def test_constant_offset(self):
        a = Tensor(np.full((2, 5), 3.0))
        b = Tensor(np.full((2, 5), 1.0))
        assert T.reduce_mean_abs_diff(a, b).item() == pytest.approx(2.0)

    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(8)
        a = rng.random((4, 7)).astype(np.float32)
        b = rng.random((4, 7)).astype(np.float32)
        want = sum(abs(float(x) - float(y))
                   for x, y in zip(a.flat, b.flat)) / a.size
        got = T.reduce_mean_abs_diff(Tensor(a), Tensor(b)).item()
        assert abs(got - want) < 1e-6

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            T.reduce_mean_abs_diff(Tensor(np.zeros(3)), Tensor(np.zeros(4)))

    def test_gradient(self):
        rng = np.random.default_rng(9)
        a = Tensor(rng.random(6) * 2 - 1, requires_grad=True)
        b = Tensor(rng.random(6) * 2 - 1)
        assert T.grad_check(lambda t: T.reduce_mean_abs_diff(t, b), a) < 1e-3


class TestBackward:
    def test_sum_gives_ones(self):
        x = Tensor(np.arange(6, dtype=np.float32), requires_grad=True)
        T.backward(T.sum_all(x))
        assert np.array_equal(x.grad, np.ones(6, dtype=np.float32))

    def test_mean_square_hand_derivative(self):
        x = Tensor([3.0], requires_grad=True)
        T.backward(T.mean(T.mul(x, x)))
        assert np.allclose(x.grad, [6.0])

    def test_composite_graph_vs_finite_differences(self):
        rng = np.random.default_rng(10)
        x = Tensor(rng.random((1, 2, 5, 5)) * 2 - 1, requires_grad=True)
        w = Tensor(rng.random((2, 2, 3, 3)) * 2 - 1)
        err = T.grad_check(
            lambda t: T.mean(T.leaky_relu(T.conv2d(t, w, stride=1,
                                                   padding=1), 0.2)), x)
        assert err < 1e-3

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.zeros(3), requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            T.backward(T.leaky_relu(x, 0.2))

    def test_double_backward_doubles_every_gradient(self):
        rng = np.random.default_rng(11)
        x = Tensor(rng.random((1, 2, 5, 5)), requires_grad=True)
        w = Tensor(rng.random((2, 2, 3, 3)), requires_grad=True)
        loss = T.mean(T.leaky_relu(T.conv2d(x, w, padding=1), 0.2))
        T.backward(loss)
        gx, gw = x.grad.copy(), w.grad.copy()
        T.backward(loss)
        assert np.allclose(x.grad, 2 * gx)
        assert np.allclose(w.grad, 2 * gw)

    def test_detach_stops_gradient(self):
        x = Tensor([2.0], requires_grad=True)
        y = T.mul(x, x).detach()
        z = T.mean(T.mul(y, y))
        assert not z.requires_grad


class TestGradCheck:
    def test_sum_is_exactly_linear(self):
        x = Tensor(np.arange(5, dtype=np.float32) / 5, requires_grad=True)
        # linear in x: no truncation error, only float64 rounding remains
        assert T.grad_check(lambda t: T.sum_all(t), x) < 1e-9

    def test_mean_of_squares(self):
        rng = np.random.default_rng(12)
        x = Tensor(rng.random(7) * 2 - 1, requires_grad=True)
        assert T.grad_check(lambda t: T.mean(T.mul(t, t)), x) < 1e-4

    def test_detects_wrong_gradient(self):
        # an op whose analytic gradient is deliberately scaled by 2
        def doubled_sum(x: Tensor) -> Tensor:
            acc = float(np.sum(x.data, dtype=np.float64))

            def bad_backward(g):
                return (2.0 * np.broadcast_to(g, x.shape).astype(np.float32),)

            return T._make(np.array(acc, x.data.dtype), (x,), bad_backward,
                           "bad")

        x = Tensor(np.arange(1, 5, dtype=np.float32), requires_grad=True)
        err = T.grad_check(doubled_sum, x)
        assert err == pytest.approx(0.5, abs=1e-3)

    def test_compare_returns_both_gradients_and_the_worst_error(self):
        rng = np.random.default_rng(13)
        x = Tensor(rng.random(6) * 2 - 1, requires_grad=True)
        f = lambda t: T.mean(T.mul(t, t))  # noqa: E731
        analytic, numeric, worst = T.grad_compare(f, x)
        assert analytic.dtype == numeric.dtype == np.float64
        assert np.allclose(analytic, 2 * x.data / 6, rtol=1e-6)
        assert np.allclose(numeric, analytic, rtol=1e-4)
        assert worst == T.grad_check(f, x)


class TestDeterminism:
    def test_bit_identical_outputs(self):
        rng = np.random.default_rng(13)
        x = rng.random((2, 3, 8, 8)).astype(np.float32)
        w = rng.random((4, 3, 3, 3)).astype(np.float32)
        a = T.conv2d(Tensor(x), Tensor(w), padding=1).data
        b = T.conv2d(Tensor(x), Tensor(w), padding=1).data
        assert np.array_equal(a, b)

    def test_property_gradcheck_battery(self):
        # every differentiable op on random inputs in [-1, 1]
        rng = np.random.default_rng(14)

        def r(*shape):
            return Tensor(rng.random(shape) * 2 - 1, requires_grad=True)

        w = Tensor(rng.random((3, 2, 3, 3)) * 2 - 1)
        checks = [
            (lambda t: T.mean(T.conv2d(t, w, stride=2, padding=1)),
             r(1, 2, 6, 6)),
            (lambda t: T.mean(T.leaky_relu(t, 0.2)), r(4, 4)),
            (lambda t: T.mean(T.pixel_shuffle(t, 2)), r(1, 4, 3, 3)),
            (lambda t: T.mean(T.softplus(t)), r(9)),
            (lambda t: T.mean(T.concat([t, t], axis=0)), r(2, 3)),
            (lambda t: T.sum_all(T.reshape(t, (6,))), r(2, 3)),
            (lambda t: T.reduce_mean_abs_diff(t, Tensor(np.zeros((3, 3)))),
             r(3, 3)),
        ]
        for f, x in checks:
            assert T.grad_check(f, x) < 1e-3


def tiny_model() -> Model:
    m = Model()
    m._add("p", np.ones(3, dtype=np.float32))
    m._add("q", np.ones(3, dtype=np.float32))
    return m


def builds_graph(m: Model) -> bool:
    p = m.parameters()[0]
    return T.add(p, p)._backward is not None


class TestNoGrad:
    """Forwards that record no graph: every input a constant, parameters
    held by ``Model.untracked()``."""

    def test_generator_forward_bitwise_equal_and_graphless(self):
        gen = Generator(DESK_CONFIG, seed=3)
        # a zero conv_last would pass the bicubic skip through whatever
        # the trunk computed
        rng = np.random.default_rng(3)
        gen.conv_last.weight.data = (
            rng.standard_normal(gen.conv_last.weight.shape) * 0.1
        ).astype(np.float32)
        x = Tensor(rng.random((2, 1, 10, 10)))
        ref = gen(x)
        assert not np.array_equal(ref.data, gen._bicubic_skip(x).data)
        ref_mean = T.mean(ref)
        with gen.untracked():
            out = gen(x)
            out_mean = T.mean(out)
        assert ref._backward is not None
        assert out.data.dtype == ref.data.dtype
        assert out.data.tobytes() == ref.data.tobytes()
        assert out_mean.item() == ref_mean.item()
        for t in (out, out_mean):
            assert t._backward is None
            assert t._prev == ()
            assert not t.requires_grad

    def test_nested_blocks_restore_the_outer_state(self):
        m = tiny_model()
        m.parameters()[1].requires_grad = False
        assert builds_graph(m)
        with m.untracked():
            with m.untracked():
                assert not builds_graph(m)
            assert not builds_graph(m)
        assert builds_graph(m)
        # a flag that was off on entry stays off
        assert [p.requires_grad for p in m.parameters()] == [True, False]

    def test_flag_restored_after_exception(self):
        m = tiny_model()
        with pytest.raises(RuntimeError, match="boom"):
            with m.untracked():
                raise RuntimeError("boom")
        assert builds_graph(m)


class TestDtypeRule:
    """An op's output keeps the dtype its inputs promote to; only
    ``Tensor(data)`` casts, to float32."""

    def test_reductions_emit_the_promoted_dtype(self):
        rng = np.random.default_rng(15)
        a, b = (Tensor(rng.random((1, 1, 5, 5))) for _ in range(2))
        a64 = Tensor(a.data)
        a64.data = a.data.astype(np.float64)
        for f in (T.sum_all, T.mean):
            assert f(a).data.dtype == np.float32
            assert f(a64).data.dtype == np.float64
        for f in (T.reduce_mean_abs_diff, sobel_l1):
            assert f(a, b).data.dtype == np.float32
            assert f(a64, b).data.dtype == f(b, a64).data.dtype == np.float64

    def test_constructor_casts_and_detach_does_not(self):
        t = Tensor(np.arange(3.0))
        assert t.data.dtype == np.float32
        t.data = t.data.astype(np.float64)
        d = t.detach()
        assert d.data is t.data and not d.requires_grad


class TestGraphLifetime:
    def test_generator_graph_freed_by_reference_counting(self):
        # a reference cycle would leave the graph to the cyclic collector
        gen = Generator(DESK_CONFIG, seed=1)
        x = Tensor(np.random.default_rng(1).random((1, 1, 12, 12)))
        gc.collect()
        gc.disable()
        try:
            out = gen(x)
            loss = T.mean(out)
            T.backward(loss)
            del out, loss
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert gen.parameters()[0].grad is not None

    def test_backward_frees_interior_gradients_as_it_goes(self):
        # 20 interior 4 MB gradients would peak near 84 MB if kept
        x = Tensor(np.ones(10 ** 6, dtype=np.float32), requires_grad=True)
        chain = [x]
        for _ in range(20):
            chain.append(T.scale(chain[-1], 1.0))
        loss = T.sum_all(chain[-1])
        tracemalloc.start()
        try:
            T.backward(loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20
        assert np.array_equal(x.grad, np.ones(10 ** 6, dtype=np.float32))
        assert all(t.grad is None for t in chain[1:] + [loss])
