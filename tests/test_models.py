"""Network construction, shape contracts, constants, and gradients."""

import tracemalloc

import numpy as np
import pytest

from dasr import tensor as T
from dasr.models import (GENERATOR_PRESETS, LRELU_SLOPE, DiscSpre,
                         DiscTrans, FeatureExtractor, Generator,
                         GeneratorConfig, sobel_channels)
from dasr.optim import AdamState, adam_step
from dasr.tensor import Tensor

# pinned so a refactor cannot silently change the architecture
DESK_GENERATOR_PARAMS = 766_849
DESK_CONFIG = GeneratorConfig(scale=2, **GENERATOR_PRESETS["desk"])


def tiny_config(scale=2, residual_scale=0.2):
    return GeneratorConfig(n_blocks=1, base_channels=4, growth_channels=3,
                           scale=scale, residual_scale=residual_scale)


class TestGenerator:
    def test_fresh_generator_is_exactly_the_bicubic_upscale(self):
        # the output conv is zero-initialized, so the learned path
        # contributes exactly nothing and the skip alone remains
        from dasr.imaging import Image, bicubic_resize
        gen = Generator(DESK_CONFIG, seed=1)
        rng = np.random.default_rng(0)
        lr = rng.random((1, 1, 8, 8)).astype(np.float32)
        out = gen(Tensor(lr))
        want = bicubic_resize(Image(lr[0, 0].astype(np.float64)[:, :, None]),
                              16, 16).array[:, :, 0].astype(np.float32)
        assert np.array_equal(out.data[0, 0], want)

    def test_learned_path_of_fresh_generator_is_zero(self):
        gen = Generator(DESK_CONFIG, seed=1)
        rng = np.random.default_rng(3)
        lr = Tensor(rng.random((1, 1, 8, 8)))
        out = gen(lr)
        assert np.array_equal(out.data, gen._bicubic_skip(lr).data)

    def test_shape_contract_x4(self):
        gen = Generator(tiny_config(scale=4), seed=2)
        out = gen(Tensor(np.random.default_rng(1).random((1, 1, 16, 16))))
        assert out.shape == (1, 1, 64, 64)

    @pytest.mark.parametrize("scale", [2, 4])
    @pytest.mark.parametrize("hw", [(8, 8), (9, 13), (16, 12)])
    def test_output_extents_scale_input(self, scale, hw):
        gen = Generator(tiny_config(scale=scale), seed=3)
        h, w = hw
        out = gen(Tensor(np.random.default_rng(2).random((1, 1, h, w))))
        assert out.shape == (1, 1, scale * h, scale * w)

    def test_wrong_channel_count_rejected(self):
        gen = Generator(tiny_config(), seed=4)
        with pytest.raises(ValueError, match=r"\[N,1,h,w\]"):
            gen(Tensor(np.zeros((1, 3, 8, 8))))

    def test_one_adam_step_decreases_mae(self):
        # descent on a fixed batch, across 5 seeds
        wins = 0
        for seed in range(5):
            gen = Generator(tiny_config(), seed=seed)
            rng = np.random.default_rng(100 + seed)
            lr = Tensor(rng.random((2, 1, 8, 8)))
            hr = Tensor(rng.random((2, 1, 16, 16)))
            state = AdamState(gen)
            before = T.reduce_mean_abs_diff(gen(lr), hr)
            T.backward(before)
            adam_step(gen.parameters(), state, lr=1e-3)
            after = T.reduce_mean_abs_diff(gen(lr), hr)
            if after.item() < before.item():
                wins += 1
        assert wins == 5

    def test_param_count_regression_guard(self):
        gen = Generator(DESK_CONFIG, seed=5)
        assert gen.param_count() == DESK_GENERATOR_PARAMS
        again = Generator(DESK_CONFIG, seed=99)
        assert again.param_count() == DESK_GENERATOR_PARAMS

    def test_paper_scale_preset_has_23_blocks(self):
        cfg = GeneratorConfig(scale=2, **GENERATOR_PRESETS["paper-scale"])
        assert cfg.n_blocks == 23
        assert cfg.base_channels == 64


class TestRRDB:
    def _generator_with_block(self, residual_scale=0.2, seed=6):
        gen = Generator(tiny_config(residual_scale=residual_scale), seed=seed)
        return gen, gen.blocks[0]

    def test_zero_weights_give_identity(self):
        gen, block = self._generator_with_block()
        for name, p in gen._params.items():
            if name.startswith("rrdb0"):
                p.data = np.zeros_like(p.data)
        x = Tensor(np.random.default_rng(3).random((1, 4, 5, 5)))
        assert np.allclose(block(x).data, x.data)

    def test_residual_scale_zero_ignores_weights(self):
        gen, block = self._generator_with_block(residual_scale=0.0)
        x = Tensor(np.random.default_rng(4).random((1, 4, 5, 5)))
        out1 = block(x).data.copy()
        rng = np.random.default_rng(5)
        for name, p in gen._params.items():
            if name.startswith("rrdb0"):
                p.data = rng.standard_normal(p.shape).astype(np.float32)
        out2 = block(x).data
        assert np.array_equal(out1, x.data)
        assert np.array_equal(out2, x.data)

    def test_gradient_through_block(self):
        gen, block = self._generator_with_block(seed=7)
        x = Tensor(np.random.default_rng(6).random((1, 4, 5, 5)) * 2 - 1,
                   requires_grad=True)
        # eps small enough that the central difference does not straddle
        # leaky-relu kinks inside the block
        err = T.grad_check(lambda t: T.mean(block(t)), x, eps=1e-4)
        assert err < 1e-3

    def test_channel_mismatch(self):
        _, block = self._generator_with_block()
        with pytest.raises(ValueError, match="channels"):
            block(Tensor(np.zeros((1, 5, 5, 5))))


def composed_dense_block(block, x):
    """A dense block built from concat, conv2d and leaky_relu, one op each:
    the reference ``T.dense_block`` must match."""
    feats = [x]
    for conv in block.convs[:-1]:
        inp = feats[0] if len(feats) == 1 else T.concat(feats, axis=1)
        feats.append(T.leaky_relu(T.conv2d(inp, conv.weight, conv.bias,
                                           padding=1), LRELU_SLOPE))
    last = block.convs[-1]
    out = T.conv2d(T.concat(feats, axis=1), last.weight, last.bias, padding=1)
    return T.add(x, T.scale(out, block.residual_scale))


class TestDenseBlockOp:
    @staticmethod
    def _desk_block(seed=31):
        gen = Generator(DESK_CONFIG, seed=seed)
        return gen, gen.blocks[0].blocks[1]

    @staticmethod
    def _grads(gen, block, fn, x_data, probe):
        for p in gen.parameters():
            p.grad = None
        x = Tensor(x_data, requires_grad=True)
        y = fn(x)
        T.backward(T.sum_all(T.mul(y, probe)))
        return [y.data, x.grad] + [t.grad for c in block.convs
                                   for t in (c.weight, c.bias)]

    @pytest.mark.parametrize("shape", [(1, 32, 6, 6), (2, 32, 7, 5),
                                       (4, 32, 32, 32)])
    def test_matches_the_composed_block(self, shape):
        gen, block = self._desk_block()
        rng = np.random.default_rng(sum(shape))
        x_data = rng.standard_normal(shape).astype(np.float32)
        probe = Tensor(rng.standard_normal(shape))
        got = self._grads(gen, block, block, x_data, probe)
        want = self._grads(gen, block,
                           lambda t: composed_dense_block(block, t),
                           x_data, probe)
        assert len(got) == 12  # output, dx, 5 weights, 5 biases
        for g, w in zip(got, want):
            assert g.shape == w.shape
            assert np.abs(g - w).max() <= 1e-6 * np.abs(w).max()

    def test_is_one_op_over_its_input(self):
        _, block = self._desk_block()
        x = Tensor(np.zeros((1, 32, 4, 4)), requires_grad=True)
        y = block(x)
        assert y._op == "dense_block"
        assert y._prev[0] is x and len(y._prev) == 11

    def test_gradient_check(self):
        gen = Generator(tiny_config(), seed=32)
        block = gen.blocks[0].blocks[0]
        rng = np.random.default_rng(33)
        x = Tensor(rng.random((1, 4, 5, 5)) * 2 - 1, requires_grad=True)
        # eps below the spacing of the leaky-relu kinks inside the block
        assert T.grad_check(lambda t: T.mean(block(t)), x, eps=1e-4) < 1e-3
        convs = [(c.weight, c.bias) for c in block.convs]
        w2 = Tensor(block.convs[2].weight.data, requires_grad=True)

        def with_w2(t):
            pairs = convs[:2] + [(t, convs[2][1])] + convs[3:]
            return T.mean(T.dense_block(x, pairs, LRELU_SLOPE, 0.2))

        assert T.grad_check(with_w2, w2, eps=1e-4) < 1e-3

    def test_float64_input_computes_in_float64(self):
        _, block = self._desk_block()
        a = np.random.default_rng(34).standard_normal((2, 32, 5, 6))
        x = Tensor(a)
        x.data = a.astype(np.float64)
        got = block(x).data
        want = composed_dense_block(block, x).data
        assert got.dtype == want.dtype == np.float64
        assert np.abs(got - want).max() < 1e-12 * np.abs(want).max()

    def test_untracked_weights_get_no_gradient(self):
        gen, block = self._desk_block()
        rng = np.random.default_rng(35)
        x_data = rng.standard_normal((2, 32, 6, 6)).astype(np.float32)
        probe = Tensor(rng.standard_normal((2, 32, 6, 6)))
        tracked = self._grads(gen, block, block, x_data, probe)
        with gen.untracked():
            held = self._grads(gen, block, block, x_data, probe)
        assert all(g is None for g in held[2:])
        assert np.array_equal(held[1], tracked[1])

    def test_constant_input_still_gives_weight_gradients(self):
        gen, block = self._desk_block()
        rng = np.random.default_rng(39)
        x_data = rng.standard_normal((1, 32, 6, 6)).astype(np.float32)
        probe = Tensor(rng.standard_normal((1, 32, 6, 6)))
        tracked = self._grads(gen, block, block, x_data, probe)
        for p in gen.parameters():
            p.grad = None
        y = block(Tensor(x_data))
        T.backward(T.sum_all(T.mul(y, probe)))
        for c, want_w, want_b in zip(block.convs, tracked[2::2],
                                     tracked[3::2]):
            assert np.array_equal(c.weight.grad, want_w)
            assert np.array_equal(c.bias.grad, want_b)

    def test_untracked_keeps_nothing(self):
        gen, block = self._desk_block()
        x = Tensor(np.random.default_rng(36).standard_normal((4, 32, 32, 32)))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            with gen.untracked():
                y = block(x)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert y._prev == () and y._backward is None and not y.requires_grad
        assert retained < y.data.nbytes + 2 ** 16

    def test_graph_keeps_one_slab(self):
        # 4 concatenations, 5 padded copies and 4 activations: 14.1 MB
        # when the block was composed of one op per step
        _, block = self._desk_block()
        x = Tensor(np.random.default_rng(37).standard_normal((4, 32, 32, 32)),
                   requires_grad=True)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            y = block(x)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert y._backward is not None
        assert retained < 4 * 2 ** 20

    @pytest.mark.parametrize("bad", ["growth", "last", "kernel", "bias"])
    def test_malformed_convs_rejected(self, bad):
        rng = np.random.default_rng(38)
        shapes = [(3, 4), (3, 7), (4, 10)]
        convs = [[Tensor(rng.random((co, ci, 3, 3))), Tensor(np.zeros(co))]
                 for co, ci in shapes]
        if bad == "growth":
            convs[1][0] = Tensor(rng.random((3, 6, 3, 3)))
        elif bad == "last":
            convs[2] = [Tensor(rng.random((3, 10, 3, 3))), Tensor(np.zeros(3))]
        elif bad == "kernel":
            convs[0][0] = Tensor(rng.random((3, 4, 1, 1)))
        else:
            convs[1][1] = Tensor(np.zeros(4))
        x = Tensor(np.zeros((1, 4, 5, 5)))
        with pytest.raises(ValueError, match="dense_block"):
            T.dense_block(x, convs, LRELU_SLOPE, 0.2)


class TestDiscSpre:
    def test_logit_shape(self):
        d = DiscSpre(in_hw=32, seed=8)
        out = d(Tensor(np.random.default_rng(7).random((3, 1, 32, 32))))
        assert out.shape == (3, 1)

    def test_resolution_mismatch_names_build_size(self):
        # 23x25 and 22x26 reach the trunk output size of a 32x32 input
        d = DiscSpre(in_hw=32, seed=9)
        for hw in ((48, 48), (23, 25), (22, 26)):
            with pytest.raises(ValueError, match=r"32x32 inputs, got "
                                                 rf"{hw[0]}x{hw[1]}"):
                d(Tensor(np.zeros((1, 1, *hw))))


class TestDiscTrans:
    def test_resolution_mismatch_names_build_size(self):
        # 23x25 reaches both branch output sizes of a 24x24 input
        d = DiscTrans(in_hw=24, seed=16)
        for hw in ((48, 48), (23, 25), (22, 26)):
            with pytest.raises(ValueError, match=r"24x24 inputs, got "
                                                 rf"{hw[0]}x{hw[1]}"):
                d(Tensor(np.zeros((1, 1, *hw))))

    def test_constant_input_gives_zero_prior_latent(self):
        d = DiscTrans(in_hw=32, seed=10)
        logit, v_p = d(Tensor(np.full((2, 1, 32, 32), 0.37)))
        assert np.abs(v_p.data).max() < 1e-6
        # main branch of a constant image is not edge-free, but the logit
        # must still be a [N,1] scalar per item
        assert logit.shape == (2, 1)

    def test_prior_latent_zero_means_logit_is_head_bias_plus_main(self):
        # with the prior latent exactly zero the head sees only v_g
        d = DiscTrans(in_hw=32, seed=11)
        _, v_p = d(Tensor(np.full((1, 1, 32, 32), 0.5)))
        assert np.abs(v_p.data).max() < 1e-6

    def test_logit_gradient_wrt_input(self):
        d = DiscTrans(in_hw=32, seed=12)
        x = Tensor(np.random.default_rng(8).random((1, 1, 32, 32)),
                   requires_grad=True)
        # four conv stages of leaky-relu kinks: the difference step must be
        # well below the kink spacing (numeric converges to the analytic
        # value as eps shrinks)
        err = T.grad_check(lambda t: T.mean(d(t)[0]), x, eps=1e-5)
        assert err < 1e-3

    def test_too_small_input_for_prior_blocks(self):
        with pytest.raises(ValueError, match="too small"):
            DiscTrans(in_hw=16, seed=14)

    def test_prior_block_count_configurable(self):
        d1 = DiscTrans(in_hw=64, seed=15, prior_blocks=1)
        d3 = DiscTrans(in_hw=64, seed=15, prior_blocks=3)
        x = Tensor(np.random.default_rng(10).random((1, 1, 64, 64)))
        _, vp1 = d1(x)
        _, vp3 = d3(x)
        assert vp1.shape != vp3.shape


SOBEL_H = np.array([[-1, 0, 1], [-2, 0, 2], [-1, 0, 1]], dtype=np.float32)


def dense_sobel_weight(c):
    """The [2C, C, 3, 3] conv weight that applies the Sobel pair to each
    channel: C-1 of every C kernels are zero."""
    w = np.zeros((2 * c, c, 3, 3), dtype=np.float32)
    for i in range(c):
        w[2 * i, i] = SOBEL_H
        w[2 * i + 1, i] = SOBEL_H.T
    return w


class TestSobelChannels:
    def test_matches_the_dense_conv_forward_and_backward(self):
        rng = np.random.default_rng(23)
        x_in = rng.standard_normal((2, 3, 9, 7)).astype(np.float32)
        probe = Tensor(rng.standard_normal((2, 6, 7, 5)))
        got_x = Tensor(x_in, requires_grad=True)
        got = sobel_channels(got_x)
        want_x = Tensor(x_in, requires_grad=True)
        want = T.conv2d(want_x, Tensor(dense_sobel_weight(3)))
        assert got.shape == want.shape == (2, 6, 7, 5)
        np.testing.assert_allclose(got.data, want.data, rtol=1e-6, atol=1e-5)
        T.backward(T.sum_all(T.mul(got, probe)))
        T.backward(T.sum_all(T.mul(want, probe)))
        np.testing.assert_allclose(got_x.grad, want_x.grad, rtol=1e-6,
                                   atol=1e-5)

    def test_gradient_check(self):
        rng = np.random.default_rng(24)
        x = Tensor(rng.random((1, 2, 5, 6)), requires_grad=True)
        probe = Tensor(rng.standard_normal((1, 4, 3, 4)))
        err = T.grad_check(lambda t: T.sum_all(T.mul(sobel_channels(t),
                                                     probe)), x)
        assert err < 1e-3


class TestUntracked:
    @pytest.mark.parametrize("make", [lambda: DiscSpre(16, 1),
                                      lambda: DiscTrans(32, 1)],
                             ids=["spre", "trans"])
    def test_graph_built_inside_is_walked_outside(self, make):
        # the block decides which tensors get a gradient when the graph is
        # built, not when it is walked
        d = make()
        grad = d.slabs()[1]

        def loss_of(x):
            out = d(x)  # DiscTrans returns (logit, prior latent)
            return T.mean(out[0] if isinstance(out, tuple) else out)

        x_in = np.random.default_rng(25).random((2, 1, d.in_hw, d.in_hw))
        inside = Tensor(x_in, requires_grad=True)
        with d.untracked():
            T.backward(loss_of(inside))
        outside = Tensor(x_in, requires_grad=True)
        with d.untracked():
            loss = loss_of(outside)
        assert all(p.requires_grad for p in d.parameters())
        T.backward(loss)
        assert not grad.any()
        assert np.array_equal(outside.grad, inside.grad)


class TestFeatureExtractor:
    def test_deterministic_and_independent_of_run_seed(self):
        a = FeatureExtractor()
        b = FeatureExtractor()
        for wa, wb in zip(a.stages, b.stages, strict=True):
            assert np.array_equal(wa.data, wb.data)
        x = Tensor(np.random.default_rng(11).random((1, 1, 24, 24)))
        fa = a(x)
        fb = b(x)
        for ta, tb in zip(fa, fb):
            assert np.array_equal(ta.data, tb.data)

    def test_k_is_three_with_decreasing_resolution(self):
        fe = FeatureExtractor()
        feats = fe(Tensor(np.random.default_rng(12).random((1, 1, 32, 32))))
        assert len(feats) == fe.K == 3
        sizes = [f.shape[2] for f in feats]
        assert sizes == sorted(sizes, reverse=True)

    def test_distinct_inputs_yield_positive_feature_distance(self):
        fe = FeatureExtractor()
        rng = np.random.default_rng(13)
        x = rng.random((1, 1, 24, 24))
        noisy = np.clip(x + rng.normal(0, 0.1, x.shape), 0, 1)
        fx = fe(Tensor(x))
        fn = fe(Tensor(noisy))
        dist = np.mean([np.abs(a.data - b.data).mean()
                        for a, b in zip(fx, fn)])
        assert dist > 0.0

    def test_no_trainable_parameters(self):
        fe = FeatureExtractor()
        assert len(fe.stages) == fe.K
        assert not any(w.requires_grad for w in fe.stages)


class TestNamedTensors:
    def test_sorted_unique_enumeration(self):
        gen = Generator(tiny_config(), seed=16)
        names = [n for n, _ in gen.named_tensors()]
        assert names == sorted(names)
        assert len(names) == len(set(names))

    def test_load_rejects_missing_and_misshaped(self):
        gen = Generator(tiny_config(), seed=17)
        tensors = dict(gen.named_tensors())
        first = next(iter(tensors))
        broken = dict(tensors)
        del broken[first]
        with pytest.raises(ValueError, match="missing"):
            gen.load_named_tensors(broken)
        broken = dict(tensors)
        broken[first] = np.zeros((1, 2, 3))
        with pytest.raises(ValueError, match="shape"):
            gen.load_named_tensors(broken)


class TestSlabs:
    def test_adam_state_packs_every_parameter_into_the_slabs(self):
        gen = Generator(tiny_config(), seed=18)
        before = dict((k, v.copy()) for k, v in gen.named_tensors())
        AdamState(gen)
        data, grad = gen.slabs()
        assert data.dtype == grad.dtype == np.float32
        assert data.size == grad.size == gen.param_count()
        assert not grad.any()
        ofs = 0
        for p in gen.parameters():
            assert np.shares_memory(p.data, data)
            assert np.shares_memory(p.grad, grad)
            # views in sorted-name order, values kept
            assert np.array_equal(data[ofs:ofs + p.size].reshape(p.shape),
                                  before[p.name])
            ofs += p.size
        assert gen.slabs()[0] is data  # packed once

    def test_backward_adds_into_the_gradient_slab(self):
        d = DiscSpre(16, 1)
        grad = d.slabs()[1]
        x = Tensor(np.random.default_rng(19).random((2, 1, 16, 16)))
        T.backward(T.mean(d(x)))
        assert grad.any()
        assert all(np.shares_memory(p.grad, grad) for p in d.parameters())

    def test_load_after_packing_reaches_the_next_forward(self):
        gen = Generator(tiny_config(), seed=20)
        AdamState(gen)
        other = Generator(tiny_config(), seed=21)
        # a nonzero output conv, so the learned path shows in the output
        tensors = {k: v + 0.01 for k, v in other.named_tensors()}
        other.load_named_tensors(tensors)
        gen.load_named_tensors(tensors)
        assert all(np.shares_memory(p.data, gen.slabs()[0])
                   for p in gen.parameters())
        lr = Tensor(np.random.default_rng(22).random((1, 1, 8, 8)))
        assert np.array_equal(gen(lr).data, other(lr).data)
        assert not np.array_equal(gen(lr).data,
                                  Generator(tiny_config(), seed=20)(lr).data)
