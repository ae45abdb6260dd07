"""Loss functions: analytic values, sign properties, and oracles."""

import numpy as np
import pytest

from dasr import tensor as T
from dasr.imaging import Image, gaussian_blur, sobel_map
from dasr.losses import (LossBreakdown, combine_d, combine_g,
                         l_adversarial_d, l_adversarial_g, l_mae, l_noise,
                         l_trans, sobel_l1)
from dasr.models import DiscTrans, FeatureExtractor, Generator, GeneratorConfig
from dasr.synth import SyntheticSceneSpec, render_pair
from dasr.tensor import Tensor


def logit(p):
    """Inverse sigmoid."""
    return float(np.log(p / (1.0 - p)))


class TestMae:
    def test_zero_when_equal(self):
        x = Tensor(np.full((3, 3), 0.4))
        assert l_mae(x, x).item() == 0.0

    def test_constant_offset(self):
        a = Tensor(np.full((4, 4), 0.8))
        b = Tensor(np.full((4, 4), 0.5))
        assert l_mae(a, b).item() == pytest.approx(0.3, abs=1e-7)

    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(0)
        a = rng.random((5, 5)).astype(np.float32)
        b = rng.random((5, 5)).astype(np.float32)
        want = sum(abs(float(x) - float(y))
                   for x, y in zip(a.flat, b.flat)) / a.size
        assert abs(l_mae(Tensor(a), Tensor(b)).item() - want) < 1e-7


class TestAdversarialD:
    def test_uniform_logits_give_2_ln2(self):
        real = Tensor(np.zeros((4, 1)))
        fake = Tensor(np.zeros((4, 1)))
        assert l_adversarial_d(real, fake).item() == pytest.approx(
            2.0 * np.log(2.0), abs=1e-6)

    def test_point_nine_point_one(self):
        real = Tensor(np.full((1, 1), logit(0.9)))
        fake = Tensor(np.full((1, 1), logit(0.1)))
        # -(ln 0.9 + ln 0.9) evaluated directly
        assert l_adversarial_d(real, fake).item() == pytest.approx(
            0.21072, abs=1e-4)

    def test_perfect_discriminator_saturates_to_zero(self):
        real = Tensor(np.full((2, 1), 20.0))
        fake = Tensor(np.full((2, 1), -20.0))
        assert l_adversarial_d(real, fake).item() < 1e-8

    def test_finite_on_extreme_logits(self):
        real = Tensor(np.full((1, 1), -80.0))
        fake = Tensor(np.full((1, 1), 80.0))
        val = l_adversarial_d(real, fake).item()
        assert np.isfinite(val)


class TestAdversarialG:
    def test_half_gives_ln2(self):
        fake = Tensor(np.zeros((3, 1)))
        assert l_adversarial_g(fake).item() == pytest.approx(np.log(2.0),
                                                             abs=1e-6)

    def test_fooled_discriminator_goes_to_zero(self):
        fake = Tensor(np.full((2, 1), 25.0))
        assert l_adversarial_g(fake).item() < 1e-8

    def test_gradient_at_half_is_minus_half(self):
        fake = Tensor(np.zeros((1, 1)), requires_grad=True)
        T.backward(l_adversarial_g(fake))
        assert fake.grad[0, 0] == pytest.approx(-0.5, abs=1e-6)


def _sobel_mean_abs_oracle(a, b):
    """Compose the image-space Sobel oracle with a scalar mean-abs loop."""
    sa = sobel_map(Image(a[:, :, None]))
    sb = sobel_map(Image(b[:, :, None]))
    acc = 0.0
    for x, y in zip(sa.flat, sb.flat):
        acc += abs(x - y)
    return acc / sa.size


class TestTrans:
    def _disc(self):
        return DiscTrans(in_hw=32, seed=1)

    def test_zero_for_identical_in_both_modes(self):
        d = self._disc()
        x = Tensor(np.random.default_rng(1).random((1, 1, 32, 32)))
        assert l_trans(x, x, None, None, "raw-sobel").item() == 0.0
        assert l_trans(x, x, d(x)[1], d(x)[1], "prior-branch").item() == 0.0

    def test_constants_give_zero_in_raw_mode(self):
        a = Tensor(np.full((1, 1, 32, 32), 0.2))
        b = Tensor(np.full((1, 1, 32, 32), 0.9))
        assert l_trans(a, b, None, None, "raw-sobel").item() == pytest.approx(
            0.0, abs=1e-9)

    def test_raw_mode_matches_composed_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            a = rng.random((8, 8))
            b = rng.random((8, 8))
            got = sobel_l1(Tensor(a[None, None]), Tensor(b[None, None])).item()
            want = _sobel_mean_abs_oracle(a, b)
            assert abs(got - want) < 1e-6

    def test_non_negative_and_differentiable(self):
        rng = np.random.default_rng(3)
        a = Tensor(rng.random((1, 1, 8, 8)), requires_grad=True)
        b = Tensor(rng.random((1, 1, 8, 8)))
        err = T.grad_check(lambda t: sobel_l1(t, b), a)
        assert err < 1e-3
        assert sobel_l1(a, b).item() >= 0.0

    def test_prior_branch_mode_trains_discriminator(self):
        d = self._disc()
        rng = np.random.default_rng(4)
        pred = Tensor(rng.random((1, 1, 32, 32)))
        target = Tensor(rng.random((1, 1, 32, 32)))
        grad = d.slabs()[1]
        T.backward(l_trans(pred, target, d(pred)[1], d(target)[1],
                           "prior-branch"))
        assert grad.any()
        touched = [p.name for p in d.parameters() if p.grad.any()]
        assert any(name.startswith("prior.conv") for name in touched)

    def test_bad_mode_and_shape(self):
        x = Tensor(np.zeros((1, 1, 32, 32)))
        with pytest.raises(ValueError, match="mode"):
            l_trans(x, x, None, None, "fourier")
        with pytest.raises(ValueError, match="prior latents"):
            l_trans(x, x, None, None, "prior-branch")
        with pytest.raises(ValueError, match="shape"):
            l_trans(x, Tensor(np.zeros((1, 1, 16, 16))), None, None,
                    "raw-sobel")
        with pytest.raises(ValueError, match="3x3"):
            sobel_l1(Tensor(np.zeros((1, 1, 2, 2))),
                     Tensor(np.zeros((1, 1, 2, 2))))


class TestNoise:
    def test_identical_features_give_zero(self):
        f = [Tensor(np.random.default_rng(5).random((1, 4, 6, 6)))]
        assert l_noise(f, f, [1.0]).item() == 0.0

    def test_constant_difference(self):
        a = [Tensor(np.full((1, 2, 3, 3), 0.75))]
        b = [Tensor(np.full((1, 2, 3, 3), 0.25))]
        assert l_noise(a, b, [1.0]).item() == pytest.approx(-0.5, abs=1e-7)

    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(6)
        pf = [Tensor(rng.random((1, 2, 4, 4))) for _ in range(3)]
        nf = [Tensor(rng.random((1, 2, 4, 4))) for _ in range(3)]
        w = [0.2, 0.5, 0.3]
        want = 0.0
        for p, q, wk in zip(pf, nf, w):
            acc = sum(abs(float(x) - float(y))
                      for x, y in zip(p.data.flat, q.data.flat))
            want -= wk * acc / p.size
        assert abs(l_noise(pf, nf, w).item() - want) < 1e-6

    def test_always_non_positive(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            pf = [Tensor(rng.random((1, 2, 5, 5)))]
            nf = [Tensor(rng.random((1, 2, 5, 5)))]
            assert l_noise(pf, nf, [1.0]).item() <= 0.0

    def test_length_mismatch(self):
        f = [Tensor(np.zeros((1, 1, 2, 2)))]
        with pytest.raises(ValueError, match="stages"):
            l_noise(f, f * 2, [0.5, 0.5])


class TestCombine:
    def test_generator_arithmetic(self):
        mae = Tensor(np.float32(0.2))
        noise = Tensor(np.float32(-0.5))
        total = combine_g(mae, noise, None, 0.1)
        assert total.item() == pytest.approx(0.15, abs=1e-7)
        adv = Tensor(np.float32(0.7))
        total = combine_g(mae, noise, adv, 0.1)
        assert total.item() == pytest.approx(0.85, abs=1e-6)
        # alpha 0 drops the noise term; no noise tensor at all (stage 1)
        assert combine_g(mae, noise, None, 0.0).item() == \
            pytest.approx(0.2, abs=1e-7)
        assert combine_g(mae, None, adv, 0.1).item() == \
            pytest.approx(0.9, abs=1e-6)

    def test_discriminator_arithmetic(self):
        # adv_d - beta * trans: the cross-entropy the discriminator
        # minimizes, less the texture-prior distance it maximizes
        adv_d = Tensor(np.float32(1.0), requires_grad=True)
        trans = Tensor(np.float32(0.5), requires_grad=True)
        assert combine_d(adv_d, trans, 1.0).item() == \
            pytest.approx(0.5, abs=1e-6)
        assert combine_d(adv_d, trans, 0.0).item() == \
            pytest.approx(1.0, abs=1e-6)
        total = combine_d(adv_d, trans, 2.0)
        assert total.item() == pytest.approx(0.0, abs=1e-6)
        T.backward(total)
        assert adv_d.grad == pytest.approx(1.0)
        assert trans.grad == pytest.approx(-2.0)

    def test_breakdown_csv_row_layout(self):
        lb = LossBreakdown(mae=0.5)
        assert LossBreakdown.csv_header() == \
            "step,mae,adv_g,noise,trans,spre,total_g,total_d"
        assert lb.csv_row(3).startswith("3,0.500000,")


class TestOptimizationDirections:
    def test_small_step_on_noise_loss_does_not_increase_it(self):
        # plain gradient step, sizes <= 1e-4, across 5 seeds
        fe = FeatureExtractor()
        cfg = GeneratorConfig(n_blocks=1, base_channels=4, growth_channels=3)
        for seed in range(5):
            gen = Generator(cfg, seed=seed)
            # non-zero output head so features can move
            rng = np.random.default_rng(50 + seed)
            gen._params["conv_last.weight"].data = (
                rng.standard_normal(
                    gen._params["conv_last.weight"].shape) * 0.05
            ).astype(np.float32)
            lr_img = Tensor(rng.random((1, 1, 12, 12)))
            noise_img = Tensor(rng.random((1, 1, 24, 24)))
            nf = [f.detach() for f in fe(noise_img)]

            def loss_value():
                return T.scale(l_noise(fe(gen(lr_img)), nf, [0.0, 1.0, 0.0]),
                               0.1)

            before = loss_value()
            T.backward(before)
            for p in gen.parameters():
                if p.grad is not None:
                    p.data -= 1e-4 * p.grad
            after = loss_value()
            assert after.item() <= before.item() + 1e-9

    def test_trans_raw_increases_with_blur_strength(self):
        # blurring one side more should not shrink the Sobel gap, on at
        # least 90% of a textured corpus
        ok = 0
        n = 50
        for i in range(n):
            _, vis = render_pair(SyntheticSceneSpec(count=1, extent=24,
                                                    seed=3000 + i), 0)
            from dasr.imaging import to_luma
            base = to_luma(vis)
            vals = []
            for sigma in (1.0, 3.0, 5.0):
                blurred = gaussian_blur(base, sigma)
                vals.append(sobel_l1(
                    Tensor(base.array.transpose(2, 0, 1)[None]),
                    Tensor(blurred.array.transpose(2, 0, 1)[None])).item())
            if vals[0] <= vals[1] <= vals[2]:
                ok += 1
        assert ok >= 0.9 * n

    def test_losses_finite_on_unit_interval_inputs(self):
        rng = np.random.default_rng(8)
        real = Tensor(rng.random((2, 1)))
        fake = Tensor(rng.random((2, 1)))
        assert np.isfinite(l_adversarial_d(real, fake).item())
        assert np.isfinite(l_adversarial_g(fake).item())
        a = Tensor(rng.random((1, 1, 8, 8)))
        b = Tensor(rng.random((1, 1, 8, 8)))
        assert np.isfinite(sobel_l1(a, b).item())
