"""PSNR / MSE / SSIM against independent scalar references."""

import tracemalloc

import numpy as np
import pytest

from dasr.imaging import Image, gaussian_blur, quantize8
from dasr.metrics import (BENCH_CSV_HEADER, BenchRow, bench_csv,
                          bench_markdown, evaluate_set, mse, psnr, ssim)
from dasr.synth import SyntheticSceneSpec, render_pair


def mse_oracle(a, b):
    qa = quantize8(a).astype(np.float64)
    qb = quantize8(b).astype(np.float64)
    acc = 0.0
    for x, y in zip(qa.flat, qb.flat):
        acc += (x - y) ** 2
    return acc / qa.size


def ssim_oracle(a, b, window=11, sigma=1.5):
    """Scalar sliding-window SSIM on the 8-bit grid."""
    qa = quantize8(a).astype(np.float64)[:, :, 0]
    qb = quantize8(b).astype(np.float64)[:, :, 0]
    xs = np.arange(window) - (window - 1) / 2
    k1 = np.exp(-(xs ** 2) / (2 * sigma ** 2))
    kern = np.outer(k1, k1)
    kern /= kern.sum()
    c1, c2 = (0.01 * 255) ** 2, (0.03 * 255) ** 2
    h, w = qa.shape
    vals = []
    for i in range(h - window + 1):
        for j in range(w - window + 1):
            wa = qa[i:i + window, j:j + window]
            wb = qb[i:i + window, j:j + window]
            mu1 = (kern * wa).sum()
            mu2 = (kern * wb).sum()
            var1 = (kern * wa * wa).sum() - mu1 ** 2
            var2 = (kern * wb * wb).sum() - mu2 ** 2
            cov = (kern * wa * wb).sum() - mu1 * mu2
            vals.append(((2 * mu1 * mu2 + c1) * (2 * cov + c2))
                        / ((mu1 ** 2 + mu2 ** 2 + c1) * (var1 + var2 + c2)))
    return float(np.mean(vals))


def rand_img(rng, h=16, w=16):
    return Image(rng.random((h, w, 1)))


class TestMse:
    def test_identical_is_zero(self):
        rng = np.random.default_rng(0)
        img = rand_img(rng)
        assert mse(img, img) == 0.0

    def test_two_grid_levels(self):
        a = Image(np.full((5, 5, 1), 10 / 255.0))
        b = Image(np.full((5, 5, 1), 12 / 255.0))
        assert mse(a, b) == pytest.approx(4.0)

    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(1)
        a, b = rand_img(rng), rand_img(rng)
        assert abs(mse(a, b) - mse_oracle(a, b)) < 1e-9

    def test_symmetry_exact(self):
        rng = np.random.default_rng(2)
        a, b = rand_img(rng), rand_img(rng)
        assert mse(a, b) == mse(b, a)

    def test_extent_mismatch(self):
        with pytest.raises(ValueError, match="extent mismatch"):
            mse(Image(np.zeros((4, 4, 1))), Image(np.zeros((4, 5, 1))))


class TestPsnr:
    def test_identical_is_inf(self):
        img = Image(np.full((4, 4, 1), 0.3))
        assert np.isinf(psnr(img, img))

    def test_known_values(self):
        # images at exactly 2 grid levels apart -> MSE 4
        a = Image(np.full((8, 8, 1), 100 / 255.0))
        b = Image(np.full((8, 8, 1), 102 / 255.0))
        value = psnr(a, b)
        exact = 10.0 * np.log10(255.0 ** 2 / 4.0)
        assert value == pytest.approx(exact, abs=1e-9)
        assert value == pytest.approx(42.1113, rel=1e-3)
        # MSE 1 -> 48.1308 dB
        c = Image(np.full((8, 8, 1), 101 / 255.0))
        assert psnr(a, c) == pytest.approx(48.1308, abs=1e-3)

    def test_monotone_decreasing_in_mse(self):
        base = Image(np.full((6, 6, 1), 0.5))
        values = []
        for k in (1, 2, 4, 8, 16):
            other = Image(np.full((6, 6, 1), 0.5 + k / 255.0))
            values.append(psnr(base, other))
        assert all(x > y for x, y in zip(values, values[1:]))


class TestSsim:
    def test_identical_is_one(self):
        rng = np.random.default_rng(3)
        img = rand_img(rng)
        assert ssim(img, img) == 1.0

    def test_matches_scalar_sliding_window_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(3):
            a, b = rand_img(rng, 14, 14), rand_img(rng, 14, 14)
            assert abs(ssim(a, b) - ssim_oracle(a, b)) < 1e-5

    def test_symmetric(self):
        rng = np.random.default_rng(5)
        a, b = rand_img(rng), rand_img(rng)
        assert abs(ssim(a, b) - ssim(b, a)) < 1e-7

    def test_window_size_guard(self):
        with pytest.raises(ValueError, match="window"):
            ssim(Image(np.zeros((8, 8, 1))), Image(np.zeros((8, 8, 1))))

    def test_memory_stays_near_the_image_size(self):
        # the window sums read windows as views: a 160x160 pair must not
        # build a window-copy array (121 times the image, 22 MB)
        rng = np.random.default_rng(6)
        a, b = rand_img(rng, 160, 160), rand_img(rng, 160, 160)
        tracemalloc.start()
        try:
            ssim(a, b)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20


class TestBlurDirection:
    def test_psnr_non_increasing_with_blur_sigma(self):
        # degrading with sigma 1 -> 3 -> 5 must not raise PSNR for at least
        # 95% of a 50-image corpus
        ok = 0
        n = 50
        for i in range(n):
            ir, _ = render_pair(SyntheticSceneSpec(count=1, extent=32,
                                                   seed=1000 + i), 0)
            values = [psnr(ir, gaussian_blur(ir, s)) for s in (1.0, 3.0, 5.0)]
            if values[0] >= values[1] >= values[2]:
                ok += 1
        assert ok >= 0.95 * n


class TestEvaluateSet:
    def test_single_pair_equals_its_metrics(self):
        rng = np.random.default_rng(6)
        a, b = rand_img(rng), rand_img(rng)
        row = evaluate_set([(a, b)], "one", 2)
        assert row.psnr == pytest.approx(psnr(a, b))
        assert row.mse == pytest.approx(mse(a, b))
        assert row.ssim == pytest.approx(ssim(a, b))
        assert row.count == 1

    def test_mean_of_two(self):
        base = Image(np.full((12, 12, 1), 0.5))
        b1 = Image(np.full((12, 12, 1), 0.5 + 2 / 255.0))
        b2 = Image(np.full((12, 12, 1), 0.5 + 4 / 255.0))
        row = evaluate_set([(base, b1), (base, b2)], "two", 2)
        want = (psnr(base, b1) + psnr(base, b2)) / 2
        assert row.psnr == pytest.approx(want)

    def test_identical_pairs_report_inf_separately(self):
        img = Image(np.full((12, 12, 1), 0.25))
        row = evaluate_set([(img, img)] * 3, "same", 2)
        assert row.mse == 0.0
        assert row.ssim == 1.0
        assert row.psnr_inf_count == 3
        assert np.isinf(row.psnr)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            evaluate_set([], "none", 2)


class TestSerialization:
    def test_csv_column_order(self):
        row = BenchRow("set", 2, 40.0, 1.5, 0.99, 7)
        text = bench_csv([row])
        assert text.splitlines()[0] == BENCH_CSV_HEADER
        assert BENCH_CSV_HEADER == "dataset,scale,psnr,mse,ssim,n"
        assert text.splitlines()[1] == "set,2,40.0000,1.5000,0.9900,7"

    def test_markdown_matches_benchmark_column_order(self):
        row = BenchRow("set", 4, float("inf"), 0.0, 1.0, 2, 2)
        text = bench_markdown([row])
        header = text.splitlines()[0]
        assert header.index("PSNR↑") < header.index("MSE↓") \
            < header.index("SSIM↑")
        assert "| inf |" in text.splitlines()[2]
