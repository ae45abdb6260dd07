"""Image quality metrics in the 8-bit domain, plus benchmark aggregation.

MSE, PSNR and SSIM quantize both images to the 8-bit grid first and work
in 0..255 units, which pins MAX = 255. SSIM is the standard 11x11
Gaussian-window (sigma 1.5) mean.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .imaging import (Image, correlate_valid, gaussian_kernel, quantize8,
                      to_luma)

PSNR_MAX = 255.0

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5


@dataclass
class MetricReport:
    psnr: float
    mse: float
    ssim: float


@dataclass
class BenchRow:
    """One benchmark-table row: the ``mean_report`` of a set of pairs."""

    dataset: str
    scale: int
    psnr: float
    mse: float
    ssim: float
    count: int
    psnr_inf_count: int = 0


def _check_pair(hr: Image, sr: Image, op: str) -> None:
    if (hr.height, hr.width, hr.channels) != (sr.height, sr.width,
                                              sr.channels):
        raise ValueError(
            f"{op}: extent mismatch {hr.height}x{hr.width}x{hr.channels} vs "
            f"{sr.height}x{sr.width}x{sr.channels}")


def mse(hr: Image, sr: Image) -> float:
    """Mean squared difference on the 8-bit grid, in 0..255 units."""
    _check_pair(hr, sr, "mse")
    a = quantize8(hr).astype(np.float64)
    b = quantize8(sr).astype(np.float64)
    d = a - b
    return float((d * d).mean())


def _psnr_of_mse(m: float) -> float:
    if m == 0.0:
        return float("inf")
    return float(10.0 * np.log10(PSNR_MAX * PSNR_MAX / m))


def psnr(hr: Image, sr: Image) -> float:
    """10*log10(255^2 / MSE); +inf when the images are identical."""
    return _psnr_of_mse(mse(hr, sr))


def ssim(hr: Image, sr: Image) -> float:
    """Structural similarity between two images: the mean of the
    per-window formula over sliding 11x11 Gaussian windows (valid positions
    only), on the 8-bit grid. Multi-channel input is converted to
    luminance."""
    _check_pair(hr, sr, "ssim")
    a = quantize8(to_luma(hr)).astype(np.float64)[:, :, 0]
    b = quantize8(to_luma(sr)).astype(np.float64)[:, :, 0]
    c1 = (0.01 * PSNR_MAX) ** 2
    c2 = (0.03 * PSNR_MAX) ** 2
    w = SSIM_WINDOW
    if a.shape[0] < w or a.shape[1] < w:
        raise ValueError(
            f"ssim: image {a.shape[0]}x{a.shape[1]} smaller than the "
            f"{w}x{w} window")
    k = gaussian_kernel(w // 2, SSIM_SIGMA)
    kern = np.outer(k, k)
    mu1 = correlate_valid(a, kern)
    mu2 = correlate_valid(b, kern)
    m11 = correlate_valid(a * a, kern)
    m22 = correlate_valid(b * b, kern)
    m12 = correlate_valid(a * b, kern)
    var1 = m11 - mu1 * mu1
    var2 = m22 - mu2 * mu2
    cov = m12 - mu1 * mu2
    ssim_map = (((2.0 * mu1 * mu2 + c1) * (2.0 * cov + c2))
                / ((mu1 * mu1 + mu2 * mu2 + c1) * (var1 + var2 + c2)))
    return float(ssim_map.mean())


def metric_report(hr: Image, sr: Image) -> MetricReport:
    m = mse(hr, sr)
    return MetricReport(psnr=_psnr_of_mse(m), mse=m, ssim=ssim(hr, sr))


def mean_report(reports: Sequence[MetricReport]) -> tuple[MetricReport, int]:
    """Arithmetic means over per-pair reports, and the number of pairs with
    infinite PSNR (zero MSE): those are left out of the PSNR mean, which is
    +inf when every pair is identical."""
    if not reports:
        raise ValueError("mean_report: empty pair list")
    psnrs = [r.psnr for r in reports if not np.isinf(r.psnr)]
    mean = MetricReport(
        psnr=float(np.mean(psnrs)) if psnrs else float("inf"),
        mse=float(np.mean([r.mse for r in reports])),
        ssim=float(np.mean([r.ssim for r in reports])))
    return mean, len(reports) - len(psnrs)


def evaluate_set(pairs: Sequence[tuple[Image, Image]], name: str,
                 scale: int) -> BenchRow:
    """The benchmark row of (hr, sr) pairs, averaged by ``mean_report``."""
    mean, inf_count = mean_report([metric_report(hr, sr) for hr, sr in pairs])
    return BenchRow(dataset=name, scale=scale, psnr=mean.psnr, mse=mean.mse,
                    ssim=mean.ssim, count=len(pairs), psnr_inf_count=inf_count)


BENCH_CSV_HEADER = "dataset,scale,psnr,mse,ssim,n"


def _fmt(v: float) -> str:
    return "inf" if np.isinf(v) else f"{v:.4f}"


def bench_csv(rows: Sequence[BenchRow]) -> str:
    lines = [BENCH_CSV_HEADER]
    for r in rows:
        lines.append(f"{r.dataset},{r.scale},{_fmt(r.psnr)},{_fmt(r.mse)},"
                     f"{_fmt(r.ssim)},{r.count}")
    return "\n".join(lines) + "\n"


def bench_markdown(rows: Sequence[BenchRow]) -> str:
    lines = ["| Dataset | Scale | PSNR↑ | MSE↓ | SSIM↑ | n |",
             "|---|---|---|---|---|---|"]
    for r in rows:
        lines.append(f"| {r.dataset} | x{r.scale} | {_fmt(r.psnr)} | "
                     f"{_fmt(r.mse)} | {_fmt(r.ssim)} | {r.count} |")
    return "\n".join(lines) + "\n"
