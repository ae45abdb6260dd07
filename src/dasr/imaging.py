"""Images, degradation operators, and the Sobel pair and edge-magnitude map.

An Image wraps an [H, W, C] float array with samples in [0, 1] and C in
{1, 3}. All operators here are pure functions of their inputs and seeds.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from . import pngio
from .rng import generator
from .spec import SCALES, Spec, opt

_LUMA_WEIGHTS = np.array([0.299, 0.587, 0.114])


class Image:
    """H x W x C float raster in [0, 1], channel-last, C in {1, 3}."""

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray):
        arr = np.asarray(array, dtype=np.float64)
        if arr.ndim == 2:
            arr = arr[:, :, None]
        if arr.ndim != 3 or arr.shape[2] not in (1, 3):
            raise ValueError(
                f"Image: expected [H,W,C] with C in {{1,3}}, got {arr.shape}")
        self.array = arr

    @property
    def height(self) -> int:
        return self.array.shape[0]

    @property
    def width(self) -> int:
        return self.array.shape[1]

    @property
    def channels(self) -> int:
        return self.array.shape[2]

    def copy(self) -> "Image":
        return Image(self.array.copy())

    def __repr__(self) -> str:
        return f"Image({self.height}x{self.width}x{self.channels})"


@dataclass
class DegradationSpec(Spec):
    """How HR images are turned into LR: blur -> bicubic /scale -> noise."""

    scale: int = opt(2, "downscale factor", choices=SCALES)
    blur_sigma: float = opt(0.0, "Gaussian blur sigma, 0 disables", ge=0)
    noise_sigma: float = opt(0.0, "additive noise sigma, 0 disables", ge=0)
    seed: int = opt(0, "noise seed")


# ---------------------------------------------------------------------------
# I/O
# ---------------------------------------------------------------------------

def quantize8(img: Image) -> np.ndarray:
    """Map to the 8-bit grid: floor(clamp(v,0,1)*255 + 0.5) as uint8."""
    return np.floor(np.clip(img.array, 0.0, 1.0) * 255.0 + 0.5).astype(np.uint8)


def load_image(path: str) -> Image:
    """Load an 8-bit grayscale/RGB PNG or binary PGM/PPM as floats v/255."""
    if not os.path.exists(path):
        raise FileNotFoundError(f"image not found: {path}")
    with open(path, "rb") as fh:
        head = fh.read(2)
    if head == b"\x89P":
        pixels = pngio.read_png(path)
    elif head in (b"P5", b"P6"):
        pixels = pngio.read_pnm(path)
    else:
        raise pngio.ImageFormatError(
            f"{path}: unsupported format (need PNG or binary PGM/PPM)")
    return Image(pixels.astype(np.float64) / 255.0)


def save_image(img: Image, path: str) -> None:
    """Write 8-bit PNG / PGM / PPM depending on the file extension."""
    pixels = quantize8(img)
    ext = os.path.splitext(path)[1].lower()
    if ext == ".png":
        pngio.write_png(path, pixels)
    elif ext == ".pgm":
        if img.channels != 1:
            raise pngio.ImageFormatError(
                f"{path}: PGM holds 1 channel, image has {img.channels}")
        pngio.write_pnm(path, pixels)
    elif ext == ".ppm":
        if img.channels != 3:
            raise pngio.ImageFormatError(
                f"{path}: PPM holds 3 channels, image has {img.channels}")
        pngio.write_pnm(path, pixels)
    else:
        raise pngio.ImageFormatError(f"{path}: unsupported extension {ext!r}")


def to_luma(img: Image) -> Image:
    """Rec.601 luminance; identity on single-channel images."""
    if img.channels == 1:
        return img
    return Image(img.array @ _LUMA_WEIGHTS[:, None])


# ---------------------------------------------------------------------------
# resampling
# ---------------------------------------------------------------------------

def _cubic_kernel(t: np.ndarray, a: float = -0.5) -> np.ndarray:
    at = np.abs(t)
    at2 = at * at
    at3 = at2 * at
    near = (a + 2.0) * at3 - (a + 3.0) * at2 + 1.0
    far = a * at3 - 5.0 * a * at2 + 8.0 * a * at - 4.0 * a
    return np.where(at <= 1.0, near, np.where(at < 2.0, far, 0.0))


def _resize_weights(n_in: int, n_out: int) -> tuple[np.ndarray, np.ndarray]:
    """Per output sample: contributing source indices and normalized weights.

    Downscaling widens the kernel support by the scale factor (antialias);
    out-of-range source coordinates are clamped, which replicates edges.
    """
    scale = n_in / n_out
    support = 2.0 * max(scale, 1.0)
    width = int(np.ceil(support)) * 2 + 1
    centers = (np.arange(n_out) + 0.5) * scale - 0.5
    left = np.floor(centers - support).astype(np.int64) + 1
    idx = left[:, None] + np.arange(width)[None, :]
    t = (idx - centers[:, None])
    if scale > 1.0:
        weights = _cubic_kernel(t / scale)
    else:
        weights = _cubic_kernel(t)
    weights /= weights.sum(axis=1, keepdims=True)
    idx = np.clip(idx, 0, n_in - 1)
    return idx, weights


def bicubic_resize(img: Image, out_h: int, out_w: int) -> Image:
    """Separable Catmull-Rom (a = -0.5) resize, antialiased on downscale."""
    if out_h < 1 or out_w < 1:
        raise ValueError(f"bicubic_resize: bad output extents {out_h}x{out_w}")
    arr = img.array
    idx_h, w_h = _resize_weights(arr.shape[0], out_h)
    idx_w, w_w = _resize_weights(arr.shape[1], out_w)
    # rows: for each output row i, weighted sum of source rows idx_h[i]
    tmp = np.einsum("irwc,ir->iwc", arr[idx_h], w_h)
    out = np.einsum("ijrc,jr->ijc", tmp[:, idx_w], w_w)
    return Image(np.clip(out, 0.0, 1.0))


def gaussian_kernel(radius: int, sigma: float) -> np.ndarray:
    """Normalised 1-D Gaussian over the offsets -radius..radius (float64)."""
    xs = np.arange(-radius, radius + 1, dtype=np.float64)
    kernel = np.exp(-(xs * xs) / (2.0 * sigma * sigma))
    return kernel / kernel.sum()


def gaussian_blur(img: Image, sigma: float) -> Image:
    """Separable Gaussian, radius ceil(3*sigma), reflect padding at borders."""
    if sigma < 0:
        raise ValueError(f"gaussian_blur: sigma must be >= 0, got {sigma}")
    if sigma == 0:
        return img.copy()
    radius = int(np.ceil(3.0 * sigma))
    kernel = gaussian_kernel(radius, sigma)

    arr = img.array
    padded = np.pad(arr, ((radius, radius), (0, 0), (0, 0)), mode="reflect")
    windows = np.lib.stride_tricks.sliding_window_view(padded,
                                                       2 * radius + 1, axis=0)
    arr = np.einsum("hwck,k->hwc", windows, kernel)
    padded = np.pad(arr, ((0, 0), (radius, radius), (0, 0)), mode="reflect")
    windows = np.lib.stride_tricks.sliding_window_view(padded,
                                                       2 * radius + 1, axis=1)
    arr = np.einsum("hwck,k->hwc", windows, kernel)
    return Image(np.clip(arr, 0.0, 1.0))


def add_gaussian_noise(img: Image, sigma: float, seed: int) -> Image:
    """Add i.i.d. N(0, sigma^2) per sample and clamp back to [0, 1]."""
    if sigma < 0:
        raise ValueError(f"add_gaussian_noise: sigma must be >= 0, got {sigma}")
    if sigma == 0:
        return img.copy()
    rng = generator(seed, "gaussian-noise")
    noise = rng.normal(0.0, sigma, size=img.array.shape)
    return Image(np.clip(img.array + noise, 0.0, 1.0))


def correlate_valid(x: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Valid 2-D cross-correlation over the last two axes of ``x``; reads
    the windows as a view, so no array of window copies is built."""
    win = np.lib.stride_tricks.sliding_window_view(x, kernel.shape, (-2, -1))
    return np.einsum("...hwij,ij->...hw", win, kernel)


def sobel_pair(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The valid Sobel pair over the last two axes of ``x``, each
    (H-2) x (W-2): gh correlates with [1, 2, 1]ᵀ ⊗ [-1, 0, 1] (the
    horizontal derivative), gv with its transpose. Separable: a row and a
    column pass of three taps each, in the dtype of ``x``."""
    smooth = x[..., :-2, :] + x[..., 2:, :]
    smooth += 2 * x[..., 1:-1, :]
    diff = x[..., 2:, :] - x[..., :-2, :]
    gh = smooth[..., 2:] - smooth[..., :-2]
    gv = diff[..., :-2] + diff[..., 2:]
    gv += 2 * diff[..., 1:-1]
    return gh, gv


def sobel_pair_adjoint(dgh: np.ndarray, dgv: np.ndarray) -> np.ndarray:
    """The transpose of ``sobel_pair``: the gradient of x, H x W, given
    those of gh and gv."""
    *lead, h, w = dgh.shape
    dsmooth = np.zeros((*lead, h, w + 2), dtype=dgh.dtype)
    dsmooth[..., 2:] = dgh
    dsmooth[..., :-2] -= dgh
    ddiff = np.zeros_like(dsmooth)
    ddiff[..., :-2] = dgv
    ddiff[..., 2:] += dgv
    ddiff[..., 1:-1] += 2 * dgv
    dx = np.zeros((*lead, h + 2, w + 2), dtype=dgh.dtype)
    dx[..., :-2, :] = dsmooth - ddiff
    dx[..., 2:, :] += dsmooth + ddiff
    dx[..., 1:-1, :] += 2 * dsmooth
    return dx


def sobel_map(img: Image) -> np.ndarray:
    """Valid-region Sobel magnitude sqrt(gh² + gv²), (H-2) x (W-2), float64.

    Multi-channel images are converted to luminance first. Cross-correlation
    semantics, matching the tensor convolution convention.
    """
    gray = to_luma(img).array[:, :, 0]
    if gray.shape[0] < 3 or gray.shape[1] < 3:
        raise ValueError(
            f"sobel_map: image {gray.shape[0]}x{gray.shape[1]} smaller than 3x3")
    gh, gv = sobel_pair(gray)
    return np.sqrt(gh * gh + gv * gv)


def random_paired_crop(lr: Image, hr: Image, lr_size: int, scale: int,
                       seed: int) -> tuple[Image, Image]:
    """Aligned random crops: LR of lr_size^2 and HR of (scale*lr_size)^2.

    The HR crop corner is exactly scale times the LR crop corner.
    """
    if hr.height != scale * lr.height or hr.width != scale * lr.width:
        raise ValueError(
            f"random_paired_crop: HR {hr.height}x{hr.width} is not {scale}x "
            f"the LR {lr.height}x{lr.width}")
    if lr_size > lr.height or lr_size > lr.width:
        raise ValueError(
            f"random_paired_crop: crop {lr_size} exceeds LR extents "
            f"{lr.height}x{lr.width}")
    rng = generator(seed, "paired-crop")
    oy = int(rng.integers(0, lr.height - lr_size + 1))
    ox = int(rng.integers(0, lr.width - lr_size + 1))
    lr_crop = Image(lr.array[oy:oy + lr_size, ox:ox + lr_size].copy())
    hy, hx, hs = scale * oy, scale * ox, scale * lr_size
    hr_crop = Image(hr.array[hy:hy + hs, hx:hx + hs].copy())
    return lr_crop, hr_crop


def crop_to_scale(img: Image, scale: int) -> Image:
    """``img`` cropped down to extents divisible by ``scale``; an extent
    below ``scale`` is refused."""
    h = (img.height // scale) * scale
    w = (img.width // scale) * scale
    if h == 0 or w == 0:
        raise ValueError(
            f"image {img.height}x{img.width} too small for scale {scale}")
    if h == img.height and w == img.width:
        return img
    return Image(img.array[:h, :w])


def degrade(hr: Image, spec: DegradationSpec, sample_seed: int) -> Image:
    """HR -> LR along the configured path: crop to a multiple of the scale,
    blur, bicubic /scale, noise."""
    img = hr = crop_to_scale(hr, spec.scale)
    if spec.blur_sigma > 0:
        img = gaussian_blur(img, spec.blur_sigma)
    img = bicubic_resize(img, hr.height // spec.scale, hr.width // spec.scale)
    if spec.noise_sigma > 0:
        img = add_gaussian_noise(img, spec.noise_sigma, sample_seed)
    return img
