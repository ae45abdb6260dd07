"""Aligned infrared/visible scene synthesis and dataset manifests.

A synthetic scene is a mix of smooth gradients, rectangles, sinusoid
gratings, and step edges. The IR rendering remaps the luminance curve and
applies a mild blur; the visible rendering colorizes the scene and adds
fine high-frequency texture. By construction the visible image of every
pair carries more Sobel energy than its IR counterpart, mirroring the
texture gap the training stage exploits.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field, replace
from typing import Optional

import numpy as np

from .imaging import (DegradationSpec, Image, degrade, gaussian_blur,
                      load_image, save_image, sobel_map)
from .rng import derive_seed, generator
from .spec import Spec, json_object, opt


# scene content: rectangles and gratings per scene, the IR blur, and the
# amplitude of the visible image's fine texture
N_RECTS = 3
N_GRATINGS = 2
IR_BLUR_SIGMA = 0.8
VIS_TEXTURE_AMP = 0.08

# draws after the first that a pair may take to keep its texture margin
REDRAWS = 4


@dataclass
class SyntheticSceneSpec(Spec):
    count: int = opt(8, "number of pairs", ge=1)
    extent: int = opt(96, "HR extent in pixels", flag="--size", ge=16)
    seed: int = opt(0, "scene seed")


@dataclass
class ManifestEntry:
    ir: str
    vis: Optional[str] = None


@dataclass
class DatasetManifest:
    degradation: DegradationSpec
    entries: list[ManifestEntry] = field(default_factory=list)
    base_dir: str = "."

    @property
    def scale(self) -> int:
        return self.degradation.scale

    def save(self, path: str) -> None:
        degradation = asdict(self.degradation)
        doc = {
            "scale": degradation.pop("scale"),
            "degradation": degradation,
            "entries": [
                {"ir": e.ir, **({"vis": e.vis} if e.vis else {})}
                for e in self.entries
            ],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")

    @staticmethod
    def load(path: str) -> "DatasetManifest":
        """Read a manifest; any malformed content raises ValueError
        naming ``path``."""
        try:  # JSON, UTF-8 and content errors all get the path
            with open(path, encoding="utf-8") as fh:
                doc = json_object(json.load(fh), "manifest")
            for key in ("scale", "entries"):
                if key not in doc:
                    raise ValueError(f"manifest has no {key!r} key")
            if not isinstance(doc["entries"], list):
                raise ValueError("manifest 'entries' must be a list")
            for i, e in enumerate(doc["entries"]):
                if not isinstance(e, dict) or "ir" not in e:
                    raise ValueError(f"manifest entry {i} has no 'ir' key")
                if not isinstance(e["ir"], str) \
                        or not isinstance(e.get("vis"), (str, type(None))):
                    raise ValueError(f"manifest entry {i}: 'ir' and 'vis' "
                                     f"must be strings")
            degradation = replace(DegradationSpec.from_dict(
                doc.get("degradation", {}), "degradation"), scale=doc["scale"])
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        return DatasetManifest(
            degradation=degradation,
            entries=[ManifestEntry(ir=e["ir"], vis=e.get("vis"))
                     for e in doc["entries"]],
            base_dir=os.path.dirname(os.path.abspath(path)),
        )

    def load_ir(self, idx: int) -> Image:
        """The HR IR image of entry ``idx``, cropped down to extents
        divisible by the scale."""
        return self._load(self.entries[idx].ir)

    def load_vis(self, idx: int) -> Optional[Image]:
        """The aligned HR visible image of entry ``idx``, cropped as the IR
        one is; None when the entry has none."""
        vis = self.entries[idx].vis
        return None if vis is None else self._load(vis)

    def _load(self, rel: str) -> Image:
        img = load_image(os.path.join(self.base_dir, rel))
        h = (img.height // self.scale) * self.scale
        w = (img.width // self.scale) * self.scale
        if h < self.scale or w < self.scale:
            raise ValueError(
                f"image {img.height}x{img.width} too small for scale "
                f"{self.scale}")
        if h == img.height and w == img.width:
            return img
        return Image(img.array[:h, :w])

    def lr_for(self, hr: Image, idx: int, stream: str) -> Image:
        """Degraded LR for one entry; noise seeded per (entry, stream)."""
        return degrade(hr, self.degradation,
                       derive_seed(self.degradation.seed, stream, idx))


def _coords(extent: int) -> tuple[np.ndarray, np.ndarray]:
    ax = np.linspace(0.0, 1.0, extent)
    return np.meshgrid(ax, ax, indexing="ij")


def _base_scene(extent: int, rng: np.random.Generator) -> np.ndarray:
    yy, xx = _coords(extent)
    theta = rng.uniform(0, 2 * np.pi)
    scene = 0.6 * (np.cos(theta) * xx + np.sin(theta) * yy)

    for _ in range(N_RECTS):
        y0, x0 = rng.uniform(0, 0.7, size=2)
        hgt, wid = rng.uniform(0.15, 0.4, size=2)
        val = rng.uniform(-0.5, 0.5)
        mask = ((yy >= y0) & (yy < y0 + hgt) & (xx >= x0) & (xx < x0 + wid))
        scene = scene + val * mask

    for _ in range(N_GRATINGS):
        freq = rng.uniform(2.0, 6.0)
        phase = rng.uniform(0, 2 * np.pi)
        ang = rng.uniform(0, np.pi)
        scene = scene + 0.2 * np.sin(
            2 * np.pi * freq * (np.cos(ang) * xx + np.sin(ang) * yy) + phase)

    # one hard step edge
    ang = rng.uniform(0, np.pi)
    off = rng.uniform(0.3, 0.7)
    scene = scene + 0.4 * ((np.cos(ang) * xx + np.sin(ang) * yy) > off)

    lo, hi = np.percentile(scene, [1, 99])
    scene = (scene - lo) / max(hi - lo, 1e-9)
    return np.clip(0.08 + 0.84 * scene, 0.0, 1.0)


def render_pair(spec: SyntheticSceneSpec, idx: int,
                redraw: int = 0) -> tuple[Image, Image]:
    """One aligned (ir, vis) pair at HR extents; ``redraw`` k > 0 draws
    the pair again from a seed derived from k."""
    labels = ("redraw", redraw) if redraw else ()
    rng = generator(spec.seed, "scene", idx, *labels)
    base = _base_scene(spec.extent, rng)

    # IR: luminance remap plus mild blur -> softer edges, 1 channel
    gamma = rng.uniform(0.7, 1.4)
    gain = rng.uniform(0.75, 0.95)
    lift = rng.uniform(0.02, 0.1)
    ir = Image(np.clip(lift + gain * base ** gamma, 0.0, 1.0)[:, :, None])
    ir = gaussian_blur(ir, IR_BLUR_SIGMA)

    # visible: colorized channels plus fine high-frequency texture
    yy, xx = _coords(spec.extent)
    channels = []
    for _ in range(3):
        cg = rng.uniform(0.6, 1.0)
        co = rng.uniform(0.0, 0.25)
        channels.append(np.clip(co + cg * base, 0.0, 1.0))
    vis = np.stack(channels, axis=-1)
    freq = spec.extent / rng.uniform(3.5, 5.0)
    ang = rng.uniform(0, np.pi)
    fine = np.sin(2 * np.pi * freq * (np.cos(ang) * xx + np.sin(ang) * yy))
    vis = vis + VIS_TEXTURE_AMP * fine[:, :, None]
    vis = vis + rng.normal(0.0, 0.35 * VIS_TEXTURE_AMP,
                           size=vis.shape)
    return ir, Image(np.clip(vis, 0.0, 1.0))


def make_synthetic_dataset(spec: SyntheticSceneSpec, out_dir: str,
                           degradation: Optional[DegradationSpec] = None
                           ) -> DatasetManifest:
    """Write aligned ir/ and vis/ PNG pairs plus manifest.json.

    Deterministic per seed; every pair satisfies
    mean sobel(vis) > mean sobel(ir). A pair whose first draw does not is
    redrawn, at most ``REDRAWS`` times, before the set is refused.
    """
    os.makedirs(os.path.join(out_dir, "ir"), exist_ok=True)
    os.makedirs(os.path.join(out_dir, "vis"), exist_ok=True)
    if degradation is None:
        degradation = DegradationSpec(seed=derive_seed(spec.seed,
                                                       "degradation"))
    manifest = DatasetManifest(degradation=degradation,
                               base_dir=os.path.abspath(out_dir))
    for i in range(spec.count):
        for redraw in range(REDRAWS + 1):
            ir, vis = render_pair(spec, i, redraw)
            if sobel_map(vis).mean() > sobel_map(ir).mean():
                break
        else:
            raise AssertionError(f"pair {i}: visible render lost its "
                                 f"texture margin in {REDRAWS + 1} draws")
        ir_rel = os.path.join("ir", f"{i:04d}.png")
        vis_rel = os.path.join("vis", f"{i:04d}.png")
        save_image(ir, os.path.join(out_dir, ir_rel))
        save_image(vis, os.path.join(out_dir, vis_rel))
        manifest.entries.append(ManifestEntry(ir=ir_rel, vis=vis_rel))
    manifest.save(os.path.join(out_dir, "manifest.json"))
    return manifest

