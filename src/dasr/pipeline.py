"""Two-stage training, checkpointing glue, and evaluation runs.

Stage 1 learns the LR -> HR infrared mapping from paired IR crops (pixel
MAE, optionally adversarial). Stage 2 starts from the stage-1 generator and
adapts on visible/IR pairs: the texture discriminator trains against the
prior loss while the generator trains on MAE plus the noise repulsion term
(plus the adversarial term when enabled).

Everything is deterministic per (seed, config, manifest): identical runs
produce byte-identical checkpoints and logs.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass
from typing import Callable, Optional

import numpy as np

from . import losses, tensor as T
from .checkpoint import Checkpoint, atomic_write
from .imaging import (Image, add_gaussian_noise, bicubic_resize,
                      random_paired_crop, save_image, to_luma)
from .losses import LossBreakdown
from .metrics import BenchRow, evaluate_set
from .models import (GENERATOR_PRESETS, PRIOR_DEPTHS, DiscSpre, DiscTrans,
                     FeatureExtractor, Generator, GeneratorConfig)
from .optim import AdamState, adam_step, clip_grad_norm
from .rng import derive_seed, generator
from .spec import SCALES, Spec, opt
from .synth import DatasetManifest
from .tensor import Tensor

# far above every real run, low enough that a typo cannot ask numpy for
# hundreds of GiB before the first step
MAX_BATCH = 1024
MAX_LR_CROP = 1024


@dataclass
class TrainConfig(Spec):
    """Every training setting. ``dasr train`` builds its flags from the
    fields with help text (see ``dasr.spec``); the step counts are set
    through ``--steps`` instead."""

    scale: int = opt(2, "upscaling factor", choices=SCALES)
    lr: float = opt(1e-5, "learning rate", gt=0)
    beta1: float = opt(0.9, "Adam beta1", ge=0, lt=1)
    beta2: float = opt(0.999, "Adam beta2", ge=0, lt=1)
    eps: float = opt(1e-8, "Adam epsilon", gt=0)
    batch: int = opt(4, "batch size", ge=1, le=MAX_BATCH)
    lr_crop: int = opt(64, "LR crop size", ge=1, le=MAX_LR_CROP)
    steps_stage1: int = opt(1000, ge=0)
    steps_stage2: int = opt(1000, ge=0)
    alpha: float = opt(0.1, "noise loss weight", ge=0)
    beta: float = opt(1.0, "texture prior loss weight", ge=0)
    prior_depth: str = opt("middle", "feature tap depth",
                           choices=PRIOR_DEPTHS)
    trans_mode: str = opt("prior-branch", "texture loss mode",
                          choices=losses.TRANS_MODES)
    noise_sigma: float = opt(0.1, "noise pattern sigma", ge=0)
    adv_enabled: bool = opt(True, "adversarial generator term",
                            flag="--adv")
    seed: int = opt(0, "run seed")
    preset: str = opt("desk", "generator preset",
                      choices=tuple(GENERATOR_PRESETS))
    prior_blocks: int = opt(2, "texture-prior branch blocks")
    grad_clip: float = opt(1.0, "global grad-norm clip, 0 disables")
    ir_replay: bool = opt(True, "stage-2 IR replay batches")
    init_trans_from_spre: bool = opt(
        False, "seed the texture discriminator's main branch from the "
               "stage-1 discriminator")
    feature_weights: Optional[list[float]] = opt(
        None, "comma-separated per-stage noise-loss weights (default: "
              "one-hot at --prior-depth)", ge=0)

    def hr_crop(self) -> int:
        return self.scale * self.lr_crop

    def to_dict(self) -> dict:
        return asdict(self)


def build_generator(config: TrainConfig) -> Generator:
    gen_cfg = GeneratorConfig(scale=config.scale,
                              **GENERATOR_PRESETS[config.preset])
    return Generator(gen_cfg, seed=derive_seed(config.seed, "init.gen"))


def noise_feature_weights(config: TrainConfig) -> list[float]:
    """The noise loss's weight for each FeatureExtractor stage:
    ``feature_weights`` when given, else one-hot at ``prior_depth``."""
    w = config.feature_weights
    if w is None:
        return [float(d == config.prior_depth) for d in PRIOR_DEPTHS]
    if len(w) != FeatureExtractor.K:
        raise ValueError(f"feature_weights needs {FeatureExtractor.K} "
                         f"entries, got {len(w)}")
    return [float(v) for v in w]


# ---------------------------------------------------------------------------
# dataset access
# ---------------------------------------------------------------------------

@dataclass
class _Sample:
    hr_ir: Image
    lr_ir: Image
    lr_vis_luma: Optional[Image]


def _load_samples(manifest: DatasetManifest, need_vis: bool) -> list[_Sample]:
    """Every entry's HR and LR IR images, plus its LR visible luma when
    ``need_vis`` (stage 2, which needs a visible image in every pair)."""
    if not manifest.entries:
        raise ValueError("manifest has no entries")
    samples = []
    for i in range(len(manifest.entries)):
        hr_ir = manifest.load_ir(i)
        lr_vis = None
        if need_vis:
            vis_hr = manifest.load_vis(i)
            if vis_hr is None:
                raise ValueError(
                    f"entry {i}: stage 2 needs a visible image for every pair")
            lr_vis = to_luma(manifest.lr_for(vis_hr, i, "vis-noise"))
        samples.append(_Sample(hr_ir=hr_ir,
                               lr_ir=manifest.lr_for(hr_ir, i, "ir-noise"),
                               lr_vis_luma=lr_vis))
    return samples


def _to_nchw(imgs: list[Image]) -> Tensor:
    arr = np.stack([im.array.transpose(2, 0, 1) for im in imgs])
    return Tensor(arr.astype(np.float32))


def _batch(samples: list[_Sample], rng: np.random.Generator,
           config: TrainConfig, use_vis: bool) -> tuple[Tensor, Tensor]:
    """(lr batch, hr-IR batch); LR comes from the visible or IR stream
    depending on the stage."""
    idxs = rng.integers(0, len(samples), size=config.batch)
    lr_list, hr_list = [], []
    for i in idxs:
        s = samples[int(i)]
        lr_img = s.lr_vis_luma if use_vis else s.lr_ir
        seed = int(rng.integers(0, 2 ** 62))
        lr_c, hr_c = random_paired_crop(lr_img, s.hr_ir, config.lr_crop,
                                        config.scale, seed)
        lr_list.append(lr_c)
        hr_list.append(hr_c)
    return _to_nchw(lr_list), _to_nchw(hr_list)


def _checkpoint(stage: str, config: TrainConfig, gen: Generator,
                disc=None, disc_prefix: str = "") -> Checkpoint:
    tensors = {f"gen.{k}": v.copy() for k, v in gen.named_tensors()}
    if disc is not None:
        tensors.update({f"{disc_prefix}.{k}": v.copy()
                        for k, v in disc.named_tensors()})
    return Checkpoint(stage=stage, config=config.to_dict(), tensors=tensors)


def _load_model_tensors(model, ckpt: Checkpoint, prefix: str) -> None:
    sub = {k[len(prefix) + 1:]: v for k, v in ckpt.tensors.items()
           if k.startswith(prefix + ".")}
    model.load_named_tensors(sub)


def generator_from_checkpoint(ckpt: Checkpoint) -> tuple[Generator,
                                                         TrainConfig]:
    config = TrainConfig.from_dict(ckpt.config)
    gen = build_generator(config)
    _load_model_tensors(gen, ckpt, "gen")
    return gen, config


def _update(model, loss: Tensor, state: AdamState, config: TrainConfig,
            step: int) -> None:
    """One optimizer step of ``model`` on ``loss``: backward, clip, Adam.
    The gradients start at zero, as the model's previous Adam step (or its
    packing) left them. A non-finite gradient norm stops the run before
    any parameter changes, naming the step and the first parameter (in
    sorted-name order) whose gradient is not finite."""
    T.backward(loss)
    params = model.parameters()
    norm = clip_grad_norm(params, config.grad_clip)
    if not np.isfinite(norm):
        bad = [p.name for p in params if not np.isfinite(p.grad).all()]
        where = f"; first non-finite gradient: {bad[0]}" if bad else ""
        raise ValueError(f"step {step}: non-finite gradient norm "
                         f"{norm}{where}")
    adam_step(params, state, config.lr, config.beta1, config.beta2,
              config.eps)


def _train(stage: str, manifest: DatasetManifest, config: TrainConfig,
           steps: int, log_path: Optional[str],
           step_fn: Callable[[list[_Sample], np.random.Generator, int],
                             LossBreakdown]) -> None:
    """The run loop of both stages: check the manifest scale, load the
    samples (stage 2 needs a visible image in every pair), seed the batch
    RNG from ``"<stage>.batches"``, call ``step_fn(samples, rng, step)`` for
    each step and write the per-step loss CSV once at the end. A step's
    graphs live only in ``step_fn``'s locals, so they are freed when it
    returns."""
    if manifest.scale != config.scale:
        raise ValueError(f"manifest scale {manifest.scale} != config scale "
                         f"{config.scale}")
    samples = _load_samples(manifest, need_vis=stage == "stage2")
    rng = generator(config.seed, f"{stage}.batches")
    rows = [LossBreakdown.csv_header()]
    for step in range(steps):
        rows.append(step_fn(samples, rng, step).csv_row(step))
    if log_path:
        atomic_write(log_path, ("\n".join(rows) + "\n").encode("utf-8"))


# ---------------------------------------------------------------------------
# stage 1
# ---------------------------------------------------------------------------

def train_stage1(manifest: DatasetManifest, config: TrainConfig,
                 log_path: Optional[str] = None) -> Checkpoint:
    """Alternating discriminator/generator steps on IR pairs.

    The discriminator minimizes the real/fake cross-entropy; the generator
    minimizes pixel MAE (plus the adversarial term when enabled). With the
    adversarial path disabled the discriminator is left untouched.
    """
    gen = build_generator(config)
    dspre = DiscSpre(in_hw=config.hr_crop(),
                     seed=derive_seed(config.seed, "init.dspre"))
    # packed before the first forward, so no graph keeps the arrays the
    # packing replaces; a discriminator that never steps is not packed
    g_state = AdamState(gen)
    d_state = AdamState(dspre) if config.adv_enabled else None

    def step(samples, rng, i) -> LossBreakdown:
        lr_t, hr_t = _batch(samples, rng, config, use_vis=False)
        lb = LossBreakdown()

        sr_fake = gen(lr_t)

        if config.adv_enabled:
            d_loss = losses.l_adversarial_d(dspre(hr_t),
                                            dspre(sr_fake.detach()))
            _update(dspre, d_loss, d_state, config, i)
            lb.spre = -d_loss.item()
            lb.total_d = d_loss.item()

        mae = losses.l_mae(sr_fake, hr_t)
        adv_g = None
        # the discriminator is a constant in the generator step
        with dspre.untracked():
            if config.adv_enabled:
                adv_g = losses.l_adversarial_g(dspre(sr_fake))
                lb.adv_g = adv_g.item()
            g_loss = losses.combine_g(mae, None, adv_g, config.alpha)
            _update(gen, g_loss, g_state, config, i)
        lb.mae = mae.item()
        lb.total_g = g_loss.item()
        return lb

    _train("stage1", manifest, config, config.steps_stage1, log_path, step)
    return _checkpoint("stage1", config, gen, dspre, "dspre")


# ---------------------------------------------------------------------------
# stage 2
# ---------------------------------------------------------------------------

def _noise_image(lr_vis_luma: Image, hr_size: tuple[int, int], sigma: float,
                 seed: int) -> Image:
    """The noise pattern: the visible luma upscaled to HR extents with
    Gaussian noise on top."""
    up = bicubic_resize(lr_vis_luma, hr_size[0], hr_size[1])
    return add_gaussian_noise(up, sigma, seed)


def train_stage2(stage1_ckpt: Checkpoint, manifest: DatasetManifest,
                 config: TrainConfig,
                 log_path: Optional[str] = None) -> Checkpoint:
    """Domain adaptation on visible/IR pairs from a stage-1 generator.

    Per step: the texture discriminator takes one step on
    adv_d - beta * trans; the generator takes one step on
    mae + alpha * noise (+ adv). When ir_replay is on, the generator also
    replays one plain MAE step on an IR batch. The feature extractor and
    the Sobel filters are constants, not parameters.
    """
    if stage1_ckpt.stage != "stage1":
        raise ValueError("stage2 requires a stage1 checkpoint, got "
                         f"{stage1_ckpt.stage!r}")
    gen = build_generator(config)
    _load_model_tensors(gen, stage1_ckpt, "gen")
    dtrans = DiscTrans(in_hw=config.hr_crop(),
                       seed=derive_seed(config.seed, "init.dtrans"),
                       prior_blocks=config.prior_blocks)
    if config.init_trans_from_spre:
        # the stage-1 trunk over the texture discriminator's own tensors
        tensors = dict(dtrans.named_tensors())
        tensors.update({k[len("dspre."):]: v for k, v in
                        stage1_ckpt.tensors.items()
                        if k.startswith("dspre.main.")})
        dtrans.load_named_tensors(tensors)
    fe = FeatureExtractor()
    w_k = noise_feature_weights(config)
    g_state, d_state = AdamState(gen), AdamState(dtrans)
    hr_size = (config.hr_crop(), config.hr_crop())

    def step(samples, rng, i) -> LossBreakdown:
        lr_vis_t, hr_t = _batch(samples, rng, config, use_vis=True)
        noise_seed = int(rng.integers(0, 2 ** 62))
        lb = LossBreakdown()

        # generator output on visible luma; graph reused for the G step
        sr_vis = gen(lr_vis_t)
        sr_det = sr_vis.detach()

        # noise pattern features (no gradients anywhere)
        noise_imgs = []
        for bi in range(lr_vis_t.shape[0]):
            lr_img = Image(lr_vis_t.data[bi].transpose(1, 2, 0)
                           .astype(np.float64))
            noise_imgs.append(_noise_image(lr_img, hr_size,
                                           config.noise_sigma,
                                           derive_seed(noise_seed, bi)))
        with T.no_grad():
            noise_feats = fe(_to_nchw(noise_imgs))

        # discriminator step: maximize real/fake separation and the
        # texture-prior distance
        real_logit, real_prior = dtrans(hr_t)
        fake_logit, fake_prior = dtrans(sr_det)
        adv_d = losses.l_adversarial_d(real_logit, fake_logit)
        trans = losses.l_trans(sr_det, hr_t, fake_prior, real_prior,
                               config.trans_mode)
        d_loss = losses.combine_d(adv_d, trans, config.beta)
        _update(dtrans, d_loss, d_state, config, i)
        lb.spre = -adv_d.item()
        lb.trans = trans.item()
        lb.total_d = d_loss.item()

        # generator step
        mae = losses.l_mae(sr_vis, hr_t)
        noise_l = losses.l_noise(fe(sr_vis), noise_feats, w_k)
        adv_g = None
        with dtrans.untracked():
            if config.adv_enabled:
                fake2, _ = dtrans(sr_vis)
                adv_g = losses.l_adversarial_g(fake2)
                lb.adv_g = adv_g.item()
            g_loss = losses.combine_g(mae, noise_l, adv_g, config.alpha)
            _update(gen, g_loss, g_state, config, i)
        lb.mae = mae.item()
        lb.noise = noise_l.item()
        lb.total_g = g_loss.item()

        # optional IR replay round: one plain MAE step on IR pairs
        if config.ir_replay:
            lr_ir_t, hr_ir_t = _batch(samples, rng, config, use_vis=False)
            replay = losses.l_mae(gen(lr_ir_t), hr_ir_t)
            _update(gen, replay, g_state, config, i)
        return lb

    _train("stage2", manifest, config, config.steps_stage2, log_path, step)
    return _checkpoint("stage2", config, gen, dtrans, "dtrans")


# ---------------------------------------------------------------------------
# inference and evaluation
# ---------------------------------------------------------------------------

def _span(n: int, k: int, overlap: int) -> int:
    """Extent of each of k equal windows that cover n pixels with
    neighbours sharing at least ``overlap`` pixels."""
    return -(-(n + (k - 1) * overlap) // k)


def _starts(n: int, k: int, size: int) -> list[int]:
    """Starts of k windows of ``size`` spread evenly over n pixels."""
    return [i * (n - size) // max(k - 1, 1) for i in range(k)]


def _tile_plan(h: int, w: int, tile: int, overlap: int
               ) -> tuple[int, list[int], int, list[int]]:
    """(tile height, row starts, tile width, column starts) of the tiling of
    an h x w image that computes the fewest pixels with at most tile*tile
    pixels a tile, over every (rows, columns) pair; ties go to fewer tiles,
    then to fewer rows. More columns only narrow a tile, so a row count
    takes the best column count at or above the fewest that fit."""
    if overlap < 0 or tile <= overlap:
        raise ValueError(f"super_resolve: need overlap >= 0 and tile > "
                         f"overlap, got tile={tile}, overlap={overlap}")
    # past n - overlap windows a tile cannot get thinner than overlap + 1;
    # best_from[c]: (computed width, columns, tile width) of the fewest
    # computed columns, then fewest tiles, over c or more columns
    ncols = max(w - overlap, 1)
    best_from = [(float("inf"),)] * (ncols + 2)
    for cols in range(ncols, 0, -1):
        tw = _span(w, cols, overlap)
        best_from[cols] = min((cols * tw, cols, tw), best_from[cols + 1])
    best = None
    for rows in range(1, max(h - overlap, 1) + 1):
        th = _span(h, rows, overlap)
        fit = tile * tile // th  # widest tile of this height
        if fit >= w:
            fewest = 1
        elif fit > overlap:
            # fewest columns whose tiles are at most fit wide
            fewest = -(-(w - overlap) // (fit - overlap))
        else:
            continue
        width, cols, tw = best_from[fewest]
        key = (rows * th * width, rows * cols)
        if best is None or key < best[0]:
            best = key, rows, th, cols, tw
    _, rows, th, cols, tw = best
    return th, _starts(h, rows, th), tw, _starts(w, cols, tw)


def super_resolve(gen: Generator, lr: Image, tile: int = 64,
                  overlap: int = 8) -> Image:
    """Run the generator over a full LR image in tiles of at most tile*tile
    LR pixels, planned to compute the fewest pixels; neighbouring tiles
    overlap by at least ``overlap`` and their seams are blended by averaging
    the overlapping predictions. An image of at most tile*tile pixels runs
    as one tile, so its output is the generator's own. Builds no autograd
    graph."""
    lr = to_luma(lr)
    scale = gen.config.scale
    h, w = lr.height, lr.width
    th, ys, tw, xs = _tile_plan(h, w, tile, overlap)
    acc = np.zeros((h * scale, w * scale), dtype=np.float64)
    cnt = np.zeros((h * scale, w * scale), dtype=np.float64)
    with T.no_grad():
        for y in ys:
            for x in xs:
                patch = lr.array[y:y + th, x:x + tw, 0]
                out = gen(Tensor(patch[None, None].astype(np.float32)))
                sy, sx = y * scale, x * scale
                acc[sy:sy + th * scale, sx:sx + tw * scale] += out.data[0, 0]
                cnt[sy:sy + th * scale, sx:sx + tw * scale] += 1.0
    sr = acc / cnt
    return Image(np.clip(sr, 0.0, 1.0)[:, :, None])


def evaluate_checkpoint(ckpt: Checkpoint, manifest: DatasetManifest,
                        out_dir: Optional[str] = None, name: str = "eval"
                        ) -> tuple[BenchRow, BenchRow]:
    """Run the checkpointed generator over the manifest's IR images.

    Returns (model row, bicubic baseline row); SR images are written to
    out_dir when given.
    """
    # checked first: tensors of another scale fail to load less clearly
    scale = TrainConfig.from_dict(ckpt.config).scale
    if manifest.scale != scale:
        raise ValueError(f"manifest scale {manifest.scale} != checkpoint "
                         f"scale {scale}")
    gen, _ = generator_from_checkpoint(ckpt)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    model_pairs, bicubic_pairs = [], []
    for i, entry in enumerate(manifest.entries):
        hr = to_luma(manifest.load_ir(i))
        lr = manifest.lr_for(hr, i, "ir-noise")
        sr = super_resolve(gen, lr)
        base = bicubic_resize(lr, hr.height, hr.width)
        model_pairs.append((hr, sr))
        bicubic_pairs.append((hr, base))
        if out_dir:
            stem = os.path.splitext(os.path.basename(entry.ir))[0]
            save_image(sr, os.path.join(out_dir, f"{stem}_sr.png"))
    model_row = evaluate_set(model_pairs, name, manifest.scale)
    bicubic_row = evaluate_set(bicubic_pairs, f"{name}-bicubic",
                               manifest.scale)
    return model_row, bicubic_row
