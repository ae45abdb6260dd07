"""Training losses: pixel MAE, adversarial cross-entropies, the texture
prior loss over Sobel magnitudes, and the noise repulsion loss.

Sign conventions, in terms of what each optimizer minimizes:

  * generator total ``combine_g(mae, noise, adv_g, alpha)`` =
    mae + alpha * noise (+ adv_g when one is given)
  * discriminator total ``combine_d(adv_d, trans, beta)`` =
    adv_d - beta * trans, where ``adv_d`` is ``l_adversarial_d``, the
    real/fake cross-entropy, so minimizing the total maximizes both the
    real/fake separation and the texture-prior distance. The loss log's
    ``spre`` column is -adv_d, the log-likelihood the discriminator
    maximizes.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional, Sequence

import numpy as np

from . import tensor as T
from .imaging import sobel_pair, sobel_pair_adjoint
from .tensor import Tensor

TRANS_MODES = ("raw-sobel", "prior-branch")


@dataclass
class LossBreakdown:
    """Per-step scalars for logging."""

    mae: float = 0.0
    adv_g: float = 0.0
    noise: float = 0.0
    trans: float = 0.0
    spre: float = 0.0
    total_g: float = 0.0
    total_d: float = 0.0

    def csv_row(self, step: int) -> str:
        vals = [f"{getattr(self, f.name):.6f}" for f in fields(self)]
        return ",".join([str(step)] + vals)

    @classmethod
    def csv_header(cls) -> str:
        return ",".join(["step"] + [f.name for f in fields(cls)])


def l_mae(pred: Tensor, target: Tensor) -> Tensor:
    """Mean absolute error over all elements."""
    return T.reduce_mean_abs_diff(pred, target)


def l_adversarial_d(real_logit: Tensor, fake_logit: Tensor) -> Tensor:
    """-[log sig(real) + log(1 - sig(fake))], averaged over the batch.

    The binary cross-entropy a discriminator minimizes; equivalently the
    negative of the value it maximizes in the minimax game.
    """
    return T.add(T.mean(T.softplus(T.scale(real_logit, -1.0))),
                 T.mean(T.softplus(fake_logit)))


def l_adversarial_g(fake_logit: Tensor) -> Tensor:
    """Generator-side adversarial loss: the non-saturating -log sig(fake)."""
    return T.mean(T.softplus(T.scale(fake_logit, -1.0)))


def sobel_l1(pred: Tensor, target: Tensor) -> Tensor:
    """Mean |S_pred - S_target| over the valid region, where S is the Sobel
    edge magnitude sqrt((Gh*I)^2 + (Gv*I)^2).

    Computed in float64 end to end (magnitudes, difference, mean) so it
    matches scalar oracles tightly; differentiable in both images.
    """
    if pred.shape != target.shape:
        raise ValueError(
            f"sobel_l1: shape mismatch {pred.shape} vs {target.shape}")
    if pred.data.ndim != 4:
        raise ValueError(f"sobel_l1: expected [N,C,H,W], got {pred.shape}")
    h, w = pred.shape[2], pred.shape[3]
    if h < 3 or w < 3:
        raise ValueError(f"sobel_l1: image {h}x{w} smaller than 3x3")

    eps2 = 1e-24  # keeps the magnitude differentiable at exact zero
    saved = {}
    for tag, t in (("p", pred), ("t", target)):
        gh, gv = sobel_pair(t.data.astype(np.float64))
        s = np.sqrt(gh * gh + gv * gv + eps2)
        saved[tag] = (gh, gv, s)
    diff = saved["p"][2] - saved["t"][2]
    n = diff.size
    acc = float(np.abs(diff).sum() / n)
    sign = np.sign(diff)
    need_p, need_t = pred.requires_grad, target.requires_grad

    def grad_of(gh, gv, s, sgn, g):
        # d mean|.| / d magnitude, then chain through sqrt and the Sobel pair
        dmag = sgn * (g / n)
        return sobel_pair_adjoint(dmag * gh / s,
                                  dmag * gv / s).astype(np.float32)

    def backward(g):
        g = float(g.reshape(()))
        gp = grad_of(*saved["p"], sign, g) if need_p else None
        gt = grad_of(*saved["t"], -sign, g) if need_t else None
        return gp, gt

    return T._make(T._ACTIVE_DTYPE(acc), (pred, target), backward,
                   "sobel_l1")


def l_trans(pred_img: Tensor, target_img: Tensor,
            pred_prior: Optional[Tensor], target_prior: Optional[Tensor],
            mode: str = "prior-branch") -> Tensor:
    """Texture prior loss between prediction and target.

    ``raw-sobel`` compares Sobel magnitudes of the two images directly (the
    literal formula; carries no discriminator parameters). ``prior-branch``
    compares the prior latents v_p that ``models.DiscTrans`` returned for
    the two images, so the term also trains the discriminator's prior branch.
    """
    if mode not in TRANS_MODES:
        raise ValueError(f"l_trans: mode must be one of {TRANS_MODES}, "
                         f"got {mode!r}")
    if pred_img.shape != target_img.shape:
        raise ValueError(
            f"l_trans: shape mismatch {pred_img.shape} vs {target_img.shape}")
    if mode == "raw-sobel":
        return sobel_l1(pred_img, target_img)
    if pred_prior is None or target_prior is None:
        raise ValueError("l_trans: prior-branch mode needs both prior latents")
    return T.reduce_mean_abs_diff(pred_prior, target_prior)


def l_noise(pred_features: Sequence[Tensor], noise_features: Sequence[Tensor],
            w: Sequence[float]) -> Tensor:
    """Noise repulsion: minus the weighted mean L1 distance between feature
    pyramids; always <= 0, and minimizing it pushes the prediction's
    features away from the noise pattern's."""
    if len(pred_features) != len(noise_features) or len(pred_features) != len(w):
        raise ValueError(
            f"l_noise: got {len(pred_features)} prediction stages, "
            f"{len(noise_features)} noise stages, {len(w)} weights")
    total = None
    for pf, nf, wk in zip(pred_features, noise_features, w):
        term = T.scale(T.reduce_mean_abs_diff(pf, nf), -float(wk))
        total = term if total is None else T.add(total, term)
    return total


def combine_g(mae: Tensor, noise: Optional[Tensor], adv_g: Optional[Tensor],
              alpha: float) -> Tensor:
    """Generator objective: mae + alpha * noise (+ adv_g when given)."""
    total = mae
    if noise is not None:
        total = T.add(total, T.scale(noise, alpha))
    if adv_g is not None:
        total = T.add(total, adv_g)
    return total


def combine_d(adv_d: Tensor, trans: Tensor, beta: float) -> Tensor:
    """Discriminator objective: adv_d - beta * trans (see the module doc)."""
    return T.sub(adv_d, T.scale(trans, beta))
