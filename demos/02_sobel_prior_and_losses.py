"""Show the texture and noise losses doing their jobs.

1. Sobel magnitude maps: the visible render carries more edge energy than
   the IR render of the same scene.
2. The texture prior loss (raw Sobel mode) grows as one side gets
   blurrier.
3. The noise repulsion loss is zero only for identical feature pyramids
   and negative everywhere else.

Run:  python demos/02_sobel_prior_and_losses.py
"""

import numpy as np

from dasr.imaging import gaussian_blur, sobel_map, to_luma
from dasr.losses import l_noise, sobel_l1
from dasr.models import FeatureExtractor
from dasr.pipeline import TrainConfig, noise_feature_weights
from dasr.synth import SyntheticSceneSpec, render_pair
from dasr.tensor import Tensor


def as_batch(img):
    return Tensor(img.array.transpose(2, 0, 1)[None])


ir, vis = render_pair(SyntheticSceneSpec(count=1, extent=64, seed=3), 0)
print(f"mean Sobel magnitude  IR: {sobel_map(ir).mean():.4f}   "
      f"visible: {sobel_map(vis).mean():.4f}")

luma = to_luma(vis)
print("\ntexture prior loss between the visible luma and its blurred self:")
for sigma in (1.0, 3.0, 5.0):
    loss = sobel_l1(as_batch(luma), as_batch(gaussian_blur(luma, sigma)))
    print(f"  blur sigma {sigma}: {loss.item():.4f}")

fe = FeatureExtractor()
w = noise_feature_weights(TrainConfig(prior_depth="middle"))  # one-hot
feats = fe(as_batch(luma))
print(f"\nfeature pyramid: {[tuple(f.shape) for f in feats]}")
same = l_noise(feats, feats, w)
rng = np.random.default_rng(0)
noisy = np.clip(luma.array + rng.normal(0, 0.1, luma.array.shape), 0, 1)
noisy_feats = fe(Tensor(noisy.transpose(2, 0, 1)[None]))
diff = l_noise(feats, noisy_feats, w)
print(f"noise loss, identical features: {same.item():.4f}")
print(f"noise loss, against a noisy view: {diff.item():.4f}  (negative: "
      "minimizing it repels the prediction from the noise pattern)")
