"""Networks: the dense-block generator, both discriminators, and the fixed
feature pyramid that stands in for a pretrained perceptual backbone.

Every model keeps its parameters in a name -> Parameter registry and exposes
them in sorted-name order, which is the contract the checkpoint format and
the optimizer rely on.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .imaging import Image, bicubic_resize, sobel_pair, sobel_pair_adjoint
from .rng import generator
from .spec import SCALES, Spec, opt
from .tensor import Parameter, Tensor

LRELU_SLOPE = 0.2

# the feature extractor is the same across all runs and seeds
_FEATURE_EXTRACTOR_SEED = 0x5EEDFEA7

# the FeatureExtractor stages, shallowest first
PRIOR_DEPTHS = ("shallow", "middle", "deep")


@dataclass
class GeneratorConfig(Spec):
    n_blocks: int = opt(4, ge=1)
    base_channels: int = 32
    growth_channels: int = 16
    scale: int = opt(2, choices=SCALES)
    residual_scale: float = opt(0.2, ge=0, le=1)


# TrainConfig.preset -> the GeneratorConfig fields it sets
GENERATOR_PRESETS = {
    "desk": {},
    "paper-scale": {"n_blocks": 23, "base_channels": 64,
                    "growth_channels": 32},
}


class Model:
    """Base: parameter registry with unique names, sorted enumeration, and
    the flat slabs an optimizer steps."""

    def __init__(self):
        self._params: dict[str, Parameter] = {}
        self._slabs: tuple[np.ndarray, np.ndarray] | None = None

    def _add(self, name: str, data) -> Parameter:
        if name in self._params:
            raise ValueError(f"duplicate parameter name: {name}")
        p = Parameter(data, name=name)
        self._params[name] = p
        return p

    def parameters(self) -> list[Parameter]:
        """Parameters in sorted-name order."""
        return [self._params[k] for k in sorted(self._params)]

    def slabs(self) -> tuple[np.ndarray, np.ndarray]:
        """(data, grad): one flat float32 slab each over every parameter, in
        sorted-name order. The first call copies each parameter's ``.data``
        into a view of the first and makes its ``.grad`` a zeroed view of
        the second; from then on code copies into ``p.data`` and never
        rebinds it."""
        if self._slabs is None:
            params = self.parameters()
            n = sum(p.size for p in params)
            data = np.empty(n, dtype=np.float32)
            grad = np.zeros(n, dtype=np.float32)
            ofs = 0
            for p in params:
                part = slice(ofs, ofs + p.size)
                data[part] = p.data.reshape(-1)
                p.data = data[part].reshape(p.shape)
                p.grad = grad[part].reshape(p.shape)
                ofs += p.size
            self._slabs = data, grad
        return self._slabs

    def named_tensors(self) -> list[tuple[str, np.ndarray]]:
        """Parameter arrays by name, in sorted-name order."""
        return [(k, self._params[k].data) for k in sorted(self._params)]

    def load_named_tensors(self, tensors: dict[str, np.ndarray]) -> None:
        for name, p in self._params.items():
            if name not in tensors:
                raise ValueError(f"checkpoint missing tensor {name!r}")
            arr = np.asarray(tensors[name], dtype=np.float32)
            if arr.shape != p.shape:
                raise ValueError(
                    f"tensor {name!r}: shape {arr.shape} != {p.shape}")
            p.data[...] = arr

    @contextlib.contextmanager
    def untracked(self):
        """Hold the parameters as constants inside the block: a graph built
        there gives them no gradient, wherever it is walked."""
        params = self.parameters()
        for p in params:
            p.requires_grad = False
        try:
            yield
        finally:
            for p in params:
                p.requires_grad = True

    def param_count(self) -> int:
        return sum(p.size for p in self._params.values())


def _kaiming(rng: np.random.Generator, shape: tuple, fan_in: int,
             slope: float = LRELU_SLOPE) -> np.ndarray:
    gain = np.sqrt(2.0 / (1.0 + slope * slope))
    std = gain / np.sqrt(fan_in)
    return rng.normal(0.0, std, size=shape).astype(np.float32)


class Conv2dLayer:
    def __init__(self, model: Model, name: str, cin: int, cout: int,
                 rng: np.random.Generator, k: int = 3, stride: int = 1,
                 padding: int = 1, zero_init: bool = False):
        shape = (cout, cin, k, k)
        if zero_init:
            wdata = np.zeros(shape, dtype=np.float32)
        else:
            wdata = _kaiming(rng, shape, cin * k * k)
        self.weight = model._add(f"{name}.weight", wdata)
        self.bias = model._add(f"{name}.bias", np.zeros(cout, dtype=np.float32))
        self.stride = stride
        self.padding = padding

    def __call__(self, x: Tensor) -> Tensor:
        return T.conv2d(x, self.weight, self.bias, stride=self.stride,
                        padding=self.padding)


class LinearLayer:
    def __init__(self, model: Model, name: str, d_in: int, d_out: int,
                 rng: np.random.Generator):
        self.weight = model._add(f"{name}.weight",
                                 _kaiming(rng, (d_out, d_in), d_in))
        self.bias = model._add(f"{name}.bias",
                               np.zeros(d_out, dtype=np.float32))

    def __call__(self, x: Tensor) -> Tensor:
        return T.linear(x, self.weight, self.bias)


def sobel_channels(x: Tensor) -> Tensor:
    """The valid Sobel pair of each channel: [N, C, H, W] -> [N, 2C, H-2,
    W-2], channel 2c the horizontal and 2c+1 the vertical gradient of c."""
    gh, gv = sobel_pair(x.data)
    n, c, h, w = gh.shape
    out = np.stack((gh, gv), axis=2).reshape(n, 2 * c, h, w)

    def backward(g):
        g = g.reshape(n, c, 2, h, w)
        return (sobel_pair_adjoint(g[:, :, 0], g[:, :, 1]),)

    return T._make(out, (x,), backward, "sobel")


class DenseBlock:
    """Five 3x3 convs with dense concatenation and a scaled residual, run
    as one ``tensor.dense_block`` op."""

    def __init__(self, model: Model, name: str, channels: int, growth: int,
                 residual_scale: float, rng: np.random.Generator):
        self.residual_scale = residual_scale
        self.convs = []
        cin = channels
        for i in range(4):
            self.convs.append(Conv2dLayer(model, f"{name}.conv{i}", cin,
                                          growth, rng))
            cin += growth
        self.convs.append(Conv2dLayer(model, f"{name}.conv4", cin, channels,
                                      rng))

    def __call__(self, x: Tensor) -> Tensor:
        return T.dense_block(x, [(c.weight, c.bias) for c in self.convs],
                             LRELU_SLOPE, self.residual_scale)


class RRDB:
    """Three dense blocks under an outer scaled residual.

    The outer residual adds the scaled *delta* of the dense chain, so a
    block with all-zero conv weights (or residual_scale 0) is exactly the
    identity.
    """

    def __init__(self, model: Model, name: str, channels: int, growth: int,
                 residual_scale: float, rng: np.random.Generator):
        self.residual_scale = residual_scale
        self.blocks = [
            DenseBlock(model, f"{name}.db{i}", channels, growth,
                       residual_scale, rng)
            for i in range(3)
        ]

    def __call__(self, x: Tensor) -> Tensor:
        t = x
        for blk in self.blocks:
            t = blk(t)
        return T.add(x, T.scale(T.sub(t, x), self.residual_scale))


class Generator(Model):
    """1-channel super-resolution generator: shallow conv, dense-block
    trunk with a global skip, pixel-shuffle upsampler, zero-initialized
    output conv, and a bicubic skip from input to output.

    The learned path is a residual on top of the bicubic upscale, so a
    fresh generator reproduces the bicubic identity exactly and early
    training is stable around it.
    """

    def __init__(self, config: GeneratorConfig, seed: int):
        super().__init__()
        self.config = config
        rng = generator(seed, "generator-init")
        ch, gr = config.base_channels, config.growth_channels
        self.conv_first = Conv2dLayer(self, "conv_first", 1, ch, rng)
        self.blocks = [
            RRDB(self, f"rrdb{i}", ch, gr, config.residual_scale, rng)
            for i in range(config.n_blocks)
        ]
        self.trunk_conv = Conv2dLayer(self, "trunk_conv", ch, ch, rng)
        n_up = {2: 1, 4: 2}[config.scale]
        self.upsample = [
            Conv2dLayer(self, f"up{i}", ch, 4 * ch, rng) for i in range(n_up)
        ]
        self.conv_last = Conv2dLayer(self, "conv_last", ch, 1, rng,
                                     zero_init=True)

    def _bicubic_skip(self, lr: Tensor) -> Tensor:
        s = self.config.scale
        ups = []
        for i in range(lr.shape[0]):
            img = Image(lr.data[i, 0].astype(np.float64)[:, :, None])
            up = bicubic_resize(img, s * img.height, s * img.width)
            ups.append(up.array[:, :, 0])
        return Tensor(np.stack(ups)[:, None].astype(np.float32))

    def __call__(self, lr: Tensor) -> Tensor:
        if lr.data.ndim != 4 or lr.shape[1] != 1:
            raise ValueError(
                f"generator expects [N,1,h,w] input, got {lr.shape}")
        if lr.requires_grad:
            # the bicubic skip is treated as data; gradients w.r.t. the
            # generator input would silently miss its contribution
            raise ValueError("generator input must not require gradients")
        fea = self.conv_first(lr)
        t = fea
        for blk in self.blocks:
            t = blk(t)
        fea = T.add(fea, self.trunk_conv(t))
        for up in self.upsample:
            fea = T.leaky_relu(T.pixel_shuffle(up(fea), 2), LRELU_SLOPE)
        return T.add(self.conv_last(fea), self._bicubic_skip(lr))


_DISC_CHANNELS = (32, 64, 128, 256)


class _Discriminator(Model):
    """The strided conv trunk both discriminators share: four stride-2
    convs with doubling channels, for inputs of one build size."""

    def __init__(self, in_hw: int, rng: np.random.Generator):
        super().__init__()
        self.in_hw = in_hw
        self.stack = []
        cin, hw = 1, in_hw
        for i, cout in enumerate(_DISC_CHANNELS):
            self.stack.append(Conv2dLayer(self, f"main.conv{i}", cin, cout,
                                          rng, stride=2, padding=1))
            cin = cout
            hw = (hw + 2 - 3) // 2 + 1
        self._flat = cin * hw * hw

    def _trunk(self, img: Tensor, size_ok: bool = True) -> Tensor:
        """Trunk features flattened to [N, flat]; rejects an input whose
        size differs from the build size (or when ``size_ok`` is false)."""
        t = img
        for conv in self.stack:
            t = T.leaky_relu(conv(t), LRELU_SLOPE)
        n = t.shape[0]
        if not size_ok or t.size // n != self._flat:
            raise ValueError(
                f"discriminator built for {self.in_hw}x{self.in_hw} inputs, "
                f"got {img.shape[2]}x{img.shape[3]}")
        return T.reshape(t, (n, self._flat))


class DiscSpre(_Discriminator):
    """Stage-1 discriminator: strided conv stack -> flatten -> logit."""

    def __init__(self, in_hw: int, seed: int):
        rng = generator(seed, "disc-spre-init")
        super().__init__(in_hw, rng)
        self.head = LinearLayer(self, "head", self._flat, 1, rng)

    def __call__(self, img: Tensor) -> Tensor:
        return self.head(self._trunk(img))


class DiscTrans(_Discriminator):
    """Stage-2 discriminator with a texture-prior branch.

    The prior branch alternates learned valid convs with the fixed Sobel
    pair of each channel, so an edge-free input yields an exactly zero prior
    latent. Its output v_p is returned alongside the logit;
    ``losses.l_trans`` compares the v_p of prediction and target, so no
    image runs the branch twice.
    """

    def __init__(self, in_hw: int, seed: int, prior_blocks: int = 2):
        if prior_blocks < 1:
            raise ValueError(f"prior_blocks must be >= 1, got {prior_blocks}")
        rng = generator(seed, "disc-trans-init")
        super().__init__(in_hw, rng)

        self.prior: list[Conv2dLayer] = []
        cin, hw = 1, in_hw
        for i in range(prior_blocks):
            cout = 16 * (2 ** i)
            self.prior.append(Conv2dLayer(self, f"prior.conv{i}", cin, cout,
                                          rng, stride=2, padding=0))
            hw = (hw - 3) // 2 + 1 - 2  # the conv, then the valid Sobel pair
            if hw < 1:
                raise ValueError(
                    f"input {in_hw}x{in_hw} too small for {prior_blocks} "
                    "prior blocks")
            cin = 2 * cout
        self._prior_flat = cin * hw * hw
        self.head = LinearLayer(self, "head", self._flat + self._prior_flat,
                                1, rng)

    def prior_branch(self, img: Tensor) -> Tensor:
        t = img
        for conv in self.prior:
            t = T.leaky_relu(sobel_channels(conv(t)), LRELU_SLOPE)
        return t

    def __call__(self, img: Tensor) -> tuple[Tensor, Tensor]:
        """Returns (logit [N,1], prior latent v_p)."""
        v_p = self.prior_branch(img)
        n = img.shape[0]
        v_g = self._trunk(img, v_p.size // n == self._prior_flat)
        fused = T.concat([T.reshape(v_p, (n, self._prior_flat)), v_g], axis=1)
        return self.head(fused), v_p


class FeatureExtractor:
    """Fixed random conv pyramid standing in for a pretrained backbone.

    Three stages at halving resolution; constant weights from a fixed seed,
    independent of the run seed, so features are comparable across runs.
    """

    K = len(PRIOR_DEPTHS)
    _CHANNELS = (16, 32, 64)

    def __init__(self):
        rng = generator(_FEATURE_EXTRACTOR_SEED, "feature-extractor")
        self.stages = []
        cin = 1
        for cout in self._CHANNELS:
            self.stages.append(
                Tensor(_kaiming(rng, (cout, cin, 3, 3), cin * 9)))
            cin = cout

    def __call__(self, img: Tensor) -> list[Tensor]:
        """K feature maps at decreasing resolution."""
        feats = []
        t = img
        for w in self.stages:
            t = T.leaky_relu(T.conv2d(t, w, stride=2, padding=1),
                             LRELU_SLOPE)
            feats.append(t)
        return feats
