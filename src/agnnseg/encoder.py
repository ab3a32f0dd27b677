"""Toy convolutional frame encoder.

Maps an RGB frame to the initial node embedding grid: three 3x3 conv
layers with relu (strides set by the downsample factor) followed by a linear
1x1 projection to the embedding width.  One parameter set is shared by every
frame of every graph.  A uint8 frame, as ``synthdata.load_video`` returns it,
is scaled by 1/255 here and nowhere else; a float frame must lie in [0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import engine
from .engine import Tensor, tensor_fields
from .errors import FieldError


@dataclass(frozen=True)
class EncoderConfig:
    channels: int = 32
    downsample: int = 4

    def __post_init__(self):
        if self.downsample not in (4, 8):
            raise FieldError("downsample", f"must be 4 or 8, got {self.downsample}")
        if self.channels < 1:
            raise FieldError("channels", f"must be positive, got {self.channels}")

    @property
    def strides(self):
        return (2, 2, 1) if self.downsample == 4 else (2, 2, 2)


@dataclass
class EncoderParams:
    config: EncoderConfig
    conv1_w: Tensor
    conv1_b: Tensor
    conv2_w: Tensor
    conv2_b: Tensor
    conv3_w: Tensor
    conv3_b: Tensor
    proj_w: Tensor
    proj_b: Tensor

    def named(self):
        return tensor_fields(self)


def he_uniform(rng, shape):
    """Fan-in scaled uniform init for conv kernels (fan_in = prod of all but last dim)."""
    fan_in = int(np.prod(shape[:-1]))
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


def init_encoder(config: EncoderConfig, seed: int) -> EncoderParams:
    """Deterministic parameters for the given seed; biases start at zero."""
    rng = np.random.default_rng(seed)
    c = config.channels
    return EncoderParams(
        config=config,
        conv1_w=Tensor(he_uniform(rng, (3, 3, 3, c)), name="encoder.conv1.w"),
        conv1_b=Tensor(np.zeros(c), name="encoder.conv1.b"),
        conv2_w=Tensor(he_uniform(rng, (3, 3, c, c)), name="encoder.conv2.w"),
        conv2_b=Tensor(np.zeros(c), name="encoder.conv2.b"),
        conv3_w=Tensor(he_uniform(rng, (3, 3, c, c)), name="encoder.conv3.w"),
        conv3_b=Tensor(np.zeros(c), name="encoder.conv3.b"),
        proj_w=Tensor(he_uniform(rng, (1, 1, c, c)), name="encoder.proj.w"),
        proj_b=Tensor(np.zeros(c), name="encoder.proj.b"),
    )


def encode(frame, params: EncoderParams) -> Tensor:
    """Embed one frame into a (H/d, W/d, C) grid.

    Accepts an (H, W, 3) uint8 array, which becomes ``frame / 255.0`` (exact
    for every uint8 value, so never outside [0, 1]), or a Tensor or float
    array of that shape whose values must lie in [0, 1].  Inputs not
    divisible by the downsample factor round their grid size up (stride
    arithmetic uses ceil division); anything smaller than the downsample
    factor is rejected.
    """
    pixels = isinstance(frame, np.ndarray) and frame.dtype == np.uint8
    x = frame if isinstance(frame, Tensor) else Tensor(frame / 255.0 if pixels else frame)
    if x.data.ndim != 3 or x.shape[2] != 3:
        raise ValueError(f"frame must be (H, W, 3), got {x.shape}")
    d = params.config.downsample
    if x.shape[0] < d or x.shape[1] < d:
        raise ValueError(f"frame dims {x.shape[:2]} smaller than downsample factor {d}")
    if not pixels and (x.data.min() < 0.0 or x.data.max() > 1.0):
        raise ValueError("frame values must lie in [0, 1]")
    s1, s2, s3 = params.config.strides
    y = engine.relu(engine.conv2d(x, params.conv1_w, params.conv1_b, stride=s1))
    y = engine.relu(engine.conv2d(y, params.conv2_w, params.conv2_b, stride=s2))
    y = engine.relu(engine.conv2d(y, params.conv3_w, params.conv3_b, stride=s3))
    return engine.conv2d(y, params.proj_w, params.proj_b, stride=1)
