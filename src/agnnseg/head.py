"""Readout to segmentation maps, the static head, and the batch mean of losses.

The class-balanced loss itself is the engine op ``weighted_bce``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import engine
from .encoder import he_uniform
from .engine import Tensor, tensor_fields


@dataclass
class ReadoutParams:
    """Two 3x3 conv layers with relu, then a 1x1 conv with sigmoid."""

    conv1_w: Tensor
    conv1_b: Tensor
    conv2_w: Tensor
    conv2_b: Tensor
    proj_w: Tensor
    proj_b: Tensor

    def named(self):
        return tensor_fields(self)


@dataclass
class AuxParams:
    """Single 1x1 conv + sigmoid reading a mask straight off the embedding."""

    w: Tensor
    b: Tensor

    def named(self):
        return tensor_fields(self)


def init_readout(channels, seed) -> ReadoutParams:
    rng = np.random.default_rng(seed)
    c = channels
    return ReadoutParams(
        conv1_w=Tensor(he_uniform(rng, (3, 3, 2 * c, c)), name="readout.conv1.w"),
        conv1_b=Tensor(np.zeros(c), name="readout.conv1.b"),
        conv2_w=Tensor(he_uniform(rng, (3, 3, c, c)), name="readout.conv2.w"),
        conv2_b=Tensor(np.zeros(c), name="readout.conv2.b"),
        proj_w=Tensor(he_uniform(rng, (1, 1, c, 1)), name="readout.proj.w"),
        proj_b=Tensor(np.zeros(1), name="readout.proj.b"),
    )


def init_aux(channels, seed) -> AuxParams:
    rng = np.random.default_rng(seed)
    return AuxParams(
        w=Tensor(he_uniform(rng, (1, 1, channels, 1)), name="aux.w"),
        b=Tensor(np.zeros(1), name="aux.b"),
    )


def readout(h_final, v, params: ReadoutParams) -> Tensor:
    """Per-pixel foreground probability from [final state, initial embedding]."""
    if h_final.shape != v.shape:
        raise ValueError(f"state shapes differ: {h_final.shape} vs {v.shape}")
    x = engine.concat_channels(h_final, v)
    x = engine.relu(engine.conv2d(x, params.conv1_w, params.conv1_b))
    x = engine.relu(engine.conv2d(x, params.conv2_w, params.conv2_b))
    logits = engine.conv2d(x, params.proj_w, params.proj_b)
    probs = engine.sigmoid(logits)
    return engine.reshape(probs, probs.shape[:2])


def aux_static_predict(v, params: AuxParams) -> Tensor:
    """Mask prediction straight from the embedding, bypassing the graph."""
    probs = engine.sigmoid(engine.conv2d(v, params.w, params.b))
    return engine.reshape(probs, probs.shape[:2])


def mean_loss(losses) -> Tensor:
    """Arithmetic mean of per-frame loss tensors (the batch reduction)."""
    losses = list(losses)
    if not losses:
        raise ValueError("no losses to average")
    total = losses[0]
    for loss in losses[1:]:
        total = engine.add(total, loss)
    return engine.scalar_scale(total, 1.0 / len(losses))
