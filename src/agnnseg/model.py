"""Full model assembly: shared parameters and clip-level forward passes."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import checkpoint as ckpt
from . import head as head_mod
from .encoder import EncoderConfig, EncoderParams, encode, init_encoder
from .engine import NonFiniteError, Tensor, weighted_bce
from .errors import FieldError
from .graph import AttentionParams, GraphConfig, init_attention_params, run_graph
from .head import AuxParams, ReadoutParams, init_aux, init_readout


class CheckpointMismatchError(ValueError):
    """A checkpoint, or an input size, that does not fit a loadable model."""


def check_fits(params, frames, where):
    """Raise CheckpointMismatchError unless the downsample factor divides the
    height and width of ``frames`` (T, H, W, 3), read from ``where``."""
    height, width = frames.shape[1:3]
    d = params.downsample
    if height % d or width % d:
        canvas = height if height == width else f"{height}x{width}"
        message = f"canvas {canvas} not divisible by downsample factor {d}"
        raise CheckpointMismatchError(f"{where}: {message}")


@dataclass
class ModelParameters:
    """Every learnable tensor, shared across all nodes and frames."""

    encoder: EncoderParams
    attention: AttentionParams
    readout: ReadoutParams
    aux: AuxParams

    @property
    def channels(self):
        return self.encoder.config.channels

    @property
    def downsample(self):
        return self.encoder.config.downsample

    def named_tensors(self):
        return (
            self.encoder.named()
            + self.attention.named()
            + self.readout.named()
            + self.aux.named()
        )


def init_model(channels=EncoderConfig.channels, downsample=EncoderConfig.downsample,
               seed=0, graph=GraphConfig()) -> ModelParameters:
    """Deterministic initialization; component seeds derive from one seed,
    and ``graph`` sets K and the gating without changing any tensor."""
    seeds = np.random.SeedSequence(seed).generate_state(4)
    config = EncoderConfig(channels=channels, downsample=downsample)
    return ModelParameters(
        encoder=init_encoder(config, int(seeds[0])),
        attention=init_attention_params(channels, int(seeds[1]), graph),
        readout=init_readout(channels, int(seeds[2])),
        aux=init_aux(channels, int(seeds[3])),
    )


def encode_frames(frames, params: ModelParameters):
    """Initial node states for a list of frames (arrays or tensors)."""
    return [encode(f, params.encoder) for f in frames]


def predict_clip(frames, params: ModelParameters):
    """Masks for a clip: encode, run the graph, read out every node.

    Returns one probability map per frame: tensors at feature resolution
    with values in [0, 1].
    """
    embeddings = encode_frames(frames, params)
    finals = run_graph(embeddings, params.attention)
    return [head_mod.readout(h, v, params.readout) for h, v in zip(finals, embeddings)]


def clip_loss(frames, grid_masks, params: ModelParameters):
    """Per-frame weighted BCE tensors against grid-resolution binary masks."""
    preds = predict_clip(frames, params)
    return [weighted_bce(pred, gt) for gt, pred in zip(grid_masks, preds)]


def static_loss(images, grid_masks, params: ModelParameters):
    """Auxiliary-head loss tensors for single images, bypassing the graph."""
    losses = []
    for image, gt in zip(images, grid_masks):
        v = encode(image, params.encoder)
        pred = head_mod.aux_static_predict(v, params.aux)
        losses.append(weighted_bce(pred, gt))
    return losses


def save_model(path, params: ModelParameters):
    """Write all named tensors plus the hyperparameters inference needs."""
    named = [(name, t.data) for name, t in params.named_tensors()]
    graph = params.attention.config
    meta = {
        "channels": params.channels,
        "downsample": params.downsample,
        "k_iters": graph.k_iters,
        "gated": int(graph.gated),
    }
    ckpt.write_checkpoint(path, named, meta)


def load_model(path):
    """Rebuild ModelParameters, K and the gating from a checkpoint.

    meta.gated must be 0 or 1, every other meta value a whole number >= 1, and
    every tensor finite; meta.k_iters <= graph.MAX_K_ITERS.  meta.channels must
    match the stored (1, 1, C, C) encoder.proj.w before a model that wide is built.
    """
    tensors, meta = ckpt.read_checkpoint(path)
    for key in ("channels", "downsample", "k_iters", "gated"):
        if key not in meta:
            raise CheckpointMismatchError(f"{path}: missing meta.{key} record")
    for key in ("channels", "downsample", "k_iters"):
        if not (meta[key].is_integer() and meta[key] >= 1):
            raise CheckpointMismatchError(
                f"{path}: meta.{key} is {meta[key]}, expected a whole number >= 1"
            )
    if meta["gated"] not in (0.0, 1.0):
        raise CheckpointMismatchError(f"{path}: meta.gated is {meta['gated']}, expected 0 or 1")
    channels = int(meta["channels"])
    proj = tensors.get("encoder.proj.w")
    if proj is None or proj.shape != (1, 1, channels, channels):
        stored = "missing" if proj is None else f"of shape {proj.shape}"
        raise CheckpointMismatchError(
            f"{path}: meta.channels is {channels}, but tensor encoder.proj.w is {stored}"
        )
    try:
        graph = GraphConfig(k_iters=int(meta["k_iters"]), gated=meta["gated"] == 1.0)
        params = init_model(channels, int(meta["downsample"]), graph=graph)
    except FieldError as exc:
        raise CheckpointMismatchError(f"{path}: meta.{exc.field} {exc.reason}") from exc
    expected = params.named_tensors()
    missing = [name for name, _ in expected if name not in tensors]
    if missing:
        raise CheckpointMismatchError(f"{path}: missing tensors {missing}")
    extra = sorted(set(tensors) - {name for name, _ in expected})
    if extra:
        raise CheckpointMismatchError(f"{path}: unexpected tensors {extra}")
    for name, tensor in expected:
        stored = tensors[name]
        if stored.shape != tensor.data.shape:
            raise CheckpointMismatchError(
                f"{path}: tensor {name} has shape {stored.shape}, expected {tensor.data.shape}"
            )
        try:
            tensor.data = stored.copy()
        except NonFiniteError as exc:
            raise CheckpointMismatchError(f"{path}: {exc}") from exc
    return params
