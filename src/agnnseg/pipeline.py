"""Training, test-time scheduling, co-segmentation inference, and evaluation.

Training alternates static-image iterations (auxiliary head on single
synthetic scenes) with dynamic-video iterations (full graph loss on sampled
clips), both driving plain SGD with momentum.  Test videos are split into
strided frame subsets that partition the video; each subset runs as one
graph.  Co-segmentation chains graph runs, carrying the target image's raw
node state from group to group.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import head as head_mod
from . import metrics
from .engine import NonFiniteError, Tape, Tensor, active_tape, backward
from .errors import DatasetError, FieldError
from .graph import run_graph
from .head import mean_loss
from .model import (
    ModelParameters,
    check_fits,
    clip_loss,
    encode_frames,
    predict_clip,
    static_loss,
)
from .synthdata import (
    DatasetManifest,
    downsample_mask,
    load_video,
    near_equal_runs,
    render_static_scene,
    sample_training_clip,
)


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss or parameter update."""

    def __init__(self, iteration, message):
        super().__init__(f"iteration {iteration}: {message}")
        self.iteration = iteration


VIDEOS_PER_BATCH = 2  # videos in one dynamic training batch
# inference settings no dataclass owns: N' per video and per co-seg graph
TEST_N_PRIME = 5
COSEG_N_PRIME = 3
MASK_THRESHOLD = 0.5


@dataclass(frozen=True)
class TrainConfig:
    """Training N', SGD and seed.  The model's own settings live beside its
    code: ``EncoderConfig`` in ``encoder`` and ``GraphConfig`` (K and the
    gating) in ``graph``."""

    n_prime: int = 3
    lr: float = 1e-3
    momentum: float = 0.9
    iterations: int = 2000
    seed: int = 0

    def __post_init__(self):
        for name in ("n_prime", "iterations"):
            value = getattr(self, name)
            if value < 1:
                raise FieldError(name, f"must be >= 1, got {value}")
        if not 0 <= self.lr < float("inf"):  # False for NaN too
            raise FieldError("lr", f"must be finite and >= 0, got {self.lr}")
        if not 0 <= self.momentum < 1:
            raise FieldError("momentum", f"must be in [0, 1), got {self.momentum}")
        if self.seed < 0:
            raise FieldError("seed", f"must be >= 0, got {self.seed}")


@dataclass
class TrainResult:
    params: ModelParameters
    losses: list


class SGD:
    """Plain momentum SGD over named tensors; no weight decay."""

    def __init__(self, named_tensors, lr, momentum):
        self.named = list(named_tensors)
        self.lr = lr
        self.momentum = momentum
        self.velocity = {name: np.zeros_like(t.data) for name, t in self.named}

    def step(self, grads):
        """Assign each tensor its update; a non-finite one raises NonFiniteError
        naming the tensor, with no overflow warning on the way."""
        with np.errstate(over="ignore", invalid="ignore"):
            for name, tensor in self.named:
                v = self.momentum * self.velocity[name] - self.lr * grads[tensor]
                self.velocity[name] = v
                tensor.data = tensor.data + v


def dynamic_batch_loss(batch, params):
    """Mean frame loss over one graph per video in the batch."""
    losses = []
    for frames, grid_masks in batch:
        losses.extend(clip_loss(frames, grid_masks, params))
    return mean_loss(losses)


def static_batch_loss(scenes, params):
    return mean_loss(static_loss([s[0] for s in scenes], [s[1] for s in scenes], params))


def train(manifest: DatasetManifest, config: TrainConfig, params: ModelParameters):
    """Optimize ``params`` (encoder, K and gating) in place on the train split.

    Fewer than VIDEOS_PER_BATCH videos raise DatasetError, and so does a video
    with fewer than ``config.n_prime`` frames; a video whose size the
    downsample factor does not divide raises CheckpointMismatchError.  Both
    name the video's directory.  Videos are loaded and checked one at a
    time, so a bad video is reported before any later video is read.  Static
    and dynamic iterations alternate, static on even steps.  Returns the
    trained parameters and one loss per iteration; raises DivergenceError
    the moment anything goes non-finite.
    """
    where = manifest.root / "manifest.txt"
    entries = manifest.split("train")
    if len(entries) < VIDEOS_PER_BATCH:
        raise DatasetError(
            f"{where}: train split has {len(entries)} videos, need >= {VIDEOS_PER_BATCH}"
        )
    downsample = params.downsample
    # uint8 frames and grid targets; encode scales the sampled clip frames
    videos = []
    for entry in entries:
        frames, masks = load_video(manifest, entry)
        check_fits(params, frames, manifest.video_dir(entry))
        if len(frames) < config.n_prime:
            raise DatasetError(f"{manifest.video_dir(entry)}: {len(frames)} frames, fewer than "
                               f"the {config.n_prime} a training clip samples")
        videos.append((frames, downsample_mask(masks, downsample)))
    canvas = videos[0][0].shape[1]

    optimizer = SGD(params.named_tensors(), config.lr, config.momentum)
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, 17)))

    losses = []
    batch_images = VIDEOS_PER_BATCH * config.n_prime
    for iteration in range(config.iterations):
        is_static = iteration % 2 == 0
        try:
            # overflow on divergence is detected via NonFiniteError, not warnings
            with np.errstate(over="ignore", invalid="ignore"), Tape() as tape:
                if is_static:
                    scenes = []
                    for _ in range(batch_images):
                        frame, mask, _ = render_static_scene(canvas, int(rng.integers(2**63)))
                        scenes.append((frame, downsample_mask(mask, downsample)))
                    loss = static_batch_loss(scenes, params)
                else:
                    picks = rng.choice(len(videos), size=VIDEOS_PER_BATCH, replace=False)
                    batch = []
                    for vi in picks:
                        frames, targets = videos[vi]
                        indices = sample_training_clip(list(range(len(frames))), config.n_prime, rng)
                        batch.append(([frames[t] for t in indices], [targets[t] for t in indices]))
                    loss = dynamic_batch_loss(batch, params)
            value = float(loss.data)
            grads = backward(tape, np.ones(()))
            optimizer.step(grads)
        except NonFiniteError as exc:
            raise DivergenceError(iteration, str(exc)) from exc
        losses.append(value)
    return TrainResult(params=params, losses=losses)


# ---------------------------------------------------------------------------
# inference scheduling


def strided_subsets(num_frames, n_prime):
    """Strided subsets I_t = {t, t+T, t+2T, ...} with T = ceil(N / N'); they
    partition the frames 0..N-1, and none holds more than N'."""
    if num_frames < 1:
        raise ValueError("schedule needs at least one frame")
    if n_prime < 1:
        raise ValueError("n_prime must be >= 1")
    stride = -(-num_frames // n_prime)
    return [list(range(t, num_frames, stride)) for t in range(stride)]


def infer_video(frames, params: ModelParameters, n_prime=TEST_N_PRIME):
    """Per-frame foreground probability maps, one strided subset at a time.

    Each subset becomes a graph (the last ones may hold fewer than n_prime
    nodes); masks come back in original frame order as float arrays at
    feature-grid resolution.
    """
    frames = list(frames)
    if not frames:
        raise ValueError("cannot run inference on an empty video")
    out = [None] * len(frames)
    for subset in strided_subsets(len(frames), n_prime):
        maps = predict_clip([frames[t] for t in subset], params)
        for t, m in zip(subset, maps):
            out[t] = m.data
    return out


def iocs_infer(images, target_index, params: ModelParameters, n_prime=COSEG_N_PRIME):
    """Co-segmentation of one image against the rest of its group.

    The other images are split in dataset order into ceil((N-1)/(n_prime-1))
    near-equal groups; each group joins the target's carried node state in a
    fresh graph, and the target's raw state (no readout in between) seeds the
    next run.  A lone image runs one graph of its own state.  Returns the
    target's foreground probability map.

    Each image is encoded the first time a call needs it, and the
    embeddings of the last group seen are reused: a call takes them when
    its images equal that group's in number, dtype, shape and bytes and
    ``params.encoder`` holds the same config and ``Tensor.data`` arrays
    (``is``), so training or loading a model encodes again.  Under an
    active tape every image is encoded afresh and nothing is kept, so the
    encoder is recorded.  Co-segmenting every image of a group of N thus
    takes N encodes instead of N^2.
    """
    images = list(images)
    n = len(images)
    if not 0 <= target_index < n:
        raise ValueError(f"target index {target_index} outside 0..{n - 1}")
    embed = _group_embedder(images, params)
    (v_target,) = embed([target_index])
    others = [i for i in range(n) if i != target_index]
    groups = [[]]
    if others:
        if n_prime < 2:
            raise ValueError("n_prime must be >= 2 when the group has other images")
        groups = near_equal_runs(others, -(-len(others) // (n_prime - 1)))
    state = v_target
    for group in groups:
        nodes = [state] + embed(group)
        state = run_graph(nodes, params.attention)[0]
    return head_mod.readout(state, v_target, params.readout).data


@dataclass
class _GroupEmbeddings:
    """The last group ``iocs_infer`` saw, replaced whole when a call differs."""

    images: list  # (dtype, shape, bytes) per image
    encoder: tuple  # the encoder config and its Tensor.data arrays, compared with `is`
    embeddings: dict = field(default_factory=dict)  # image index -> Tensor


_last_group = None


def _group_embedder(images, params: ModelParameters):
    """``embed(indices)``: the node states of those images, in that order."""
    if active_tape() is not None:
        return lambda indices: encode_frames([images[i] for i in indices], params)
    global _last_group
    keys = [_image_key(image) for image in images]
    encoder = (params.encoder.config,) + tuple(t.data for _, t in params.encoder.named())
    memo = _last_group
    if memo is None or memo.images != keys or any(
            a is not b for a, b in zip(memo.encoder, encoder)):
        memo = _last_group = _GroupEmbeddings(keys, encoder)
    cache = memo.embeddings

    def embed(indices):
        missing = [i for i in indices if i not in cache]
        cache.update(zip(missing, encode_frames([images[i] for i in missing], params)))
        return [cache[i] for i in indices]

    return embed


def _image_key(image):
    arr = np.asarray(image.data if isinstance(image, Tensor) else image)
    return arr.dtype, arr.shape, arr.tobytes()


# ---------------------------------------------------------------------------
# evaluation


@dataclass
class EvalReport:
    rows: list  # (video_id, mean_j, mean_f)
    mean_j: float
    mean_f: float


def evaluate(manifest: DatasetManifest, params: ModelParameters, split="test",
             n_prime=TEST_N_PRIME):
    """Mean region and boundary agreement per video and across a split.

    Predictions are binarized at MASK_THRESHOLD and compared at feature-grid
    resolution against majority-downsampled ground truth.  An empty split
    raises DatasetError; a video whose frame size the model's downsample
    factor does not divide raises CheckpointMismatchError before inference.
    """
    entries = manifest.split(split)
    if not entries:
        raise DatasetError(f"{manifest.root / 'manifest.txt'}: split {split!r} is empty")
    d = params.downsample
    rows = []
    for entry in entries:
        frames, masks = load_video(manifest, entry)
        check_fits(params, frames, manifest.video_dir(entry))
        probs = infer_video(list(frames), params, n_prime=n_prime)
        js, fs = [], []
        for prob, gt in zip(probs, downsample_mask(masks, d)):
            pred = prob > MASK_THRESHOLD
            js.append(metrics.region_similarity(pred, gt))
            fs.append(metrics.boundary_f(pred, gt))
        rows.append((entry.video_id, float(np.mean(js)), float(np.mean(fs))))
    return EvalReport(
        rows=rows,
        mean_j=float(np.mean([r[1] for r in rows])),
        mean_f=float(np.mean([r[2] for r in rows])),
    )
