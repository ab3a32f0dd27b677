"""Seeded synthetic data: videos of moving shapes, static scenes, co-seg groups.

Every video has one foreground shape (the common object, same class and
colour in all frames) wandering over a smooth gradient background with
per-frame scale jitter, plus distractor shapes of other classes that appear
only in a strict subset of frames.  Shapes are rasterized with hard edges on
pixel centres so mask areas are exact.  All randomness derives from seeds;
regenerating with the same seed reproduces every byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import pnm
from .errors import FormatError

SHAPE_CLASSES = ("ellipse", "rectangle", "triangle")

_SPLIT_STREAMS = {"train": 0, "test": 1, "coseg": 2, "static": 3}


@dataclass(frozen=True)
class SyntheticVideoSpec:
    num_frames: int = 24
    canvas: int = 64
    shape_class: str = "ellipse"
    fg_half_frac: tuple = (0.16, 0.22)  # base semi-axes as canvas fractions
    max_step_frac: float = 0.15
    scale_range: tuple = (0.7, 1.3)
    distractor_count: int = 1
    distractor_half_frac: tuple = (0.09, 0.14)
    noise_amp: float = 0.03
    min_area_frac: float = 0.02
    seed: int = 0

    def __post_init__(self):
        if self.shape_class not in SHAPE_CLASSES:
            raise ValueError(f"unknown shape class {self.shape_class!r}")
        if self.num_frames < 1 or self.canvas < 8:
            raise ValueError("need at least 1 frame and an 8px canvas")


@dataclass(frozen=True)
class ManifestEntry:
    split: str
    video_id: str
    num_frames: int
    shape_class: str


@dataclass
class VideoLayout:
    """What a rendered video contains (for invariant checks and debugging)."""

    fg_class: str
    fg_color: np.ndarray
    distractor_classes: list
    distractor_visibility: list


@dataclass
class DatasetManifest:
    root: Path
    entries: list

    def split(self, name):
        return [e for e in self.entries if e.split == name]

    def video_dir(self, entry):
        return self.root / entry.split / entry.video_id


# ---------------------------------------------------------------------------
# rasterization


def raster_ellipse(canvas, cy, cx, ry, rx):
    yy, xx = np.mgrid[0:canvas, 0:canvas]
    return ((yy + 0.5 - cy) / ry) ** 2 + ((xx + 0.5 - cx) / rx) ** 2 <= 1.0


def raster_rectangle(canvas, cy, cx, ry, rx):
    yy, xx = np.mgrid[0:canvas, 0:canvas]
    return (np.abs(yy + 0.5 - cy) <= ry) & (np.abs(xx + 0.5 - cx) <= rx)


def raster_triangle(canvas, cy, cx, ry, rx):
    # isoceles, apex up: (cy-ry, cx), (cy+ry, cx-rx), (cy+ry, cx+rx);
    # this order is clockwise with y pointing down, so inside is cross <= 0
    yy, xx = np.mgrid[0:canvas, 0:canvas]
    py, px = yy + 0.5, xx + 0.5
    verts = [(cy - ry, cx), (cy + ry, cx - rx), (cy + ry, cx + rx)]
    inside = np.ones((canvas, canvas), dtype=bool)
    for (ay, ax), (by, bx) in zip(verts, verts[1:] + verts[:1]):
        cross = (bx - ax) * (py - ay) - (by - ay) * (px - ax)
        inside &= cross <= 0.0
    return inside


_RASTERIZERS = {
    "ellipse": raster_ellipse,
    "rectangle": raster_rectangle,
    "triangle": raster_triangle,
}


def raster_shape(shape_class, canvas, cy, cx, ry, rx):
    return _RASTERIZERS[shape_class](canvas, cy, cx, ry, rx)


# ---------------------------------------------------------------------------
# scene synthesis


def _pick_color(rng, avoid, min_dist=0.45):
    # rejection-sample a colour clearly separated from `avoid`
    while True:
        color = rng.uniform(0.0, 1.0, size=3)
        if np.abs(color - avoid).sum() >= min_dist:
            return color


def _background(rng, canvas):
    base = rng.uniform(0.25, 0.75, size=3)
    slopes = rng.uniform(-0.25, 0.25, size=(2, 3)) / canvas
    yy, xx = np.mgrid[0:canvas, 0:canvas]
    bg = base + yy[:, :, None] * slopes[0] + xx[:, :, None] * slopes[1]
    return base, bg


class _Track:
    """A shape with a random walk: bounded step, per-frame scale jitter."""

    def __init__(self, rng, spec, shape_class, half_frac_range, avoid_color):
        self.shape_class = shape_class
        self.color = _pick_color(rng, avoid_color)
        self.ry = rng.uniform(*half_frac_range) * spec.canvas
        self.rx = rng.uniform(*half_frac_range) * spec.canvas
        self.margin = spec.scale_range[1] * max(self.ry, self.rx) + 1.0
        lo, hi = self.margin, spec.canvas - self.margin
        if lo >= hi:
            raise ValueError(
                f"shape half fractions {half_frac_range} too big for canvas {spec.canvas}"
            )
        self.cy = rng.uniform(lo, hi)
        self.cx = rng.uniform(lo, hi)
        self.spec = spec

    def raster(self, rng):
        scale = rng.uniform(*self.spec.scale_range)
        return raster_shape(
            self.shape_class, self.spec.canvas, self.cy, self.cx, scale * self.ry, scale * self.rx
        )

    def step(self, rng):
        bound = self.spec.max_step_frac * self.spec.canvas
        lo, hi = self.margin, self.spec.canvas - self.margin
        self.cy = float(np.clip(self.cy + rng.uniform(-bound, bound), lo, hi))
        self.cx = float(np.clip(self.cx + rng.uniform(-bound, bound), lo, hi))


def _other_classes(shape_class):
    return [c for c in SHAPE_CLASSES if c != shape_class]


def render_video(spec: SyntheticVideoSpec, return_layout=False):
    """Frames in [0, 1] and exact boolean masks for one synthetic video."""
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
    canvas, n = spec.canvas, spec.num_frames
    bg_base, bg = _background(rng, canvas)
    fg = _Track(rng, spec, spec.shape_class, spec.fg_half_frac, bg_base)
    distractors = []
    for _ in range(spec.distractor_count):
        cls = _other_classes(spec.shape_class)[rng.integers(len(_other_classes(spec.shape_class)))]
        track = _Track(rng, spec, cls, spec.distractor_half_frac, bg_base)
        if n > 1:
            length = int(rng.integers(max(1, n // 3), n))  # strict subset of frames
            start = int(rng.integers(0, n - length + 1))
            visible = range(start, start + length)
        else:
            visible = range(0, 1)
        distractors.append((track, set(visible)))

    frames = np.empty((n, canvas, canvas, 3))
    masks = np.empty((n, canvas, canvas), dtype=bool)
    min_area = spec.min_area_frac * canvas * canvas
    for t in range(n):
        frame = bg + rng.uniform(-spec.noise_amp, spec.noise_amp, size=(canvas, canvas, 3))
        for track, visible in distractors:
            if t in visible:
                frame[track.raster(rng)] = track.color
        fg_mask = fg.raster(rng)
        if fg_mask.sum() < min_area:
            raise ValueError(f"foreground area {fg_mask.sum()} below {min_area:.0f} px in frame {t}")
        frame[fg_mask] = fg.color
        frames[t] = np.clip(frame, 0.0, 1.0)
        masks[t] = fg_mask
        fg.step(rng)
        for track, _ in distractors:
            track.step(rng)
    if return_layout:
        layout = VideoLayout(
            fg_class=spec.shape_class,
            fg_color=fg.color,
            distractor_classes=[t.shape_class for t, _ in distractors],
            distractor_visibility=[sorted(v) for _, v in distractors],
        )
        return frames, masks, layout
    return frames, masks


def render_static_scene(canvas, seed, shape_class=None, distractor_count=1):
    """One image with a foreground shape and optional other-class clutter."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    if shape_class is None:
        shape_class = SHAPE_CLASSES[rng.integers(len(SHAPE_CLASSES))]
    spec = SyntheticVideoSpec(
        num_frames=1,
        canvas=canvas,
        shape_class=shape_class,
        distractor_count=distractor_count,
        seed=0,
    )
    bg_base, bg = _background(rng, canvas)
    frame = bg + rng.uniform(-spec.noise_amp, spec.noise_amp, size=(canvas, canvas, 3))
    for _ in range(distractor_count):
        cls = _other_classes(shape_class)[rng.integers(2)]
        track = _Track(rng, spec, cls, spec.distractor_half_frac, bg_base)
        frame[track.raster(rng)] = track.color
    fg = _Track(rng, spec, shape_class, spec.fg_half_frac, bg_base)
    mask = fg.raster(rng)
    frame[mask] = fg.color
    return np.clip(frame, 0.0, 1.0), mask, shape_class


# ---------------------------------------------------------------------------
# on-disk dataset


def _frame_to_uint8(frame):
    return np.clip(np.round(frame * 255.0), 0, 255).astype(np.uint8)


def _write_video(video_dir, frames, masks):
    video_dir.mkdir(parents=True, exist_ok=True)
    for t in range(frames.shape[0]):
        pnm.write_ppm(video_dir / f"frame_{t:04d}.ppm", _frame_to_uint8(frames[t]))
        pnm.write_pgm(video_dir / f"mask_{t:04d}.pgm", masks[t])


def _video_seed(seed, split, index):
    return np.random.SeedSequence((seed, _SPLIT_STREAMS[split], index)).generate_state(1)[0]


def generate_dataset(
    out_dir,
    seed=0,
    train_videos=20,
    test_videos=5,
    num_frames=24,
    canvas=64,
    coseg_images_per_class=40,
    distractor_count=1,
):
    """Write train/test videos plus co-segmentation groups; returns the manifest.

    Foreground classes cycle round-robin over videos so every split covers
    all classes.  Co-seg images are stored as one-frame videos grouped by
    class in the manifest.
    """
    root = Path(out_dir)
    try:
        root.mkdir(parents=True, exist_ok=True)
        probe = root / ".write_probe"
        probe.write_bytes(b"")
        probe.unlink()
    except OSError as exc:
        raise OSError(f"output directory {root} is not writable: {exc}") from exc

    entries = []
    for split, count in (("train", train_videos), ("test", test_videos)):
        for i in range(count):
            spec = SyntheticVideoSpec(
                num_frames=num_frames,
                canvas=canvas,
                shape_class=SHAPE_CLASSES[i % len(SHAPE_CLASSES)],
                distractor_count=distractor_count,
                seed=int(_video_seed(seed, split, i)),
            )
            frames, masks = render_video(spec)
            video_id = f"video_{i:04d}"
            _write_video(root / split / video_id, frames, masks)
            entries.append(ManifestEntry(split, video_id, num_frames, spec.shape_class))

    index = 0
    for cls in SHAPE_CLASSES[: min(3, len(SHAPE_CLASSES))]:
        for _ in range(coseg_images_per_class):
            frame, mask, _ = render_static_scene(
                canvas, int(_video_seed(seed, "coseg", index)), shape_class=cls
            )
            video_id = f"video_{index:04d}"
            _write_video(root / "coseg" / video_id, frame[None], mask[None])
            entries.append(ManifestEntry("coseg", video_id, 1, cls))
            index += 1

    manifest = DatasetManifest(root, entries)
    write_manifest(manifest)
    return manifest


def write_manifest(manifest: DatasetManifest):
    lines = [
        f"{e.split}\t{e.video_id}\t{e.num_frames}\t{e.shape_class}\n" for e in manifest.entries
    ]
    (manifest.root / "manifest.txt").write_text("".join(lines))


def load_manifest(root):
    """Read manifest.txt and verify every referenced frame/mask file exists."""
    root = Path(root)
    path = root / "manifest.txt"
    if not path.is_file():
        raise OSError(f"no manifest at {path}")
    entries = []
    offset = 0
    for lineno, raw in enumerate(path.read_bytes().splitlines(keepends=True), start=1):
        line = raw.decode("utf-8", errors="replace").rstrip("\r\n")
        if line.strip():
            try:
                split, video_id, num_frames, shape_class = line.split("\t")
                entries.append(ManifestEntry(split, video_id, int(num_frames), shape_class))
            except ValueError:
                message = f"line {lineno}: expected 4 tab-separated fields, the third an integer"
                raise FormatError(path, offset, message) from None
        offset += len(raw)
    manifest = DatasetManifest(root, entries)
    for e in entries:
        vdir = manifest.video_dir(e)
        for t in range(e.num_frames):
            for name in (f"frame_{t:04d}.ppm", f"mask_{t:04d}.pgm"):
                if not (vdir / name).is_file():
                    raise OSError(f"manifest references missing file {vdir / name}")
    return manifest


def load_video(manifest: DatasetManifest, entry: ManifestEntry):
    """Frames as float64 in [0, 1] and masks as booleans."""
    vdir = manifest.video_dir(entry)
    frames = []
    masks = []
    for t in range(entry.num_frames):
        frames.append(pnm.read_ppm(vdir / f"frame_{t:04d}.ppm").astype(float) / 255.0)
        masks.append(pnm.read_pgm(vdir / f"mask_{t:04d}.pgm") >= 128)
    return np.stack(frames), np.stack(masks)


# ---------------------------------------------------------------------------
# sampling and mask resolution


def sample_training_clip(frames, n_prime, seed):
    """One uniformly random frame from each of n_prime contiguous segments.

    The video is split into near-equal segments with the remainder spread
    over the leading ones; temporal order is preserved.  ``seed`` may be an
    int or a numpy Generator.
    """
    n = len(frames)
    if n_prime < 1:
        raise ValueError(f"n_prime must be >= 1, got {n_prime}")
    if n_prime > n:
        raise ValueError(f"cannot sample {n_prime} segments from {n} frames")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    base, rem = divmod(n, n_prime)
    sizes = [base + 1] * rem + [base] * (n_prime - rem)
    picked = []
    start = 0
    for size in sizes:
        picked.append(frames[start + int(rng.integers(size))])
        start += size
    return picked


def downsample_mask(mask, factor):
    """Majority vote per factor-sized block; exact ties count as foreground."""
    arr = np.asarray(mask).astype(bool)
    if arr.ndim != 2:
        raise ValueError(f"mask must be 2-D, got shape {arr.shape}")
    h, w = arr.shape
    if h % factor or w % factor:
        raise ValueError(f"mask dims {arr.shape} not divisible by factor {factor}")
    blocks = arr.reshape(h // factor, factor, w // factor, factor).sum(axis=(1, 3))
    return 2 * blocks >= factor * factor
