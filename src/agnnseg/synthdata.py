"""Seeded synthetic data: videos of moving shapes, static scenes, co-seg groups.

Every video has one foreground shape (the common object, same class and
colour in all frames) wandering over a smooth gradient background with
per-frame scale jitter, plus distractor shapes of other classes that appear
only in a strict subset of frames.  Shapes are rasterized with hard edges on
pixel centres so mask areas are exact.  All randomness derives from seeds;
regenerating with the same seed reproduces every byte.  The scene constants
DISTRACTOR_COUNT, FG_HALF_FRAC, DISTRACTOR_HALF_FRAC, MAX_STEP_FRAC,
SCALE_RANGE, NOISE_AMP, MIN_AREA_FRAC, MIN_COLOR_DIST and MIN_CANVAS and the
dataset sizes TRAIN_VIDEOS, TEST_VIDEOS and COSEG_IMAGES_PER_CLASS are fixed;
each is described where it is set.

On disk each video is a directory ``<split>/<video_id>/`` beside
``manifest.txt`` with ``frames.ppm``, its T frames as P6 images back to back,
and ``masks.pgm``, its T masks as P5 images (see ``pnm``); one-image files
convert with ``cat frame_*.ppm > frames.ppm`` and ``cat mask_*.pgm > masks.pgm``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import pnm
from .errors import FieldError, FormatError

SHAPE_CLASSES = ("ellipse", "rectangle", "triangle")

COSEG_SPLIT = "coseg"  # the split of co-segmentation images, one-frame videos
_SPLIT_STREAMS = {"train": 0, "test": 1, COSEG_SPLIT: 2}

DISTRACTOR_COUNT = 1  # other-class shapes per video and per static scene
FG_HALF_FRAC = (0.16, 0.22)  # foreground base semi-axes, as canvas fractions
DISTRACTOR_HALF_FRAC = (0.09, 0.14)  # distractor base semi-axes, likewise
MAX_STEP_FRAC = 0.15  # largest move per frame and axis, as a canvas fraction
SCALE_RANGE = (0.7, 1.3)  # per-frame scale factor of the semi-axes
NOISE_AMP = 0.03  # half-width of the uniform pixel noise, in [0, 1] intensity
MIN_AREA_FRAC = 0.02  # smallest foreground area, as a fraction of the canvas area
MIN_COLOR_DIST = 0.45  # smallest L1 distance of a shape colour from the background base
MIN_CANVAS = 8  # smallest canvas side a video or a static scene is drawn on
TRAIN_VIDEOS = 20  # videos in a generated train split
TEST_VIDEOS = 5  # videos in a generated test split
COSEG_IMAGES_PER_CLASS = 40  # co-segmentation images per shape class
FRAMES_FILE = "frames.ppm"  # a video's T frames, P6 images back to back
MASKS_FILE = "masks.pgm"  # its T masks, P5 images back to back


def _check_scene(canvas, shape_class):
    if shape_class not in SHAPE_CLASSES:
        raise ValueError(f"unknown shape class {shape_class!r}")
    if canvas < MIN_CANVAS:
        raise FieldError("canvas", f"must be >= {MIN_CANVAS}, got {canvas}")


@dataclass(frozen=True)
class SyntheticVideoSpec:
    """The two video settings a config sets; ``render_video`` takes the
    foreground class and the seed of each video."""

    num_frames: int = 24
    canvas: int = 64

    def __post_init__(self):
        for name, floor in (("canvas", MIN_CANVAS), ("num_frames", 1)):
            if getattr(self, name) < floor:
                raise FieldError(name, f"must be >= {floor}, got {getattr(self, name)}")


@dataclass(frozen=True)
class ManifestEntry:
    split: str
    video_id: str
    num_frames: int
    shape_class: str


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


def _centres(canvas):
    """Pixel centres as a column and a row; broadcast, they act as an index grid."""
    axis = np.arange(canvas) + 0.5
    return axis[:, None], axis[None, :]


def raster_ellipse(canvas, cy, cx, ry, rx):
    py, px = _centres(canvas)
    return ((py - cy) / ry) ** 2 + ((px - cx) / rx) ** 2 <= 1.0


def raster_rectangle(canvas, cy, cx, ry, rx):
    py, px = _centres(canvas)
    return (np.abs(py - cy) <= ry) & (np.abs(px - cx) <= rx)


def raster_triangle(canvas, cy, cx, ry, rx):
    # isoceles, apex up: (cy-ry, cx), (cy+ry, cx-rx), (cy+ry, cx+rx);
    # this order is clockwise with y pointing down, so inside is cross <= 0
    py, px = _centres(canvas)
    verts = [(cy - ry, cx), (cy + ry, cx - rx), (cy + ry, cx + rx)]
    inside = np.ones((canvas, canvas), dtype=bool)
    for (ay, ax), (by, bx) in zip(verts, verts[1:] + verts[:1]):
        # the cross product p - q <= 0 tested as p <= q, the same for finite
        # floats with gradual underflow; (H, 1) <= (1, W) makes no float grid
        inside &= (bx - ax) * (py - ay) <= (by - ay) * (px - ax)
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


def _pick_color(rng, avoid):
    # rejection-sample a colour clearly separated from `avoid`
    while True:
        color = rng.uniform(0.0, 1.0, size=3)
        if np.abs(color - avoid).sum() >= MIN_COLOR_DIST:
            return color


def _background(rng, canvas):
    base = rng.uniform(0.25, 0.75, size=3)
    slopes = rng.uniform(-0.25, 0.25, size=(2, 3)) / canvas
    axis = np.arange(canvas)
    # channel-major (3, H, W), so each add runs along a pixel row; the sums are
    # the same, and one copy lays them out as (H, W, 3)
    along_y, along_x = slopes[:, :, None, None]
    bg = base[:, None, None] + along_y * axis[:, None] + along_x * axis
    return base, bg.transpose(1, 2, 0).copy()


class _Track:
    """A shape with a random walk: bounded step, per-frame scale jitter."""

    def __init__(self, rng, canvas, shape_class, half_frac_range, avoid_color):
        self.shape_class = shape_class
        self.color = _pick_color(rng, avoid_color)
        self.ry = rng.uniform(*half_frac_range) * canvas
        self.rx = rng.uniform(*half_frac_range) * canvas
        # margin <= 1.3 * 0.22 * canvas + 1 < canvas / 2 for every canvas >= 8
        self.margin = SCALE_RANGE[1] * max(self.ry, self.rx) + 1.0
        self.canvas = canvas
        self.cy = rng.uniform(self.margin, canvas - self.margin)
        self.cx = rng.uniform(self.margin, canvas - self.margin)

    def raster(self, rng):
        scale = rng.uniform(*SCALE_RANGE)
        return raster_shape(
            self.shape_class, self.canvas, self.cy, self.cx, scale * self.ry, scale * self.rx
        )

    def step(self, rng):
        bound = MAX_STEP_FRAC * self.canvas
        lo, hi = self.margin, self.canvas - self.margin
        self.cy = float(np.clip(self.cy + rng.uniform(-bound, bound), lo, hi))
        self.cx = float(np.clip(self.cx + rng.uniform(-bound, bound), lo, hi))


def _other_classes(shape_class):
    return [c for c in SHAPE_CLASSES if c != shape_class]


def render_video(spec: SyntheticVideoSpec, shape_class, seed):
    """Frames in [0, 1] and exact boolean masks for one synthetic video whose
    foreground is of ``shape_class``, drawn from ``seed`` alone.  A frame whose
    foreground covers less than MIN_AREA_FRAC raises FieldError on ``canvas``."""
    _check_scene(spec.canvas, shape_class)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    canvas, n = spec.canvas, spec.num_frames
    bg_base, bg = _background(rng, canvas)
    fg = _Track(rng, canvas, shape_class, FG_HALF_FRAC, bg_base)
    distractors = []
    for _ in range(DISTRACTOR_COUNT):
        cls = _other_classes(shape_class)[rng.integers(len(_other_classes(shape_class)))]
        track = _Track(rng, canvas, cls, DISTRACTOR_HALF_FRAC, bg_base)
        if n > 1:
            length = int(rng.integers(max(1, n // 3), n))  # strict subset of frames
            start = int(rng.integers(0, n - length + 1))
            visible = range(start, start + length)
        else:
            visible = range(0, 1)
        distractors.append((track, set(visible)))

    frames = np.empty((n, canvas, canvas, 3))
    masks = np.empty((n, canvas, canvas), dtype=bool)
    min_area = MIN_AREA_FRAC * canvas * canvas
    for t in range(n):
        frame = bg + rng.uniform(-NOISE_AMP, NOISE_AMP, size=(canvas, canvas, 3))
        for track, visible in distractors:
            if t in visible:
                frame[track.raster(rng)] = track.color
        fg_mask = fg.raster(rng)
        if fg_mask.sum() < min_area:
            raise FieldError("canvas", f"{canvas} draws a foreground of {fg_mask.sum()} px in "
                                       f"frame {t}, below the floor of {min_area:g} px")
        frame[fg_mask] = fg.color
        frames[t] = np.clip(frame, 0.0, 1.0)
        masks[t] = fg_mask
        fg.step(rng)
        for track, _ in distractors:
            track.step(rng)
    return frames, masks


def render_static_scene(canvas, seed, shape_class=None):
    """One image with a foreground shape and DISTRACTOR_COUNT other-class
    distractors."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    if shape_class is None:
        shape_class = SHAPE_CLASSES[rng.integers(len(SHAPE_CLASSES))]
    _check_scene(canvas, shape_class)
    bg_base, bg = _background(rng, canvas)
    frame = bg + rng.uniform(-NOISE_AMP, NOISE_AMP, size=(canvas, canvas, 3))
    for _ in range(DISTRACTOR_COUNT):
        cls = _other_classes(shape_class)[rng.integers(2)]
        track = _Track(rng, canvas, cls, DISTRACTOR_HALF_FRAC, bg_base)
        frame[track.raster(rng)] = track.color
    fg = _Track(rng, canvas, shape_class, FG_HALF_FRAC, bg_base)
    mask = fg.raster(rng)
    frame[mask] = fg.color
    return np.clip(frame, 0.0, 1.0), mask, shape_class


# ---------------------------------------------------------------------------
# on-disk dataset


def _write_video(video_dir, frames, masks):
    video_dir.mkdir(parents=True, exist_ok=True)
    pixels = np.empty(frames.shape, dtype=np.uint8)
    for t, frame in enumerate(frames):  # no float temporaries the size of the video
        pixels[t] = np.clip(np.round(frame * 255.0), 0, 255)
    pnm.write_ppm(video_dir / FRAMES_FILE, pixels)
    pnm.write_pgm(video_dir / MASKS_FILE, masks)


def _video_seed(seed, split, index):
    return np.random.SeedSequence((seed, _SPLIT_STREAMS[split], index)).generate_state(1)[0]


def generate_dataset(out_dir, seed, num_frames=SyntheticVideoSpec.num_frames,
                     canvas=SyntheticVideoSpec.canvas):
    """Write TRAIN_VIDEOS train and TEST_VIDEOS test videos plus
    COSEG_IMAGES_PER_CLASS co-segmentation images per class; returns the manifest.

    Foreground classes cycle round-robin over videos so every split covers
    all classes.  Co-seg images are stored as one-frame videos grouped by
    class in the manifest.  A negative seed raises FieldError before
    anything is created; so does a canvas or frame count outside
    SyntheticVideoSpec's range.  A too small foreground (FieldError) or an
    unwritable path (OSError) stops the run at that video, with no manifest.
    """
    if seed < 0:
        raise FieldError("seed", f"must be >= 0, got {seed}")
    spec = SyntheticVideoSpec(num_frames=num_frames, canvas=canvas)
    root = Path(out_dir)
    root.mkdir(parents=True, exist_ok=True)

    entries = []
    for split, count in (("train", TRAIN_VIDEOS), ("test", TEST_VIDEOS)):
        for i in range(count):
            shape_class = SHAPE_CLASSES[i % len(SHAPE_CLASSES)]
            frames, masks = render_video(spec, shape_class, int(_video_seed(seed, split, i)))
            video_id = f"video_{i:04d}"
            _write_video(root / split / video_id, frames, masks)
            entries.append(ManifestEntry(split, video_id, num_frames, shape_class))

    index = 0
    for cls in SHAPE_CLASSES:
        for _ in range(COSEG_IMAGES_PER_CLASS):
            frame, mask, _ = render_static_scene(
                canvas, int(_video_seed(seed, COSEG_SPLIT, index)), shape_class=cls
            )
            video_id = f"video_{index:04d}"
            _write_video(root / COSEG_SPLIT / video_id, frame[None], mask[None])
            entries.append(ManifestEntry(COSEG_SPLIT, video_id, 1, cls))
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
    """Read manifest.txt and verify every referenced frame/mask file exists.

    Every video must have at least one frame, and its split and video id
    must each be one plain path component, so it lies under ``root``.
    """
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
                count = int(num_frames)
            except ValueError:
                count = 0
            if count < 1:
                message = (f"line {lineno}: expected 4 tab-separated fields, "
                           "the third an integer of at least 1")
                raise FormatError(path, offset, message)
            for name in (split, video_id):
                if name in ("", ".", "..") or "/" in name or "\\" in name:
                    message = (f"line {lineno}: split and video id must each be one "
                               f"plain path component, got {name!r}")
                    raise FormatError(path, offset, message)
            entries.append(ManifestEntry(split, video_id, count, shape_class))
        offset += len(raw)
    manifest = DatasetManifest(root, entries)
    for e in entries:
        for name in (FRAMES_FILE, MASKS_FILE):
            path = manifest.video_dir(e) / name
            if not path.is_file():
                raise OSError(f"manifest references missing file {path}")
    return manifest


def load_video(manifest: DatasetManifest, entry: ManifestEntry):
    """Frames as a (T, H, W, 3) uint8 stack, masks as (T, H, W) bools.

    The frames stay the decoded bytes; ``encoder.encode`` scales each one it
    embeds by 1/255.  The masks are thresholded at 128.  Each array is
    fresh, C-contiguous and writable.  A file whose image count is not the
    manifest's ``num_frames``, or a mask stack whose size differs from the
    frames', raises FormatError naming the file.
    """
    vdir = manifest.video_dir(entry)
    frames_path, masks_path = vdir / FRAMES_FILE, vdir / MASKS_FILE
    frames = pnm.read_ppm(frames_path)
    masks = pnm.read_pgm(masks_path)
    for path, stack in ((frames_path, frames), (masks_path, masks)):
        if len(stack) != entry.num_frames:
            raise FormatError(path, 0, f"{len(stack)} images, but the manifest "
                                       f"gives {entry.num_frames} frames")
    if masks.shape[1:] != frames.shape[1:3]:
        (h, w), (ref_h, ref_w) = masks.shape[1:], frames.shape[1:3]
        raise FormatError(masks_path, 0,
                          f"size {w}x{h} differs from {ref_w}x{ref_h} of {frames_path}")
    return frames, masks


# ---------------------------------------------------------------------------
# sampling and mask resolution


def sample_training_clip(frames, n_prime, rng):
    """One uniformly random frame from each of n_prime contiguous segments.

    The video is split into near-equal segments with the remainder spread
    over the leading ones; temporal order is preserved.  ``rng`` is a numpy
    Generator.
    """
    n = len(frames)
    if n_prime < 1:
        raise ValueError(f"n_prime must be >= 1, got {n_prime}")
    if n_prime > n:
        raise ValueError(f"cannot sample {n_prime} segments from {n} frames")
    return [run[int(rng.integers(len(run)))] for run in near_equal_runs(frames, n_prime)]


def near_equal_runs(items, count):
    """``items`` cut in order into ``count`` runs, the leading ones one longer."""
    base, rem = divmod(len(items), count)
    bounds = [i * base + min(i, rem) for i in range(count + 1)]
    return [items[a:b] for a, b in zip(bounds, bounds[1:])]


def downsample_mask(mask, factor):
    """Majority vote per factor-sized block of the last two axes of (..., H, W).

    The mask is read as uint8 and its votes are counted, with strided
    slice-adds first over the rows of each block and then over its columns,
    in ``np.min_scalar_type(factor * factor)`` counters (uint8 up to factor
    15, uint16 from 16), so no count can wrap.  A whole video's masks take
    2 * factor adds.  A block is foreground when it has at least
    ``(factor * factor + 1) // 2`` votes, so exact ties count as foreground.
    """
    arr = np.asarray(mask, dtype=bool)
    if arr.ndim < 2:
        raise ValueError(f"mask must be at least 2-D, got shape {arr.shape}")
    h, w = arr.shape[-2:]
    if h % factor or w % factor:
        raise ValueError(f"mask dims {arr.shape} not divisible by factor {factor}")
    lead, bits = arr.shape[:-2], arr.view(np.uint8)
    counter = np.min_scalar_type(factor * factor)
    rows = np.zeros(lead + (h // factor, w), dtype=counter)
    for dy in range(factor):
        rows += bits[..., dy::factor, :]
    votes = np.zeros(lead + (h // factor, w // factor), dtype=counter)
    for dx in range(factor):
        votes += rows[..., dx::factor]
    return votes >= (factor * factor + 1) // 2


def bilinear_upsample(grid, factor):
    """Upsample a 2-D map by an integer factor (half-pixel aligned)."""
    h, w = grid.shape
    out_h, out_w = h * factor, w * factor
    ys = (np.arange(out_h) + 0.5) / factor - 0.5
    xs = (np.arange(out_w) + 0.5) / factor - 0.5
    y0 = np.clip(np.floor(ys).astype(int), 0, h - 1)
    x0 = np.clip(np.floor(xs).astype(int), 0, w - 1)
    y1 = np.clip(y0 + 1, 0, h - 1)
    x1 = np.clip(x0 + 1, 0, w - 1)
    wy = np.clip(ys - y0, 0.0, 1.0)[:, None]
    wx = np.clip(xs - x0, 0.0, 1.0)[None, :]
    top = grid[np.ix_(y0, x0)] * (1 - wx) + grid[np.ix_(y0, x1)] * wx
    bottom = grid[np.ix_(y1, x0)] * (1 - wx) + grid[np.ix_(y1, x1)] * wx
    return top * (1 - wy) + bottom * wy
