"""Command-line entry point: gen-data, train, infer, eval.

Machine-readable results go to stdout, diagnostics to stderr.  Exit codes:
0 success, 1 config parse error, 2 I/O error or malformed input file,
3 training divergence, 4 checkpoint/config shape mismatch.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import pnm
from .errors import FormatError
from .model import CheckpointMismatchError, load_model, save_model
from .pipeline import DivergenceError, TrainConfig, evaluate, infer_video, iocs_infer, train
from .synthdata import generate_dataset, load_manifest

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_IO = 2
EXIT_DIVERGED = 3
EXIT_SHAPE = 4

CONFIG_DEFAULTS = {
    "canvas": 64,
    "channels": 32,
    "downsample": 4,
    "frames_per_video": 24,
    "n_prime_train": 3,
    "n_prime_test": 5,
    "k_iters": 3,
    "lr": 1e-3,
    "momentum": 0.9,
    "iters": 2000,
    "seed": 0,
    "out_dir": ".",
}

_INT_KEYS = {
    "canvas", "channels", "downsample", "frames_per_video",
    "n_prime_train", "n_prime_test", "k_iters", "iters", "seed",
}
_FLOAT_KEYS = {"lr", "momentum"}


class ConfigError(ValueError):
    pass


def parse_config(path):
    """key=value lines; blank lines and # comments allowed; unknown keys fail."""
    values = dict(CONFIG_DEFAULTS)
    if path is None:
        return values
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in CONFIG_DEFAULTS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            if key in _INT_KEYS:
                values[key] = int(value)
            elif key in _FLOAT_KEYS:
                values[key] = float(value)
            else:
                values[key] = value
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {value!r}") from exc
    if values["canvas"] % values["downsample"]:
        raise ConfigError(
            f"canvas {values['canvas']} not divisible by downsample {values['downsample']}"
        )
    return values


def _bilinear_upsample(grid, factor):
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


def _export_mask(path, prob_grid, out_shape, factor, threshold=0.5):
    up = _bilinear_upsample(prob_grid, factor)[: out_shape[0], : out_shape[1]]
    pnm.write_pgm(path, up > threshold)


def cmd_gen_data(args):
    cfg = parse_config(args.config)
    out = Path(args.out) if args.out else Path(cfg["out_dir"])
    generate_dataset(
        out,
        seed=cfg["seed"],
        num_frames=cfg["frames_per_video"],
        canvas=cfg["canvas"],
    )
    print(out / "manifest.txt")
    return EXIT_OK


def cmd_train(args):
    cfg = parse_config(args.config)
    manifest = load_manifest(args.data)
    train_cfg = TrainConfig(
        n_prime=cfg["n_prime_train"],
        k_iters=cfg["k_iters"],
        lr=cfg["lr"],
        momentum=cfg["momentum"],
        iterations=cfg["iters"],
        seed=cfg["seed"],
    )
    result = train(manifest, train_cfg, channels=cfg["channels"], downsample=cfg["downsample"])
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_model(out / "checkpoint.agnn", result.params, k_iters=cfg["k_iters"])
    with open(out / "loss.csv", "w") as f:
        for i, value in enumerate(result.losses):
            f.write(f"{i},{value:.9f}\n")
    print(out / "checkpoint.agnn")
    return EXIT_OK


def _load_frames_dir(video_dir):
    paths = sorted(Path(video_dir).glob("frame_*.ppm"))
    if not paths:
        raise OSError(f"no frame_*.ppm files in {video_dir}")
    return [pnm.read_ppm(p).astype(float) / 255.0 for p in paths]


def cmd_infer(args):
    params, meta = load_model(args.checkpoint)
    frames = _load_frames_dir(args.video_dir)
    d = params.downsample
    for frame in frames:
        if frame.shape[0] % d or frame.shape[1] % d:
            raise CheckpointMismatchError(
                f"frame size {frame.shape[:2]} not divisible by model downsample {d}"
            )
    k_iters = int(meta["k_iters"])
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.task == "video":
        probs = infer_video(frames, params, n_prime=args.n_prime, k_iters=k_iters)
    else:
        probs = [
            iocs_infer(frames, i, params, n_prime=args.n_prime, k_iters=k_iters)
            for i in range(len(frames))
        ]
    for i, prob in enumerate(probs):
        _export_mask(out / f"pred_{i:04d}.pgm", prob, frames[i].shape[:2], d)
    print(out)
    return EXIT_OK


def cmd_eval(args):
    params, meta = load_model(args.checkpoint)
    manifest = load_manifest(args.data)
    if not manifest.split(args.split):
        raise OSError(f"split {args.split!r} has no videos in {args.data}")
    report = evaluate(
        manifest, params, split=args.split, n_prime=args.n_prime, k_iters=int(meta["k_iters"])
    )
    for video_id, j, f in report.rows:
        print(f"{video_id},{j:.6f},{f:.6f}")
    print(f"mean,{report.mean_j:.6f},{report.mean_f:.6f}")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(prog="agnnseg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate the synthetic dataset")
    p.add_argument("--config", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_gen_data)

    p = sub.add_parser("train", help="train a model on a generated dataset")
    p.add_argument("--config", default=None)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("infer", help="write predicted masks for a frame directory")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--video-dir", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--n-prime", type=int, default=5)
    p.add_argument("--task", choices=("video", "coseg"), default="video")
    p.set_defaults(fn=cmd_infer)

    p = sub.add_parser("eval", help="print per-video and mean J/F as CSV")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", default="test")
    p.add_argument("--n-prime", type=int, default=5)
    p.set_defaults(fn=cmd_eval)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DivergenceError as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except CheckpointMismatchError as exc:
        print(f"shape mismatch: {exc}", file=sys.stderr)
        return EXIT_SHAPE
    except (OSError, FormatError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
