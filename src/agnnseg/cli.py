"""Command-line entry point: gen-data, train, infer, eval.

Machine-readable results go to stdout, diagnostics to stderr.  Exit codes:
0 success, 1 usage error (an unknown command or option, a missing or
malformed option), config parse error, out-of-range config value or bad
option value, 2 I/O error, malformed input file or a dataset that cannot
serve the command, 3 training divergence, 4 checkpoint/config shape mismatch.

A --config file holds key=value lines.  Each key takes its default, type and
range from the dataclass field that owns it: canvas and frames_per_video from
SyntheticVideoSpec.canvas and .num_frames; channels and downsample from
EncoderConfig; k_iters from GraphConfig; n_prime_train, lr, momentum, iters
and seed from TrainConfig.n_prime, .lr, .momentum, .iterations and .seed
(seed also seeds gen-data).  Only gen-data reads canvas and frames_per_video,
and checks that downsample divides canvas.  The checkpoint carries channels,
downsample, K and the gating to infer and eval.

infer reads the frames of --video-dir DIR from DIR/frames.ppm, P6 images back
to back as gen-data writes them (``cat frame_*.ppm > frames.ppm`` makes one).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import pnm
from .encoder import EncoderConfig
from .errors import DatasetError, FieldError, FormatError
from .graph import GraphConfig
from .model import CheckpointMismatchError, check_fits, init_model, load_model, save_model
from .pipeline import (COSEG_N_PRIME, MASK_THRESHOLD, TEST_N_PRIME, DivergenceError,
                       TrainConfig, evaluate, infer_video, iocs_infer, train)
from .synthdata import (FRAMES_FILE, SyntheticVideoSpec, bilinear_upsample, generate_dataset,
                        load_manifest)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_IO = 2
EXIT_DIVERGED = 3
EXIT_SHAPE = 4

# config key -> (dataclass, field) that owns its default, type and range
CONFIG_FIELDS = {
    "canvas": (SyntheticVideoSpec, "canvas"),
    "frames_per_video": (SyntheticVideoSpec, "num_frames"),
    "channels": (EncoderConfig, "channels"),
    "downsample": (EncoderConfig, "downsample"),
    "n_prime_train": (TrainConfig, "n_prime"),
    "k_iters": (GraphConfig, "k_iters"),
    "lr": (TrainConfig, "lr"),
    "momentum": (TrainConfig, "momentum"),
    "iters": (TrainConfig, "iterations"),
    "seed": (TrainConfig, "seed"),
}


class ConfigError(ValueError):
    pass


def parse_config(path):
    """key=value lines; blank lines and # comments allowed; unknown keys fail.

    Each value is parsed with the type of its default.
    """
    values = {key: getattr(cls, name) for key, (cls, name) in CONFIG_FIELDS.items()}
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
        if key not in values:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = type(values[key])(value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {value!r}") from exc
    return values


def _build(config_path, cls, cfg):
    """``cls`` with every field that a config key owns set from that key.

    A field out of its range is reported under its key, as an error in the
    config file.
    """
    keys = {name: key for key, (owner, name) in CONFIG_FIELDS.items() if owner is cls}
    try:
        return cls(**{name: cfg[key] for name, key in keys.items()})
    except FieldError as exc:
        raise ConfigError(f"{config_path}: {keys[exc.field]} {exc.reason}") from exc


def _check_n_prime(n_prime, minimum):
    if n_prime < minimum:
        raise ConfigError(f"--n-prime must be >= {minimum}, got {n_prime}")


def cmd_gen_data(args):
    cfg = parse_config(args.config)
    spec = _build(args.config, SyntheticVideoSpec, cfg)
    # a model trained on the data must be able to downsample its frames
    downsample = _build(args.config, EncoderConfig, cfg).downsample
    if spec.canvas % downsample:
        raise ConfigError(f"canvas {spec.canvas} not divisible by downsample {downsample}")
    out = Path(args.out)
    try:
        generate_dataset(out, seed=cfg["seed"], num_frames=spec.num_frames, canvas=spec.canvas)
    except FieldError as exc:  # a negative seed, or a canvas too small for a foreground
        raise ConfigError(f"{args.config}: {exc}") from exc
    print(out / "manifest.txt")
    return EXIT_OK


def cmd_train(args):
    cfg = parse_config(args.config)
    train_cfg = _build(args.config, TrainConfig, cfg)
    encoder = _build(args.config, EncoderConfig, cfg)
    graph = _build(args.config, GraphConfig, cfg)
    manifest = load_manifest(args.data)
    params = init_model(encoder.channels, encoder.downsample, seed=train_cfg.seed, graph=graph)
    out = Path(args.out)
    made = not out.exists()
    out.mkdir(parents=True, exist_ok=True)
    try:
        result = train(manifest, train_cfg, params)
    except BaseException:
        if made:  # a run that does not finish leaves no output directory
            out.rmdir()
        raise
    save_model(out / "checkpoint.agnn", result.params)
    with open(out / "loss.csv", "w") as f:
        for i, value in enumerate(result.losses):
            f.write(f"{i},{value:.9f}\n")
    print(out / "checkpoint.agnn")
    return EXIT_OK


def cmd_infer(args):
    params = load_model(args.checkpoint)
    frames = pnm.read_ppm(Path(args.video_dir) / FRAMES_FILE)
    check_fits(params, frames, args.video_dir)
    coseg = args.task == "coseg"
    default = COSEG_N_PRIME if coseg else TEST_N_PRIME
    n_prime = default if args.n_prime is None else args.n_prime
    # each co-segmentation graph holds the target and at least one other image
    _check_n_prime(n_prime, 2 if coseg and len(frames) > 1 else 1)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if coseg:
        probs = [iocs_infer(frames, i, params, n_prime=n_prime) for i in range(len(frames))]
    else:
        probs = infer_video(frames, params, n_prime=n_prime)
    height, width = frames.shape[1:3]
    for i, prob in enumerate(probs):
        up = bilinear_upsample(prob, params.downsample)[:height, :width]
        pnm.write_pgm(out / f"pred_{i:04d}.pgm", (up > MASK_THRESHOLD)[None])
    print(out)
    return EXIT_OK


def cmd_eval(args):
    _check_n_prime(args.n_prime, 1)
    params = load_model(args.checkpoint)
    manifest = load_manifest(args.data)
    report = evaluate(manifest, params, split=args.split, n_prime=args.n_prime)
    for video_id, j, f in report.rows:
        print(f"{video_id},{j:.6f},{f:.6f}")
    print(f"mean,{report.mean_j:.6f},{report.mean_f:.6f}")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(prog="agnnseg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate the synthetic dataset")
    p.add_argument("--config", default=None)
    p.add_argument("--out", default=".")
    p.set_defaults(fn=cmd_gen_data)

    p = sub.add_parser("train", help="train a model on a generated dataset")
    p.add_argument("--config", default=None)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("infer", help="write predicted masks for a video directory")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--video-dir", required=True, help="directory whose frames.ppm holds the "
                   "frames as P6 images back to back (cat frame_*.ppm > frames.ppm makes one)")
    p.add_argument("--out", required=True)
    p.add_argument("--n-prime", type=int,
                   help=f"nodes per graph (default {TEST_N_PRIME}, or {COSEG_N_PRIME} for coseg)")
    p.add_argument("--task", choices=("video", "coseg"), default="video")
    p.set_defaults(fn=cmd_infer)

    p = sub.add_parser("eval", help="print per-video and mean J/F as CSV")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", default="test")
    p.add_argument("--n-prime", type=int, default=TEST_N_PRIME)
    p.set_defaults(fn=cmd_eval)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed the help or the usage error
        return EXIT_OK if exc.code == 0 else EXIT_CONFIG
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
    except (OSError, FormatError, DatasetError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
