"""SHA-256 digests of what one source tree's agnnseg writes and returns.

    python3 tools/identity_digests.py SRC_DIR

Imports ``agnnseg`` from ``SRC_DIR/src`` and from nowhere else, runs a fixed
set of CLI commands and library calls in a temporary directory, and prints
one JSON object with twelve digests.  Two trees whose outputs are
byte-identical print the same object, so a change that must not move a single
bit is checked by running this on a copy of each tree and comparing the two
lines.  Every
call below except ``gen-data`` reaches ``engine.reshape``, so on a tree
whose ``engine/ops.py`` cannot run a reshape the script stops with that
error at the CLI ``train``.

* CLI, on a canvas-32 config with ``k_iters=2``, 8 frames per video and seed
  5: ``gen-data``, a 6-iteration ``train`` (``cli_train_loss_csv``,
  ``cli_checkpoint``), ``eval`` (its standard output, ``cli_eval_csv``),
  ``infer --task video`` on the first test video and ``infer --task coseg``
  on the first 6 co-segmentation images of one class, written as one
  ``frames.ppm`` (the PGMs it writes).
* Data path (``data_path``): every file ``gen-data`` wrote, by relative path,
  then ``render_static_scene`` for seeds 0-99 at canvas 16, 32 and 64 (frame,
  mask and class) with each mask's ``downsample_mask`` at factors 4 and 8.
  It covers the file layout, so it differs by design between trees that
  store a video differently; ``decoded_data`` does not.
* Decoded data (``decoded_data``): each manifest entry of the ``gen-data``
  output, as its manifest line, then the frames and masks ``load_video``
  returns for it.
* Library, on the default dataset at seed 71: a 6-iteration ``train`` from
  ``init_model(seed=71)`` (``train_losses``, and ``train_params`` over every
  named tensor); then, from a fresh ``init_model(seed=71)``, ``evaluate``
  rows, the ``infer_video`` maps of every test video, and the
  ``iocs_infer`` map of every image of every same-class group of 10.

Each digest is SHA-256 over bytes concatenated in order: a file's bytes
(PGMs in name order), ``eval``'s standard output, the float64 bytes of the
losses, of each named tensor in ``named_tensors`` order and of each map, and
``repr`` of the ``evaluate`` rows.  A digest over several files, maps or
videos is listed as ``[count, digest]``; ``data_path`` counts the files and
the scenes.
BLAS, OpenMP and MKL run one thread each, as in ``perfbench``.
"""

import os

# fixed before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

CLI_CONFIG = "canvas=32\nframes_per_video=8\nk_iters=2\niters=6\nseed=5\n"
CLI_COSEG_IMAGES = 6
LIBRARY_SEED = 71
TRAIN_ITERATIONS = 6
COSEG_GROUP = 10
DATA_SEEDS = 100
DATA_CANVASES = (16, 32, 64)
DATA_FACTORS = (4, 8)


def _import_program(src_dir):
    src = (Path(src_dir) / "src").resolve()
    sys.path.insert(0, str(src))
    import agnnseg

    if not Path(agnnseg.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"agnnseg imported from {agnnseg.__file__}, not from {src}")


def _sha(*chunks):
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    return digest.hexdigest()


def _files_digest(directory):
    paths = sorted(Path(directory).iterdir())
    return [len(paths), _sha(*(p.read_bytes() for p in paths))]


def _maps_digest(maps):
    return [len(maps), _sha(*(m.tobytes() for m in maps))]


def data_path_digest(data):
    """Everything gen-data wrote, then static scenes and their mask votes."""
    from agnnseg.synthdata import downsample_mask, render_static_scene

    files = sorted(p for p in Path(data).rglob("*") if p.is_file())
    chunks = [c for p in files for c in (str(p.relative_to(data)).encode(), p.read_bytes())]
    for canvas in DATA_CANVASES:
        for seed in range(DATA_SEEDS):
            frame, mask, shape_class = render_static_scene(canvas, seed)
            chunks += [frame.tobytes(), mask.tobytes(), shape_class.encode()]
            chunks += [downsample_mask(mask, f).tobytes() for f in DATA_FACTORS]
    return [len(files) + DATA_SEEDS * len(DATA_CANVASES), _sha(*chunks)]


def decoded_data_digest(data):
    """Every video of the dataset at ``data`` as ``load_video`` decodes it."""
    from agnnseg.synthdata import load_manifest, load_video

    manifest = load_manifest(data)
    chunks = []
    for e in manifest.entries:
        frames, masks = load_video(manifest, e)
        line = f"{e.split}\t{e.video_id}\t{e.num_frames}\t{e.shape_class}\n"
        chunks += [line.encode(), frames.tobytes(), masks.tobytes()]
    return [len(manifest.entries), _sha(*chunks)]


def _cli(*argv):
    """Run ``agnnseg`` in-process; its standard output, or exit on an error."""
    from agnnseg.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([str(a) for a in argv])
    if code:
        raise SystemExit(f"agnnseg {argv[0]} exited with {code}")
    return out.getvalue()


def cli_digests(work):
    config = work / "cli.cfg"
    config.write_text(CLI_CONFIG)
    data, run = work / "cli-data", work / "cli-run"
    _cli("gen-data", "--config", config, "--out", data)
    data_path = data_path_digest(data)
    decoded_data = decoded_data_digest(data)
    _cli("train", "--config", config, "--data", data, "--out", run)
    checkpoint = run / "checkpoint.agnn"
    eval_csv = _cli("eval", "--checkpoint", checkpoint, "--data", data)

    from agnnseg.synthdata import load_manifest

    manifest = load_manifest(data)
    video_dir = manifest.video_dir(manifest.split("test")[0])
    _cli("infer", "--checkpoint", checkpoint, "--video-dir", video_dir,
         "--out", work / "video-masks", "--task", "video")
    coseg = manifest.split("coseg")
    group = [e for e in coseg if e.shape_class == coseg[0].shape_class][:CLI_COSEG_IMAGES]
    images = work / "coseg-images"
    images.mkdir()
    frames = [(manifest.video_dir(entry) / "frames.ppm").read_bytes() for entry in group]
    (images / "frames.ppm").write_bytes(b"".join(frames))
    _cli("infer", "--checkpoint", checkpoint, "--video-dir", images,
         "--out", work / "coseg-masks", "--task", "coseg")
    return {
        "data_path": data_path,
        "decoded_data": decoded_data,
        "cli_train_loss_csv": _sha((run / "loss.csv").read_bytes()),
        "cli_checkpoint": _sha(checkpoint.read_bytes()),
        "cli_eval_csv": _sha(eval_csv.encode()),
        "cli_infer_video_pgms": _files_digest(work / "video-masks"),
        "cli_infer_coseg_pgms": _files_digest(work / "coseg-masks"),
    }


def library_digests(work):
    import numpy as np

    from agnnseg.model import init_model
    from agnnseg.pipeline import TrainConfig, evaluate, infer_video, iocs_infer, train
    from agnnseg.synthdata import generate_dataset, load_video

    manifest = generate_dataset(work / "data", seed=LIBRARY_SEED)
    result = train(manifest, TrainConfig(iterations=TRAIN_ITERATIONS, seed=LIBRARY_SEED),
                   params=init_model(seed=LIBRARY_SEED))
    named = result.params.named_tensors()

    params = init_model(seed=LIBRARY_SEED)
    rows = evaluate(manifest, params).rows
    video_maps = []
    for entry in manifest.split("test"):
        frames, _ = load_video(manifest, entry)
        video_maps.extend(infer_video(list(frames), params))
    by_class = {}
    for entry in manifest.split("coseg"):
        frames, _ = load_video(manifest, entry)
        by_class.setdefault(entry.shape_class, []).append(frames[0])
    coseg_maps = []
    for members in by_class.values():
        for k in range(0, len(members) - COSEG_GROUP + 1, COSEG_GROUP):
            group = members[k:k + COSEG_GROUP]
            coseg_maps.extend(iocs_infer(group, i, params) for i in range(len(group)))
    return {
        "train_losses": _sha(np.asarray(result.losses, dtype=np.float64).tobytes()),
        "train_params": _sha(*(t.data.tobytes() for _, t in named)),
        "evaluate_rows": _sha(repr(rows).encode()),
        "infer_video_maps": _maps_digest(video_maps),
        "iocs_infer_maps": _maps_digest(coseg_maps),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src_dir", help="root of the source tree whose src/agnnseg is run")
    args = parser.parse_args(argv)
    _import_program(args.src_dir)
    with tempfile.TemporaryDirectory(prefix="identity-") as tmp:
        work = Path(tmp)
        digests = {**cli_digests(work), **library_digests(work)}
    print(json.dumps(digests))


if __name__ == "__main__":
    main()
