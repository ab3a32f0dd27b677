"""Exit codes, file outputs, and determinism of the command-line interface."""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from agnnseg.cli import main, parse_config, ConfigError
from agnnseg.model import init_model, load_model, save_model
from agnnseg.synthdata import generate_dataset


def tree_hash(root):
    digest = hashlib.sha256()
    for path in sorted(Path(root).rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def write_config(path, **kv):
    lines = [f"{k}={v}" for k, v in kv.items()]
    Path(path).write_text("\n".join(lines) + "\n")
    return str(path)


SMALL = dict(canvas=32, channels=4, frames_per_video=4, iters=2, seed=1)


@pytest.fixture(scope="module")
def tiny_checkpoint(tmp_path_factory):
    out = tmp_path_factory.mktemp("ckpt")
    params = init_model(channels=4, downsample=4, seed=0)
    path = out / "checkpoint.agnn"
    save_model(path, params, k_iters=2)
    return path


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("clidata")
    generate_dataset(out, seed=2, train_videos=2, test_videos=1, num_frames=5,
                     canvas=32, coseg_images_per_class=1)
    return out


class TestConfig:
    def test_defaults_without_file(self):
        cfg = parse_config(None)
        assert cfg["n_prime_test"] == 5 and cfg["k_iters"] == 3

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path / "c.cfg", bogus=3)
        with pytest.raises(ConfigError, match="bogus"):
            parse_config(path)

    def test_comments_and_blanks_ok(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("# comment\n\nseed=9\n")
        assert parse_config(p)["seed"] == 9

    def test_indivisible_canvas_rejected(self, tmp_path):
        path = write_config(tmp_path / "c.cfg", canvas=30, downsample=4)
        with pytest.raises(ConfigError, match="divisible"):
            parse_config(path)

    def test_unknown_key_exit_code_and_stderr(self, tmp_path, capsys):
        path = write_config(tmp_path / "c.cfg", nonsense=1)
        code = main(["gen-data", "--config", path, "--out", str(tmp_path / "d")])
        assert code == 1
        assert "nonsense" in capsys.readouterr().err


class TestGenData:
    def test_gen_writes_manifest(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", **SMALL)
        out = tmp_path / "data"
        assert main(["gen-data", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "manifest.txt").is_file()

    def test_same_seed_identical_tree(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", **SMALL)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["gen-data", "--config", cfg, "--out", str(a)]) == 0
        assert main(["gen-data", "--config", cfg, "--out", str(b)]) == 0
        assert tree_hash(a) == tree_hash(b)


class TestTrain:
    def test_zero_lr_checkpoint_equals_init(self, tmp_path, tiny_dataset):
        cfg = write_config(tmp_path / "c.cfg", channels=4, iters=1, lr=0.0, seed=0,
                           n_prime_train=2, k_iters=2)
        out = tmp_path / "run"
        assert main(["train", "--config", cfg, "--data", str(tiny_dataset), "--out", str(out)]) == 0
        trained, meta = load_model(out / "checkpoint.agnn")
        init = init_model(channels=4, downsample=4, seed=0)
        for (_, a), (_, b) in zip(init.named_tensors(), trained.named_tensors()):
            assert a.data.tobytes() == b.data.tobytes()

    def test_loss_log_row_count(self, tmp_path, tiny_dataset):
        cfg = write_config(tmp_path / "c.cfg", channels=4, iters=3, seed=0,
                           n_prime_train=2, k_iters=1)
        out = tmp_path / "run"
        assert main(["train", "--config", cfg, "--data", str(tiny_dataset), "--out", str(out)]) == 0
        rows = (out / "loss.csv").read_text().strip().splitlines()
        assert len(rows) == 3
        assert rows[0].startswith("0,")

    def test_same_seed_identical_checkpoint(self, tmp_path, tiny_dataset):
        cfg = write_config(tmp_path / "c.cfg", channels=4, iters=2, seed=5,
                           n_prime_train=2, k_iters=1)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["train", "--config", cfg, "--data", str(tiny_dataset), "--out", str(a)]) == 0
        assert main(["train", "--config", cfg, "--data", str(tiny_dataset), "--out", str(b)]) == 0
        assert (a / "checkpoint.agnn").read_bytes() == (b / "checkpoint.agnn").read_bytes()

    def test_missing_dataset_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.cfg", **SMALL)
        code = main(["train", "--config", cfg, "--data", str(tmp_path / "nope"),
                     "--out", str(tmp_path / "run")])
        assert code == 2

    def test_divergence_exit_3(self, tmp_path, tiny_dataset, capsys):
        # an absurd learning rate overflows the forward pass within a few steps
        # (saturating ops keep milder blowups finite, so push past 1e154 where
        # squaring a weight overflows float64)
        cfg = write_config(tmp_path / "c.cfg", channels=4, iters=30, lr=1e200, seed=0,
                           n_prime_train=2, k_iters=1)
        code = main(["train", "--config", cfg, "--data", str(tiny_dataset),
                     "--out", str(tmp_path / "run")])
        assert code == 3
        assert "iteration" in capsys.readouterr().err


class TestInfer:
    def test_video_task_one_mask_per_frame(self, tmp_path, tiny_dataset, tiny_checkpoint):
        out = tmp_path / "masks"
        video = tiny_dataset / "test" / "video_0000"
        assert main(["infer", "--checkpoint", str(tiny_checkpoint), "--video-dir", str(video),
                     "--out", str(out), "--n-prime", "5"]) == 0
        masks = sorted(out.glob("pred_*.pgm"))
        assert len(masks) == 5
        from agnnseg import pnm
        m = pnm.read_pgm(masks[0])
        assert m.shape == (32, 32)
        assert set(np.unique(m)) <= {0, 255}

    def test_coseg_single_image(self, tmp_path, tiny_dataset, tiny_checkpoint):
        out = tmp_path / "coseg_masks"
        group = tiny_dataset / "coseg" / "video_0000"
        assert main(["infer", "--checkpoint", str(tiny_checkpoint), "--video-dir", str(group),
                     "--out", str(out), "--task", "coseg"]) == 0
        assert len(list(out.glob("pred_*.pgm"))) == 1

    def test_missing_video_dir_exit_2(self, tmp_path, tiny_checkpoint):
        code = main(["infer", "--checkpoint", str(tiny_checkpoint),
                     "--video-dir", str(tmp_path / "void"), "--out", str(tmp_path / "o")])
        assert code == 2

    def test_indivisible_frames_exit_4(self, tmp_path, tiny_checkpoint):
        from agnnseg import pnm
        vdir = tmp_path / "vid"
        vdir.mkdir()
        pnm.write_ppm(vdir / "frame_0000.ppm",
                      np.zeros((30, 30, 3), dtype=np.uint8))
        code = main(["infer", "--checkpoint", str(tiny_checkpoint), "--video-dir", str(vdir),
                     "--out", str(tmp_path / "o")])
        assert code == 4

    def test_corrupt_checkpoint_exit_4(self, tmp_path, tiny_dataset):
        params = init_model(channels=4, downsample=4, seed=0)
        from agnnseg.checkpoint import write_checkpoint
        broken = tmp_path / "broken.agnn"
        write_checkpoint(broken, [(n, t.data) for n, t in params.named_tensors()][:3],
                         meta={"channels": 4, "downsample": 4, "k_iters": 2})
        video = tiny_dataset / "test" / "video_0000"
        code = main(["infer", "--checkpoint", str(broken), "--video-dir", str(video),
                     "--out", str(tmp_path / "o")])
        assert code == 4


class TestEval:
    def test_csv_rows_and_exit(self, tmp_path, tiny_dataset, tiny_checkpoint, capsys):
        code = main(["eval", "--checkpoint", str(tiny_checkpoint), "--data", str(tiny_dataset),
                     "--split", "test", "--n-prime", "3"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1 + 1  # one test video + summary
        assert lines[-1].startswith("mean,")
        for line in lines:
            parts = line.split(",")
            assert len(parts) == 3
            assert 0.0 <= float(parts[1]) <= 1.0

    def test_empty_split_exit_2(self, tmp_path, tiny_dataset, tiny_checkpoint, capsys):
        code = main(["eval", "--checkpoint", str(tiny_checkpoint), "--data", str(tiny_dataset),
                     "--split", "absent"])
        assert code == 2


class TestMalformedFiles:
    """Malformed input files end with exit code 2 and a message naming the file."""

    def assert_format_error(self, capsys, code, path):
        err = capsys.readouterr().err
        assert code == 2
        assert str(path) in err and "at byte" in err
        return err

    def infer(self, checkpoint, video_dir, tmp_path):
        return main(["infer", "--checkpoint", str(checkpoint), "--video-dir", str(video_dir),
                     "--out", str(tmp_path / "o")])

    def test_checkpoint_bad_magic(self, tmp_path, tiny_dataset, capsys):
        bad = tmp_path / "bad.agnn"
        bad.write_bytes(b"NOPE" + b"\x00" * 8)
        code = self.infer(bad, tiny_dataset / "test" / "video_0000", tmp_path)
        self.assert_format_error(capsys, code, bad)

    def test_checkpoint_without_version_word(self, tmp_path, tiny_dataset, capsys):
        bad = tmp_path / "short.agnn"
        bad.write_bytes(b"AGNN\x01\x00")
        code = self.infer(bad, tiny_dataset / "test" / "video_0000", tmp_path)
        self.assert_format_error(capsys, code, bad)

    def test_truncated_frame(self, tmp_path, tiny_dataset, tiny_checkpoint, capsys):
        vdir = tmp_path / "vid"
        vdir.mkdir()
        frame = vdir / "frame_0000.ppm"
        frame.write_bytes((tiny_dataset / "test" / "video_0000" / "frame_0000.ppm").read_bytes()[:-5])
        code = self.infer(tiny_checkpoint, vdir, tmp_path)
        self.assert_format_error(capsys, code, frame)

    def test_manifest_line_with_wrong_field_count(self, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        manifest = data / "manifest.txt"
        first = "train\tvideo_0000\t4\tellipse\n"
        manifest.write_text(first + "test\tvideo_0000\t4\n")
        code = main(["train", "--data", str(data), "--out", str(tmp_path / "run")])
        err = self.assert_format_error(capsys, code, manifest)
        assert "line 2: expected 4 tab-separated fields" in err
        assert err.rstrip().endswith(f"at byte {len(first)}")
