"""Exit codes, file outputs, and determinism of the command-line interface."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from agnnseg import cli
from agnnseg import graph as graph_mod
from agnnseg.cli import main, parse_config, ConfigError
from agnnseg.graph import MAX_K_ITERS, GraphConfig
from agnnseg.model import init_model, load_model, save_model
from agnnseg.pipeline import TrainConfig, TrainResult
from agnnseg.synthdata import generate_dataset
from oracles import cut_manifest, read_pnm_file_loops, tree_hash


def write_config(path, **kv):
    lines = [f"{k}={v}" for k, v in kv.items()]
    Path(path).write_text("\n".join(lines) + "\n")
    return str(path)


SMALL = dict(canvas=32, channels=4, frames_per_video=4, iters=2, seed=1)


@pytest.fixture(scope="module")
def tiny_checkpoint(tmp_path_factory):
    out = tmp_path_factory.mktemp("ckpt")
    params = init_model(channels=4, downsample=4, seed=0, graph=GraphConfig(k_iters=2))
    path = out / "checkpoint.agnn"
    save_model(path, params)
    return path


@pytest.fixture(scope="module")
def nan_checkpoint(tmp_path_factory):
    from agnnseg.checkpoint import write_checkpoint
    path = tmp_path_factory.mktemp("nan_ckpt") / "nan.agnn"
    named = [(n, t.data) for n, t in init_model(channels=4, downsample=4, seed=0).named_tensors()]
    assert named[0][0] == "encoder.conv1.w"
    named[0] = (named[0][0], np.full(named[0][1].shape, np.nan))
    write_checkpoint(path, named, meta={"channels": 4, "downsample": 4, "k_iters": 2, "gated": 1})
    return path


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("clidata")
    cut_manifest(generate_dataset(out, seed=2, num_frames=5, canvas=32), train=2, test=1)
    return out


class TestConfig:
    def test_defaults_without_file(self):
        cfg = parse_config(None)
        assert cfg["n_prime_train"] == 3 and cfg["k_iters"] == 3

    def test_defaults_are_the_dataclass_defaults(self):
        cfg = parse_config(None)
        assert set(cfg) == set(cli.CONFIG_FIELDS) | {"out_dir"}
        for key, (cls, name) in cli.CONFIG_FIELDS.items():
            assert cfg[key] == getattr(cls(), name), key

    def test_every_train_setting_is_a_config_key(self):
        # a TrainConfig field that no key sets is a setting no program caller changes
        owned = {name for cls, name in cli.CONFIG_FIELDS.values() if cls is TrainConfig}
        assert owned == {f.name for f in dataclasses.fields(TrainConfig)}

    def test_test_time_n_prime_is_not_a_config_key(self, tmp_path, capsys):
        # infer and eval take --n-prime; a config value would be silently unused
        path = write_config(tmp_path / "c.cfg", n_prime_test=5)
        assert main(["gen-data", "--config", path, "--out", str(tmp_path / "d")]) == 1
        assert "n_prime_test" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path / "c.cfg", bogus=3)
        with pytest.raises(ConfigError, match="bogus"):
            parse_config(path)

    def test_comments_and_blanks_ok(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("# comment\n\nseed=9\n")
        assert parse_config(p)["seed"] == 9

    def test_indivisible_canvas_rejected(self, tmp_path, capsys):
        path = write_config(tmp_path / "c.cfg", canvas=30, downsample=4)
        code = main(["gen-data", "--config", path, "--out", str(tmp_path / "d")])
        assert code == 1
        assert capsys.readouterr().err == "config error: canvas 30 not divisible by downsample 4\n"
        assert not (tmp_path / "d").exists()

    def test_train_ignores_the_canvas_key(self, tmp_path, tiny_dataset, monkeypatch):
        # train takes its canvas from the dataset; only gen-data reads the key
        calls = []

        def fake_train(manifest, config, params):
            calls.append(manifest.root)
            return TrainResult(params=params, losses=[])

        monkeypatch.setattr(cli, "train", fake_train)
        path = write_config(tmp_path / "c.cfg", canvas=30, channels=4)
        code = main(["train", "--config", path, "--data", str(tiny_dataset),
                     "--out", str(tmp_path / "run")])
        assert code == 0
        assert calls == [tiny_dataset]

    def test_unknown_key_exit_code_and_stderr(self, tmp_path, capsys):
        path = write_config(tmp_path / "c.cfg", nonsense=1)
        code = main(["gen-data", "--config", path, "--out", str(tmp_path / "d")])
        assert code == 1
        assert "nonsense" in capsys.readouterr().err

    @pytest.mark.parametrize("command, key, value", [
        ("train", "iters", 0),
        ("train", "momentum", 1.5),
        ("train", "downsample", 2),
        ("train", "channels", 0),
        ("gen-data", "frames_per_video", 0),
        ("gen-data", "seed", -1),
        ("train", "seed", -1),
        ("train", "lr", float("nan")),
        ("train", "lr", float("inf")),
    ])
    def test_out_of_range_value_exit_1(self, tmp_path, tiny_dataset, capsys, command, key, value):
        path = write_config(tmp_path / "c.cfg", **{key: value})
        out = tmp_path / "out"
        argv = [command, "--config", path, "--out", str(out)]
        if command == "train":
            argv += ["--data", str(tiny_dataset)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {path}: {key} ") and "Traceback" not in err
        assert not out.exists()

    def test_gen_data_ignores_train_only_keys(self, tmp_path):
        # of TrainConfig's keys gen-data reads seed alone, and checks no other
        path = write_config(tmp_path / "c.cfg", **SMALL, lr=float("nan"), momentum=2.0)
        assert main(["gen-data", "--config", path, "--out", str(tmp_path / "d")]) == 0

    @pytest.mark.parametrize("command, key", [
        ("train", "iters"),
        ("train", "n_prime_train"),
        ("train", "k_iters"),
        ("gen-data", "frames_per_video"),
    ])
    def test_range_error_names_the_config_key(self, tmp_path, tiny_dataset, capsys, command, key):
        path = write_config(tmp_path / "c.cfg", **{key: 0})
        argv = [command, "--config", path, "--out", str(tmp_path / "out")]
        if command == "train":
            argv += ["--data", str(tiny_dataset)]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"config error: {path}: {key} must be >= 1, got 0\n"

    def test_k_iters_above_the_cap_exit_1(self, tmp_path, tiny_dataset, capsys):
        path = write_config(tmp_path / "c.cfg", k_iters=MAX_K_ITERS + 1)
        out = tmp_path / "out"
        assert main(["train", "--config", path, "--data", str(tiny_dataset),
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"config error: {path}: k_iters must be <= 16, got 17\n"
        assert not out.exists()


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
        trained = load_model(out / "checkpoint.agnn")
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

    def test_canvas_not_divisible_by_downsample_exit_4(self, tmp_path, capsys):
        data = tmp_path / "data"
        generate_dataset(data, seed=0, num_frames=2, canvas=36)
        cfg = write_config(tmp_path / "c.cfg", channels=4, downsample=8)
        code = main(["train", "--config", cfg, "--data", str(data), "--out", str(tmp_path / "run")])
        assert code == 4
        assert capsys.readouterr().err == (
            f"shape mismatch: {data / 'train' / 'video_0000'}: canvas 36 not divisible by "
            "downsample factor 8\n")
        assert not (tmp_path / "run").exists()

    def test_indivisible_train_video_named_exit_4(self, tmp_path, capsys):
        from agnnseg import pnm
        data = tmp_path / "data"
        generate_dataset(data, seed=0, num_frames=2, canvas=32)
        odd = data / "train" / "video_0001"
        pnm.write_ppm(odd / "frames.ppm", np.zeros((2, 18, 18, 3), dtype=np.uint8))
        pnm.write_pgm(odd / "masks.pgm", np.zeros((2, 18, 18), dtype=bool))
        # clips of 2 frames, so the 2-frame videos fail only on their size
        cfg = write_config(tmp_path / "c.cfg", channels=4, n_prime_train=2)
        code = main(["train", "--config", cfg, "--data", str(data), "--out", str(tmp_path / "run")])
        assert code == 4
        assert capsys.readouterr().err == (
            f"shape mismatch: {odd}: canvas 18 not divisible by downsample factor 4\n")
        assert not (tmp_path / "run").exists()

    def test_out_that_is_a_file_exit_2_before_training(self, tmp_path, tiny_dataset, capsys,
                                                       monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "train", lambda *args, **kwargs: calls.append(args))
        out = tmp_path / "taken"
        out.write_text("x")
        cfg = write_config(tmp_path / "c.cfg", channels=4)
        code = main(["train", "--config", cfg, "--data", str(tiny_dataset), "--out", str(out)])
        assert code == 2
        assert str(out) in capsys.readouterr().err
        assert calls == []
        assert out.read_text() == "x"

    def test_too_few_train_videos_exit_2(self, tmp_path, capsys):
        data = tmp_path / "data"
        cut_manifest(generate_dataset(data, seed=0, num_frames=2, canvas=32), train=1)
        code = main(["train", "--data", str(data), "--out", str(tmp_path / "run")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"i/o error: {data / 'manifest.txt'}: train split has 1 videos, need >= 2\n")
        assert not (tmp_path / "run").exists()

    def test_n_prime_above_a_video_length_exit_2(self, tmp_path, tiny_dataset, capsys):
        # tiny_dataset's videos have 5 frames; a 6-frame clip cannot be sampled
        cfg = write_config(tmp_path / "c.cfg", channels=4, n_prime_train=6)
        out = tmp_path / "run"
        code = main(["train", "--config", cfg, "--data", str(tiny_dataset), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"i/o error: {tiny_dataset / 'train' / 'video_0000'}: 5 frames, fewer than the 6 "
            "a training clip samples\n")
        assert not out.exists()

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
        m = read_pnm_file_loops(masks[0].read_bytes(), b"P5", 1)
        assert m.shape == (1, 32, 32)
        assert set(np.unique(m)) <= {0, 255}

    def test_coseg_single_image(self, tmp_path, tiny_dataset, tiny_checkpoint):
        out = tmp_path / "coseg_masks"
        group = tiny_dataset / "coseg" / "video_0000"
        assert main(["infer", "--checkpoint", str(tiny_checkpoint), "--video-dir", str(group),
                     "--out", str(out), "--task", "coseg"]) == 0
        assert len(list(out.glob("pred_*.pgm"))) == 1

    @pytest.mark.parametrize("task, fn, n_prime", [("video", "infer_video", 5),
                                                   ("coseg", "iocs_infer", 3)])
    def test_default_n_prime_per_task(self, tmp_path, tiny_dataset, tiny_checkpoint,
                                      monkeypatch, task, fn, n_prime):
        class Stop(Exception):
            pass

        seen = []

        def capture(*args, n_prime):
            seen.append(n_prime)
            raise Stop

        monkeypatch.setattr(cli, fn, capture)
        video = tiny_dataset / "test" / "video_0000"
        with pytest.raises(Stop):
            main(["infer", "--checkpoint", str(tiny_checkpoint), "--video-dir", str(video),
                  "--out", str(tmp_path / "o"), "--task", task])
        assert seen == [n_prime]

    @pytest.mark.parametrize("task, n_prime, minimum", [("video", 0, 1), ("coseg", 1, 2)])
    def test_bad_n_prime_exit_1(self, tmp_path, tiny_dataset, tiny_checkpoint, capsys,
                                task, n_prime, minimum):
        video = tiny_dataset / "test" / "video_0000"
        code = main(["infer", "--checkpoint", str(tiny_checkpoint), "--video-dir", str(video),
                     "--out", str(tmp_path / "o"), "--task", task, "--n-prime", str(n_prime)])
        assert code == 1
        assert f"--n-prime must be >= {minimum}, got {n_prime}" in capsys.readouterr().err

    def test_missing_video_dir_exit_2(self, tmp_path, tiny_checkpoint):
        code = main(["infer", "--checkpoint", str(tiny_checkpoint),
                     "--video-dir", str(tmp_path / "void"), "--out", str(tmp_path / "o")])
        assert code == 2

    def test_indivisible_frames_exit_4(self, tmp_path, tiny_checkpoint):
        from agnnseg import pnm
        vdir = tmp_path / "vid"
        vdir.mkdir()
        pnm.write_ppm(vdir / "frames.ppm",
                      np.zeros((1, 30, 30, 3), dtype=np.uint8))
        code = main(["infer", "--checkpoint", str(tiny_checkpoint), "--video-dir", str(vdir),
                     "--out", str(tmp_path / "o")])
        assert code == 4

    def test_mixed_frame_sizes_exit_2(self, tmp_path, tiny_checkpoint, capsys):
        from agnnseg import pnm
        vdir = tmp_path / "vid"
        vdir.mkdir()
        frames = vdir / "frames.ppm"
        pnm.write_ppm(frames, np.zeros((1, 32, 32, 3), dtype=np.uint8))
        first = frames.read_bytes()
        pnm.write_ppm(frames, np.zeros((1, 16, 16, 3), dtype=np.uint8))
        frames.write_bytes(first + frames.read_bytes())
        code = main(["infer", "--checkpoint", str(tiny_checkpoint), "--video-dir", str(vdir),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert str(frames) in err and "image 1 size 16x16 differs from 32x32" in err
        assert err.rstrip().endswith(f"at byte {len(first)}")

    def test_nan_meta_exit_4(self, tmp_path, tiny_dataset, capsys):
        params = init_model(channels=4, downsample=4, seed=0)
        from agnnseg.checkpoint import write_checkpoint
        bad = tmp_path / "nan.agnn"
        write_checkpoint(bad, [(n, t.data) for n, t in params.named_tensors()],
                         meta={"channels": float("nan"), "downsample": 4, "k_iters": 2,
                               "gated": 1})
        video = tiny_dataset / "test" / "video_0000"
        code = main(["infer", "--checkpoint", str(bad), "--video-dir", str(video),
                     "--out", str(tmp_path / "o")])
        assert code == 4
        assert "meta.channels is nan" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["infer", "eval"])
    def test_meta_channels_the_tensors_contradict_exit_4(self, tmp_path, tiny_dataset, capsys,
                                                          command):
        # a 4-channel model claiming 100000 channels must not build a model that wide
        params = init_model(channels=4, downsample=4, seed=0)
        from agnnseg.checkpoint import write_checkpoint
        wide = tmp_path / "wide.agnn"
        write_checkpoint(wide, [(n, t.data) for n, t in params.named_tensors()],
                         meta={"channels": 100000, "downsample": 4, "k_iters": 2, "gated": 1})
        argv = {"infer": ["infer", "--video-dir", str(tiny_dataset / "test" / "video_0000"),
                          "--out", str(tmp_path / "o")],
                "eval": ["eval", "--data", str(tiny_dataset)]}[command]
        assert main(argv + ["--checkpoint", str(wide)]) == 4
        err = capsys.readouterr().err
        assert str(wide) in err and "meta.channels is 100000" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["infer", "eval"])
    def test_meta_k_iters_above_the_cap_exit_4(self, tmp_path, tiny_dataset, capsys,
                                                monkeypatch, command):
        # a billion rounds would run until killed; no round may run at all
        def no_round(*args):
            raise AssertionError("a message-passing round ran")

        monkeypatch.setattr(graph_mod, "propagate_round", no_round)
        params = init_model(channels=4, downsample=4, seed=0)
        from agnnseg.checkpoint import write_checkpoint
        deep = tmp_path / "deep.agnn"
        write_checkpoint(deep, [(n, t.data) for n, t in params.named_tensors()],
                         meta={"channels": 4, "downsample": 4, "k_iters": 1e9, "gated": 1})
        argv = {"infer": ["infer", "--video-dir", str(tiny_dataset / "test" / "video_0000"),
                          "--out", str(tmp_path / "o")],
                "eval": ["eval", "--data", str(tiny_dataset)]}[command]
        assert main(argv + ["--checkpoint", str(deep)]) == 4
        err = capsys.readouterr().err
        assert f"{deep}: meta.k_iters must be <= 16, got 1000000000" in err
        assert not (tmp_path / "o").exists()

    def test_nan_tensor_exit_4(self, tmp_path, tiny_dataset, nan_checkpoint, capsys):
        video = tiny_dataset / "test" / "video_0000"
        code = main(["infer", "--checkpoint", str(nan_checkpoint), "--video-dir", str(video),
                     "--out", str(tmp_path / "o")])
        assert code == 4
        err = capsys.readouterr().err
        assert f"{nan_checkpoint}: tensor encoder.conv1.w contains NaN or Inf" in err
        assert not (tmp_path / "o").exists()

    def test_corrupt_checkpoint_exit_4(self, tmp_path, tiny_dataset):
        params = init_model(channels=4, downsample=4, seed=0)
        from agnnseg.checkpoint import write_checkpoint
        broken = tmp_path / "broken.agnn"
        write_checkpoint(broken, [(n, t.data) for n, t in params.named_tensors()][:3],
                         meta={"channels": 4, "downsample": 4, "k_iters": 2, "gated": 1})
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

    def test_empty_split_names_the_manifest(self, tiny_dataset, tiny_checkpoint, capsys):
        code = main(["eval", "--checkpoint", str(tiny_checkpoint), "--data", str(tiny_dataset),
                     "--split", "nope"])
        assert code == 2
        assert capsys.readouterr().err == (
            f"i/o error: {tiny_dataset / 'manifest.txt'}: split 'nope' is empty\n")

    def test_canvas_not_divisible_by_downsample_exit_4(self, tmp_path, capsys):
        data = tmp_path / "data"
        generate_dataset(data, seed=0, num_frames=2, canvas=36)
        checkpoint = tmp_path / "d8.agnn"
        save_model(checkpoint, init_model(channels=4, downsample=8, seed=0))
        code = main(["eval", "--checkpoint", str(checkpoint), "--data", str(data)])
        assert code == 4
        captured = capsys.readouterr()
        assert captured.err == (
            f"shape mismatch: {data / 'test' / 'video_0000'}: canvas 36 not divisible by "
            "downsample factor 8\n")
        assert captured.out == ""

    def test_nan_tensor_exit_4(self, tiny_dataset, nan_checkpoint, capsys):
        code = main(["eval", "--checkpoint", str(nan_checkpoint), "--data", str(tiny_dataset)])
        assert code == 4
        captured = capsys.readouterr()
        assert f"{nan_checkpoint}: tensor encoder.conv1.w contains NaN or Inf" in captured.err
        assert captured.out == ""

    def test_zero_n_prime_exit_1(self, tiny_dataset, tiny_checkpoint, capsys):
        code = main(["eval", "--checkpoint", str(tiny_checkpoint), "--data", str(tiny_dataset),
                     "--n-prime", "0"])
        assert code == 1
        assert "--n-prime must be >= 1, got 0" in capsys.readouterr().err


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

    def test_checkpoint_meta_record_of_rank_one(self, tmp_path, tiny_dataset, capsys):
        from agnnseg.checkpoint import write_checkpoint
        bad = tmp_path / "rank1.agnn"
        write_checkpoint(bad, [("meta.k_iters", np.ones(2))], {})
        code = self.infer(bad, tiny_dataset / "test" / "video_0000", tmp_path)
        assert "has rank 1" in self.assert_format_error(capsys, code, bad)

    def test_truncated_frame(self, tmp_path, tiny_dataset, tiny_checkpoint, capsys):
        vdir = tmp_path / "vid"
        vdir.mkdir()
        frame = vdir / "frames.ppm"
        frame.write_bytes((tiny_dataset / "test" / "video_0000" / "frames.ppm").read_bytes()[:-5])
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

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_manifest_path_outside_the_dataset(self, tmp_path, tiny_checkpoint, capsys, command):
        data = tmp_path / "data"
        data.mkdir()
        manifest = data / "manifest.txt"
        manifest.write_text("test\t../x\t1\tellipse\n")
        argv = {"train": ["train", "--data", str(data), "--out", str(tmp_path / "run")],
                "eval": ["eval", "--checkpoint", str(tiny_checkpoint), "--data", str(data)]}
        err = self.assert_format_error(capsys, main(argv[command]), manifest)
        assert "line 1: split and video id must each be one plain path component" in err

    def test_manifest_video_without_frames(self, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        manifest = data / "manifest.txt"
        manifest.write_text("train\tvideo_0000\t0\tellipse\n")
        code = main(["train", "--data", str(data), "--out", str(tmp_path / "run")])
        err = self.assert_format_error(capsys, code, manifest)
        assert "line 1: expected 4 tab-separated fields, the third an integer of at least 1" in err
