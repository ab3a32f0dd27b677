"""Training behaviour, inference scheduling, co-segmentation, evaluation."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import agnnseg.pipeline as pl
from agnnseg import cli, head, model
from agnnseg.engine import Tape, Tensor
from agnnseg.graph import GraphConfig, run_graph
from agnnseg.head import readout
from agnnseg.model import encode_frames, init_model, load_model, save_model
from agnnseg.pipeline import (
    SGD,
    TrainConfig,
    dynamic_batch_loss,
    evaluate,
    infer_video,
    iocs_infer,
    strided_subsets,
    train,
)
from agnnseg.synthdata import (
    DatasetManifest,
    downsample_mask,
    generate_dataset,
    load_video,
    render_static_scene,
)
from oracles import cut_manifest


CHANNELS = 6
CANVAS = 32
K2 = GraphConfig(k_iters=2)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("pipe_data")
    return cut_manifest(generate_dataset(out, seed=3, num_frames=6, canvas=CANVAS),
                        train=4, test=2)


def quick_config(**overrides):
    base = dict(n_prime=2, lr=1e-3, momentum=0.9, iterations=4, seed=0)
    base.update(overrides)
    return TrainConfig(**base)


def small_model(config, downsample=4):
    return init_model(channels=CHANNELS, downsample=downsample, seed=config.seed, graph=K2)


class TestSchedule:
    def test_single_subset(self):
        assert strided_subsets(5, 5) == [[0, 1, 2, 3, 4]]

    def test_strided_subsets(self):
        assert strided_subsets(10, 5) == [[0, 2, 4, 6, 8], [1, 3, 5, 7, 9]]

    def test_ragged_subsets(self):
        assert strided_subsets(7, 5) == [[0, 2, 4, 6], [1, 3, 5]]

    @given(n=st.integers(1, 50), n_prime=st.integers(1, 7))
    @settings(max_examples=200, deadline=None)
    def test_partition_property(self, n, n_prime):
        subsets = strided_subsets(n, n_prime)
        seen = [t for subset in subsets for t in subset]
        assert sorted(seen) == list(range(n))
        assert max(len(subset) for subset in subsets) <= max(n_prime, 1)

    @pytest.mark.parametrize("n, n_prime, match", [(0, 5, "at least one frame"),
                                                   (5, 0, "n_prime must be >= 1")])
    def test_bad_sizes_rejected(self, n, n_prime, match):
        with pytest.raises(ValueError, match=match):
            strided_subsets(n, n_prime)


class TestTraining:
    def test_zero_lr_keeps_initialization(self, dataset):
        cfg = quick_config(lr=0.0, iterations=1)
        init = init_model(channels=CHANNELS, downsample=4, seed=cfg.seed)
        result = train(dataset, cfg, params=small_model(cfg))
        for (_, a), (_, b) in zip(init.named_tensors(), result.params.named_tensors()):
            assert a.data.tobytes() == b.data.tobytes()

    def test_same_seed_bit_identical(self, dataset):
        cfg = quick_config(iterations=4)
        r1 = train(dataset, cfg, params=small_model(cfg))
        r2 = train(dataset, cfg, params=small_model(cfg))
        assert r1.losses == r2.losses
        for (_, a), (_, b) in zip(r1.params.named_tensors(), r2.params.named_tensors()):
            assert a.data.tobytes() == b.data.tobytes()

    def test_loss_count_matches_iterations(self, dataset):
        cfg = quick_config(iterations=3)
        result = train(dataset, cfg, params=small_model(cfg))
        assert len(result.losses) == 3

    def test_descent_direction_on_fixed_batch(self, dataset):
        # one small step along the gradient must reduce the loss on the
        # same batch; checked over 5 model seeds
        entries = dataset.split("train")[:2]
        batch = []
        for e in entries:
            frames, masks = load_video(dataset, e)
            batch.append((list(frames[:2]), [downsample_mask(m, 4) for m in masks[:2]]))
        cfg = quick_config(lr=1e-4, momentum=0.0)
        from agnnseg.engine import Tape, backward

        for seed in range(5):
            params = init_model(channels=CHANNELS, downsample=4, seed=seed, graph=K2)
            with Tape() as tape:
                loss0 = dynamic_batch_loss(batch, params)
            grads = backward(tape, np.ones(()))
            SGD(params.named_tensors(), cfg.lr, 0.0).step(grads)
            loss1 = float(dynamic_batch_loss(batch, params).data)
            assert loss1 < float(loss0.data), f"seed {seed}: {loss1} !< {float(loss0.data)}"

    def test_clip_frames_are_the_sampled_uint8_frames(self, dataset, monkeypatch):
        # a reshape-free static loss lets iteration 0 finish; iteration 1
        # stops at the dynamic loss with the batch it was given
        import agnnseg.pipeline as pl
        from agnnseg import engine

        class Stop(Exception):
            pass

        def stop(batch, params):
            stop.batch = batch
            raise Stop

        sampled = []
        real_sample = pl.sample_training_clip

        def sample(frames, n_prime, rng):
            sampled.append(real_sample(frames, n_prime, rng))
            return sampled[-1]

        monkeypatch.setattr(pl, "static_batch_loss",
                            lambda scenes, params: engine.scalar_scale(params.attention.alpha, 1.0))
        monkeypatch.setattr(pl, "dynamic_batch_loss", stop)
        monkeypatch.setattr(pl, "sample_training_clip", sample)
        with pytest.raises(Stop):
            train(dataset, quick_config(), params=small_model(quick_config()))

        videos = [load_video(dataset, e) for e in dataset.split("train")]
        assert len(stop.batch) == len(sampled) == 2
        picked = []
        for (clip, targets), indices in zip(stop.batch, sampled):
            # rows of one decoded stack, not copies or float conversions
            stack = clip[0].base
            assert stack.dtype == np.uint8 and stack.shape[1:] == (CANVAS, CANVAS, 3)
            assert all(frame.base is stack for frame in clip)
            clip_bytes = [frame.tobytes() for frame in clip]
            matches = [v for v, (frames, _) in enumerate(videos)
                       if [frames[t].tobytes() for t in indices] == clip_bytes]
            assert len(matches) == 1
            picked.append(matches[0])
            want = downsample_mask(videos[matches[0]][1][indices], 4)
            assert np.array_equal(np.stack(targets), want)
        assert picked[0] != picked[1]

    def test_nonfinite_update_names_the_parameter(self, dataset, monkeypatch):
        # a reshape-free static loss whose alpha gradient is 1e300: at
        # lr=1e10 the first update overflows, and the assignment names alpha
        import agnnseg.pipeline as pl
        from agnnseg import engine
        from agnnseg.pipeline import DivergenceError

        monkeypatch.setattr(pl, "static_batch_loss",
                            lambda scenes, params: engine.scalar_scale(params.attention.alpha, 1e300))
        with pytest.raises(DivergenceError) as info:
            train(dataset, quick_config(lr=1e10), params=small_model(quick_config()))
        assert info.value.iteration == 0
        assert str(info.value) == "iteration 0: tensor attn.alpha contains NaN or Inf"

    def test_targets_vote_at_the_model_downsample(self, dataset, monkeypatch):
        # a reshape-free static loss lets iteration 0 finish; iteration 1
        # stops at the dynamic loss with the batch it was given
        import agnnseg.pipeline as pl
        from agnnseg import engine

        class Stop(Exception):
            pass

        def static(scenes, params):
            static.scenes = scenes
            return engine.scalar_scale(params.attention.alpha, 1.0)

        def stop(batch, params):
            stop.batch = batch
            raise Stop

        monkeypatch.setattr(pl, "static_batch_loss", static)
        monkeypatch.setattr(pl, "dynamic_batch_loss", stop)
        with pytest.raises(Stop):
            train(dataset, quick_config(), params=small_model(quick_config(), downsample=8))
        grid = (CANVAS // 8, CANVAS // 8)
        assert {mask.shape for _, mask in static.scenes} == {grid}
        assert {target.shape for _, targets in stop.batch for target in targets} == {grid}

    def test_too_few_videos_rejected(self, dataset):
        one_video = DatasetManifest(dataset.root, dataset.split("train")[:1])
        with pytest.raises(ValueError, match="train split"):
            train(one_video, quick_config(), params=small_model(quick_config()))

    def test_short_video_reported_before_later_videos_are_read(self, dataset, monkeypatch):
        loaded = []

        def spy(manifest, entry):
            loaded.append(entry)
            return load_video(manifest, entry)

        monkeypatch.setattr(pl, "load_video", spy)
        config = quick_config(n_prime=7)  # more than the 6 frames of every video
        with pytest.raises(pl.DatasetError, match="6 frames, fewer than the 7"):
            train(dataset, config, params=small_model(config))
        assert loaded == dataset.split("train")[:1]


class TestInferVideo:
    def test_one_mask_per_frame_in_order(self, dataset):
        params = init_model(channels=CHANNELS, downsample=4, seed=0, graph=K2)
        entry = dataset.split("test")[0]
        frames, _ = load_video(dataset, entry)
        probs = infer_video(list(frames), params, n_prime=4)
        assert len(probs) == len(frames)
        for p in probs:
            assert p.shape == (CANVAS // 4, CANVAS // 4)
            assert p.min() >= 0.0 and p.max() <= 1.0

    def test_empty_video_rejected(self):
        params = init_model(channels=CHANNELS, downsample=4, seed=0)
        with pytest.raises(ValueError, match="empty"):
            infer_video([], params)

    def test_deterministic(self, dataset):
        params = init_model(channels=CHANNELS, downsample=4, seed=1, graph=K2)
        frames, _ = load_video(dataset, dataset.split("test")[0])
        a = infer_video(list(frames), params, n_prime=3)
        b = infer_video(list(frames), params, n_prime=3)
        for x, y in zip(a, b):
            assert x.tobytes() == y.tobytes()


def coseg_group(seeds):
    """uint8 scenes, like the frames the CLI and the benchmark pass."""
    return [np.round(render_static_scene(CANVAS, seed=s)[0] * 255.0).astype(np.uint8)
            for s in seeds]


@pytest.fixture
def coseg_stubs(monkeypatch):
    """Count encodes and record each graph's nodes; graph and readout pass
    the state through, so no reshape runs."""
    stubs = SimpleNamespace(encoded=[], graphs=[])
    real_encode = model.encode

    def counting_encode(frame, params):
        stubs.encoded.append(frame)
        return real_encode(frame, params)

    def graph(nodes, params):
        stubs.graphs.append(nodes)
        return nodes

    monkeypatch.setattr(pl, "_last_group", None)
    monkeypatch.setattr(model, "encode", counting_encode)
    monkeypatch.setattr(pl, "run_graph", graph)
    monkeypatch.setattr(head, "readout", lambda state, v, params: state)
    return stubs


class TestIocs:
    def test_single_image_self_loop_only(self, dataset):
        params = init_model(channels=CHANNELS, downsample=4, seed=0, graph=K2)
        frames, _ = load_video(dataset, dataset.split("coseg")[0])
        prob = iocs_infer([frames[0]], 0, params, n_prime=3)
        assert prob.shape == (CANVAS // 4, CANVAS // 4)

    def test_single_group_matches_joint_inference(self, dataset):
        # T = 1: chaining degenerates to one joint graph run
        params = init_model(channels=CHANNELS, downsample=4, seed=2, graph=K2)
        images = [load_video(dataset, e)[0][0] for e in dataset.split("coseg")[:3]]
        got = iocs_infer(images, 1, params, n_prime=3)
        embeddings = encode_frames([images[1], images[0], images[2]], params)
        finals = run_graph(embeddings, params.attention)
        want = readout(finals[0], embeddings[0], params.readout).data
        assert got.tobytes() == want.tobytes()

    def test_repeat_runs_identical(self, dataset):
        params = init_model(channels=CHANNELS, downsample=4, seed=3, graph=K2)
        images = [load_video(dataset, e)[0][0] for e in dataset.split("coseg")[:5]]
        a = iocs_infer(images, 2, params, n_prime=3)
        b = iocs_infer(images, 2, params, n_prime=3)  # reuses a's embeddings
        # equal values in new arrays: every image is encoded afresh
        c = iocs_infer(images, 2, init_model(channels=CHANNELS, downsample=4, seed=3, graph=K2),
                       n_prime=3)
        assert a.tobytes() == b.tobytes() == c.tobytes()

    def test_group_is_encoded_once_across_targets(self, coseg_stubs):
        params = init_model(channels=CHANNELS, downsample=4, seed=4)
        images = coseg_group(seeds=range(10))
        per_target = []
        for target in range(10):
            start = len(coseg_stubs.graphs)
            iocs_infer(images, target, params)
            per_target.append(coseg_stubs.graphs[start:])
        assert len(coseg_stubs.encoded) == 10
        want = [v.data.tobytes() for v in encode_frames(images, params)]
        for target, graphs in enumerate(per_target):
            others = [i for i in range(10) if i != target]
            assert [len(nodes) for nodes in graphs] == [3] * 4 + [2]
            got = [graphs[0][0]] + [v for nodes in graphs for v in nodes[1:]]
            assert [v.data.tobytes() for v in got] == [want[i] for i in [target] + others]

    def test_changed_group_or_encoder_encodes_again(self, coseg_stubs):
        params = init_model(channels=CHANNELS, downsample=4, seed=4)
        images = coseg_group(seeds=range(10))
        other = coseg_group(seeds=range(10, 20))
        touched = [image.copy() for image in images]
        touched[7][3, 5, 1] ^= 1

        def encodes(group):
            before = len(coseg_stubs.encoded)
            iocs_infer(group, 0, params)
            return len(coseg_stubs.encoded) - before

        assert encodes(images) == 10
        assert encodes([image.copy() for image in images]) == 0
        assert encodes(other) == 10
        assert encodes(images) == 10
        assert encodes(touched) == 10
        assert encodes(images) == 10
        params.encoder.conv2_b.data = params.encoder.conv2_b.data.copy()
        assert encodes(images) == 10
        assert encodes(images) == 0

    def test_tape_encodes_every_call(self, coseg_stubs):
        params = init_model(channels=CHANNELS, downsample=4, seed=4)
        images = coseg_group(seeds=range(10))
        iocs_infer(images, 0, params)
        with Tape() as tape:
            iocs_infer(images, 1, params)
            iocs_infer(images, 1, params)
        assert len(coseg_stubs.encoded) == 10 + 2 * 10
        # four convs an encode, all on the tape
        assert sum(r.kind == "conv2d" for r in tape.records) == 2 * 10 * 4

    def test_bad_index_rejected(self, dataset):
        params = init_model(channels=CHANNELS, downsample=4, seed=0)
        frames, _ = load_video(dataset, dataset.split("coseg")[0])
        with pytest.raises(ValueError, match="index"):
            iocs_infer([frames[0]], 5, params)


class TestLoadedGraphConfig:
    """K and the gating of a loaded checkpoint reach every graph it runs."""

    @pytest.mark.parametrize("caller", ["evaluate", "infer_video", "iocs_infer",
                                        "cli infer video", "cli infer coseg", "cli eval"])
    def test_loaded_k2_ungated_reaches_run_graph(self, dataset, tmp_path, monkeypatch, caller):
        graph = GraphConfig(k_iters=2, gated=False)
        checkpoint = tmp_path / "k2_ungated.agnn"
        save_model(checkpoint, init_model(channels=CHANNELS, downsample=4, seed=5, graph=graph))
        seen = []

        def run(nodes, params):  # no round and no readout, so no reshape runs
            seen.append(params.config)
            return nodes

        monkeypatch.setattr(pl, "_last_group", None)
        monkeypatch.setattr(pl, "run_graph", run)
        monkeypatch.setattr(model, "run_graph", run)
        monkeypatch.setattr(head, "readout", lambda h, v, params: Tensor(np.zeros(h.shape[:2])))
        entry = dataset.split("test")[0]
        video = dataset.video_dir(entry)
        frames = list(load_video(dataset, entry)[0])
        if caller.startswith("cli"):
            _, command, *task = caller.split()
            argv = [command, "--checkpoint", str(checkpoint)]
            if command == "eval":
                argv += ["--data", str(dataset.root)]
            else:
                argv += ["--video-dir", str(video), "--out", str(tmp_path / "o"), "--task", *task]
            assert cli.main(argv) == 0
        else:
            params = load_model(checkpoint)
            call = {"evaluate": lambda: pl.evaluate(dataset, params, split="test"),
                    "infer_video": lambda: pl.infer_video(frames, params),
                    "iocs_infer": lambda: pl.iocs_infer(frames, 0, params)}
            call[caller]()
        assert seen and set(seen) == {graph}


class TestEvaluate:
    def test_untrained_model_produces_bounded_report(self, dataset):
        params = init_model(channels=CHANNELS, downsample=4, seed=0, graph=K2)
        report = evaluate(dataset, params, split="test", n_prime=3)
        assert len(report.rows) == 2
        for _, j, f in report.rows:
            assert 0.0 <= j <= 1.0 and 0.0 <= f <= 1.0
        assert 0.0 <= report.mean_j <= 1.0

    def test_empty_split_rejected(self, dataset):
        params = init_model(channels=CHANNELS, downsample=4, seed=0)
        with pytest.raises(ValueError, match="empty"):
            evaluate(dataset, params, split="nope")

    def test_oracle_predictions_score_one(self, dataset, monkeypatch):
        # feed ground truth through the metric path: J = F = 1 everywhere
        params = init_model(channels=CHANNELS, downsample=4, seed=0)
        import agnnseg.pipeline as pl

        def fake_infer(frames, *a, **k):
            return [downsample_mask(m, 4).astype(float) for m in fake_infer.masks]

        entry_masks = {}
        for e in dataset.split("test"):
            _, masks = load_video(dataset, e)
            entry_masks[e.video_id] = masks

        original_load = pl.load_video

        def load_and_stash(manifest, entry):
            frames, masks = original_load(manifest, entry)
            fake_infer.masks = masks
            return frames, masks

        monkeypatch.setattr(pl, "infer_video", fake_infer)
        monkeypatch.setattr(pl, "load_video", load_and_stash)
        report = pl.evaluate(dataset, params, split="test")
        assert report.mean_j == 1.0 and report.mean_f == 1.0

    def test_all_background_predictions_score_zero_j(self, dataset, monkeypatch):
        params = init_model(channels=CHANNELS, downsample=4, seed=0)
        import agnnseg.pipeline as pl

        monkeypatch.setattr(
            pl, "infer_video",
            lambda frames, *a, **k: [np.zeros((CANVAS // 4, CANVAS // 4)) for _ in frames],
        )
        report = pl.evaluate(dataset, params, split="test")
        assert report.mean_j == 0.0
