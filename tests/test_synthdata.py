"""Dataset generation invariants, PNM formats, sampling, and mask resolution."""

import hashlib
import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agnnseg import pnm
from agnnseg.errors import FormatError
from agnnseg.synthdata import (
    SHAPE_CLASSES,
    SyntheticVideoSpec,
    bilinear_upsample,
    downsample_mask,
    generate_dataset,
    load_manifest,
    load_video,
    raster_shape,
    read_video,
    render_static_scene,
    render_video,
    sample_training_clip,
)

import oracles


def tree_hash(root):
    digest = hashlib.sha256()
    for path in sorted(Path(root).rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    manifest = generate_dataset(
        out, seed=7, train_videos=3, test_videos=2, num_frames=6, canvas=32,
        coseg_images_per_class=2,
    )
    return manifest


@pytest.fixture(scope="module")
def blob_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "blob"


_WS = [bytes([c]) for c in b" \t\r\n\v\f"]
# one header gap: whitespace bytes and comments, which may run to the end
_gap = st.lists(
    st.one_of(st.sampled_from(_WS), st.binary(max_size=6).map(lambda b: b"#" + b)),
    max_size=4,
).map(b"".join)


def _number(value):
    return st.integers(0, 2).map(lambda zeros: b"0" * zeros + b"%d" % value)


@st.composite
def pnm_layouts(draw):
    """A P5/P6 file with random header spacing and comments, maybe cut short."""
    magic, samples = draw(st.sampled_from([(b"P5", 1), (b"P6", 3)]))
    width, height = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    maxval = draw(st.sampled_from([255, 255, 255, 254, 0]))
    header = magic
    for value in (width, height, maxval):
        header += draw(_gap) + draw(_number(value))
    header += draw(st.sampled_from(_WS + [b"#", b"x"]))
    size = width * height * samples + draw(st.sampled_from([0, 0, 0, -1, 1]))
    blob = header + draw(st.binary(min_size=max(size, 0), max_size=max(size, 0)))
    cut = draw(st.one_of(st.none(), st.integers(0, len(blob))))
    return magic, samples, blob if cut is None else blob[:cut]


def _any_pnm_bytes():
    prefixes = st.sampled_from([b"", b"P5", b"P6", b"P5 1 1 255\n", b"P6\n1 2\n255\n", b"P5#\n"])
    return st.one_of(st.binary(max_size=64), st.tuples(prefixes, st.binary(max_size=32)).map(
        lambda pair: pair[0] + pair[1]))


class TestPnm:
    def test_ppm_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        pixels = rng.integers(0, 256, size=(5, 7, 3), dtype=np.uint8)
        path = tmp_path / "x.ppm"
        pnm.write_ppm(path, pixels)
        np.testing.assert_array_equal(pnm.read_ppm(path), pixels)

    def test_pgm_round_trip_bytes(self, tmp_path):
        mask = np.array([[1, 0], [0, 1]], dtype=bool)
        path = tmp_path / "m.pgm"
        pnm.write_pgm(path, mask)
        blob = path.read_bytes()
        pnm.write_pgm(path, pnm.read_pgm(path) >= 128)
        assert path.read_bytes() == blob

    def test_two_by_two_foreground_is_fifteen_bytes(self, tmp_path):
        path = tmp_path / "f.pgm"
        pnm.write_pgm(path, np.ones((2, 2), dtype=bool))
        blob = path.read_bytes()
        assert len(blob) == 15
        assert blob == b"P5\n2 2\n255\n" + b"\xff" * 4

    def test_wrong_maxval_rejected(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P5\n2 2\n254\n" + b"\x00" * 4)
        with pytest.raises(ValueError, match="maxval"):
            pnm.read_pgm(path)

    def test_truncated_payload_reports_position(self, tmp_path):
        path = tmp_path / "short.pgm"
        path.write_bytes(b"P5\n2 2\n255\n\x00\x00")
        with pytest.raises(ValueError, match="truncated.*at byte 13"):
            pnm.read_pgm(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "nope.pgm"
        path.write_bytes(b"P4\n2 2\n255\n" + b"\x00" * 4)
        with pytest.raises(ValueError, match="magic"):
            pnm.read_pgm(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "long.pgm"
        path.write_bytes(b"P5\n2 2\n255\n" + b"\x00" * 5)
        with pytest.raises(ValueError, match="trailing"):
            pnm.read_pgm(path)

    def test_header_comments_accepted(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# hi\n2 2\n255\n" + b"\xaa" * 4)
        np.testing.assert_array_equal(pnm.read_pgm(path), np.full((2, 2), 0xAA, dtype=np.uint8))

    @given(layout=pnm_layouts())
    @settings(max_examples=300, deadline=None)
    def test_header_tokenizer_matches_byte_loop_oracle(self, blob_file, layout):
        magic, samples, blob = layout
        blob_file.write_bytes(blob)
        read = pnm.read_pgm if magic == b"P5" else pnm.read_ppm
        try:
            expected = oracles.read_pnm_loops(blob, magic, samples)
        except oracles.PnmLoopsError as exc:
            with pytest.raises(FormatError) as info:
                read(blob_file)
            assert info.value.offset == exc.offset
            assert str(info.value) == f"{blob_file}: {exc}"
        else:
            got = read(blob_file)
            assert got.dtype == np.uint8 and got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()

    @given(blob=_any_pnm_bytes(), magic=st.sampled_from([b"P5", b"P6"]))
    @settings(max_examples=300, deadline=None)
    def test_any_bytes_give_an_array_or_format_error(self, blob_file, blob, magic):
        blob_file.write_bytes(blob)
        read = pnm.read_pgm if magic == b"P5" else pnm.read_ppm
        try:
            got = read(blob_file)
        except FormatError as exc:
            assert exc.path == blob_file and 0 <= exc.offset <= len(blob)
        else:
            assert got.dtype == np.uint8 and got.ndim == (2 if magic == b"P5" else 3)

    def test_overlong_integer_is_a_format_error(self, tmp_path):
        path = tmp_path / "long.pgm"
        path.write_bytes(b"P5 " + b"1" * 5000 + b" 1 255\n")
        with pytest.raises(FormatError, match="5000 digits.*at byte 5003"):
            pnm.read_pgm(path)

    def test_stack_of_mixed_sizes_names_file_and_sizes(self, tmp_path):
        paths = [tmp_path / f"f{i}.ppm" for i in range(3)]
        for path, side in zip(paths, (4, 4, 2)):
            pnm.write_ppm(path, np.zeros((side, side, 3), dtype=np.uint8))
        with pytest.raises(FormatError) as info:
            pnm.read_stack(paths, pnm.read_ppm)
        assert info.value.path == paths[2]
        assert f"size 2x2 differs from 4x4 of {paths[0]}" in str(info.value)

    @given(
        h=st.integers(min_value=1, max_value=8),
        w=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=30, deadline=None)
    def test_round_trip_property(self, tmp_path_factory, h, w, seed):
        pixels = np.random.default_rng(seed).integers(0, 256, size=(h, w, 3), dtype=np.uint8)
        path = tmp_path_factory.mktemp("pnm") / "p.ppm"
        pnm.write_ppm(path, pixels)
        np.testing.assert_array_equal(pnm.read_ppm(path), pixels)


class TestRenderVideo:
    def test_deterministic(self):
        spec = SyntheticVideoSpec(num_frames=4, canvas=32, seed=11)
        f1, m1 = render_video(spec)
        f2, m2 = render_video(spec)
        assert f1.tobytes() == f2.tobytes() and m1.tobytes() == m2.tobytes()

    def test_masks_nonempty_and_above_area_floor(self):
        for seed in range(5):
            spec = SyntheticVideoSpec(num_frames=6, canvas=64, seed=seed)
            _, masks = render_video(spec)
            for m in masks:
                assert m.sum() >= 0.02 * 64 * 64

    def test_mask_equals_rasterized_area(self):
        # the mask is exactly the foreground raster: every mask pixel shows
        # the foreground colour in the frame
        spec = SyntheticVideoSpec(num_frames=5, canvas=48, seed=3)
        frames, masks = render_video(spec)
        for frame, mask in zip(frames, masks):
            colors = frame[mask]
            assert np.all(np.abs(colors - colors[0]) < 1e-12)

    def test_values_in_unit_range(self):
        frames, _ = render_video(SyntheticVideoSpec(num_frames=3, canvas=32, seed=9))
        assert frames.min() >= 0.0 and frames.max() <= 1.0


class TestRasterizers:
    def test_shapes_differ(self):
        grids = [raster_shape(c, 32, 16, 16, 8, 8) for c in SHAPE_CLASSES]
        assert not np.array_equal(grids[0], grids[1])
        assert not np.array_equal(grids[1], grids[2])
        for g in grids:
            assert g.sum() > 0

    def test_rectangle_area_exact(self):
        # half sizes 3.0 cover pixel centres cy±3, cx±3: a 6x6 block... the
        # centres at distance exactly 3.0 are included, giving 6 per axis
        got = raster_shape("rectangle", 32, 10.0, 10.0, 3.0, 3.0)
        assert got.sum() == 36


class TestDataset:
    def test_regeneration_is_byte_identical(self, tmp_path):
        kwargs = dict(seed=5, train_videos=2, test_videos=1, num_frames=4, canvas=32,
                      coseg_images_per_class=1)
        generate_dataset(tmp_path / "a", **kwargs)
        generate_dataset(tmp_path / "b", **kwargs)
        assert tree_hash(tmp_path / "a") == tree_hash(tmp_path / "b")

    def test_manifest_round_trip(self, small_dataset):
        loaded = load_manifest(small_dataset.root)
        assert loaded.entries == small_dataset.entries

    def test_missing_file_detected(self, tmp_path):
        manifest = generate_dataset(tmp_path, seed=1, train_videos=1, test_videos=1,
                                    num_frames=2, canvas=32, coseg_images_per_class=1)
        victim = manifest.video_dir(manifest.split("train")[0]) / "mask_0001.pgm"
        victim.unlink()
        with pytest.raises(OSError, match="missing"):
            load_manifest(tmp_path)

    def test_any_manifest_bytes_give_a_manifest_or_a_named_error(self, tmp_path_factory):
        # a real dataset under the manifest, so lines naming its videos can load,
        # and a copy of one video outside it, which lines must not reach
        root = tmp_path_factory.mktemp("manifest_fuzz") / "data"
        generate_dataset(root, seed=1, train_videos=1, test_videos=1, num_frames=2,
                         canvas=32, coseg_images_per_class=1)
        shutil.copytree(root / "train" / "video_0000", root.parent / "outside")
        path = root / "manifest.txt"
        junk = st.text(alphabet="a0 \r.-/_\x00é", max_size=6)
        fields = st.tuples(
            st.sampled_from(["train", "test", "coseg"]) | junk,
            st.sampled_from(["video_0000", "video_0001", "video_0009"]) | junk,
            st.sampled_from(["1", "2", "3", "0", "-1", " 2", "2.0"]) | junk,
            st.sampled_from(["ellipse", ""]),
        )
        escapes = st.sampled_from([("..", "outside"), ("train", "../../outside")]).map(
            lambda names: names + ("2", "ellipse"))
        line = st.one_of(fields, fields, escapes, st.lists(junk, max_size=5)).map("\t".join)
        text_manifest = st.lists(line, max_size=3).flatmap(
            lambda lines: st.sampled_from(["\n", "\r\n", "\r"]).map(lambda nl: nl.join(lines))
        )
        blobs = st.one_of(st.binary(max_size=120), text_manifest.map(lambda s: s.encode()))

        @given(blob=blobs)
        @settings(max_examples=400, deadline=None)
        def check(blob):
            path.write_bytes(blob)
            try:
                manifest = load_manifest(root)
            except FormatError as exc:
                assert exc.path == path and 0 <= exc.offset < len(blob)
            except OSError as exc:
                _, _, named = str(exc).partition("manifest references missing file ")
                assert named and not Path(named).is_file()
            else:
                for entry in manifest.entries:
                    assert entry.num_frames >= 1
                    assert (manifest.video_dir(entry) / "frame_0000.ppm").is_file()
                    assert manifest.video_dir(entry).resolve().is_relative_to(root.resolve())

        check()

    @pytest.mark.parametrize("line", [
        "train\t/\t1\tellipse",
        "train\t../x\t1\tellipse",
        "../train\tvideo_0000\t1\tellipse",
        "train\t.\t1\tellipse",
        "train\tvideo_0000\\..\t1\tellipse",
        "\tvideo_0000\t1\tellipse",
    ])
    def test_name_that_is_not_one_path_component_rejected(self, small_dataset, tmp_path, line):
        first = "train\tvideo_0000\t6\tellipse\n"
        (tmp_path / "manifest.txt").write_text(first + line + "\n")
        shutil.copytree(small_dataset.root / "train", tmp_path / "train")
        with pytest.raises(FormatError, match="line 2: .*one plain path component") as info:
            load_manifest(tmp_path)
        assert info.value.path == tmp_path / "manifest.txt"
        assert info.value.offset == len(first)

    def test_video_class_constant_and_distractors_strict_subset(self):
        for seed in range(8):
            spec = SyntheticVideoSpec(num_frames=6, canvas=32, shape_class="rectangle",
                                      distractor_count=2, seed=seed)
            frames, masks, layout = render_video(spec, return_layout=True)
            assert layout.fg_class == "rectangle"
            for cls, visible in zip(layout.distractor_classes, layout.distractor_visibility):
                assert cls != layout.fg_class
                assert 1 <= len(visible) < spec.num_frames
            # common object keeps one colour through the whole video
            fg_colors = np.concatenate([f[m] for f, m in zip(frames, masks)])
            assert np.all(np.abs(fg_colors - fg_colors[0]) < 1e-12)

    def test_coseg_groups_share_class(self, small_dataset):
        groups = {}
        for e in small_dataset.split("coseg"):
            groups.setdefault(e.shape_class, []).append(e)
        assert set(groups) == set(SHAPE_CLASSES)
        for cls, members in groups.items():
            assert len(members) == 2

    def test_unwritable_out_dir_rejected(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        with pytest.raises(OSError):
            generate_dataset(blocker / "sub", seed=0, train_videos=1, test_videos=0,
                             num_frames=1, canvas=32, coseg_images_per_class=0)

    def test_loaded_frames_in_range(self, small_dataset):
        entry = small_dataset.split("train")[0]
        frames, masks = load_video(small_dataset, entry)
        assert frames.min() >= 0.0 and frames.max() <= 1.0
        assert masks.dtype == bool

    def test_load_video_matches_per_file_decode_oracle(self, small_dataset):
        for entry in small_dataset.split("train")[:2] + small_dataset.split("coseg")[:1]:
            vdir = small_dataset.video_dir(entry)
            decoded = [
                (oracles.read_pnm_loops((vdir / f"frame_{t:04d}.ppm").read_bytes(), b"P6", 3),
                 oracles.read_pnm_loops((vdir / f"mask_{t:04d}.pgm").read_bytes(), b"P5", 1))
                for t in range(entry.num_frames)
            ]
            want_frames = np.stack([f.astype(float) / 255.0 for f, _ in decoded])
            want_masks = np.stack([m >= 128 for _, m in decoded])
            frames, masks = load_video(small_dataset, entry)
            for got, want in ((frames, want_frames), (masks, want_masks)):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()

    def test_read_video_is_the_per_file_decode_and_load_video_divides_it(self, small_dataset):
        for entry in [small_dataset.split(s)[0] for s in ("train", "test", "coseg")]:
            vdir = small_dataset.video_dir(entry)
            decoded = [
                (oracles.read_pnm_loops((vdir / f"frame_{t:04d}.ppm").read_bytes(), b"P6", 3),
                 oracles.read_pnm_loops((vdir / f"mask_{t:04d}.pgm").read_bytes(), b"P5", 1))
                for t in range(entry.num_frames)
            ]
            frames, masks = read_video(small_dataset, entry)
            assert frames.dtype == np.uint8 and masks.dtype == bool
            assert frames.tobytes() == np.stack([f for f, _ in decoded]).tobytes()
            assert masks.tobytes() == np.stack([m >= 128 for _, m in decoded]).tobytes()
            loaded, loaded_masks = load_video(small_dataset, entry)
            assert loaded.dtype == np.float64 and loaded.shape == frames.shape
            assert loaded.tobytes() == (frames / 255.0).tobytes()
            assert loaded_masks.tobytes() == masks.tobytes()

    @pytest.mark.parametrize("name", ["frame_0002.ppm", "mask_0000.pgm", "mask_0003.pgm"])
    def test_file_of_another_size_named(self, small_dataset, tmp_path, name):
        entry = small_dataset.split("train")[0]
        root = tmp_path / "data"
        shutil.copytree(small_dataset.video_dir(entry), root / entry.split / entry.video_id)
        victim = root / entry.split / entry.video_id / name
        if name.endswith(".ppm"):
            pnm.write_ppm(victim, np.zeros((16, 32, 3), dtype=np.uint8))
        else:
            pnm.write_pgm(victim, np.zeros((16, 32), dtype=bool))
        raised = []
        for load in (read_video, load_video):
            with pytest.raises(FormatError) as info:
                load(type(small_dataset)(root, [entry]), entry)
            raised.append((info.value.path, info.value.offset, str(info.value)))
        assert raised[0] == raised[1]
        assert raised[0][0] == victim
        assert "size 32x16 differs from 32x32" in raised[0][2]


class TestStaticScene:
    def test_deterministic_and_nonempty(self):
        f1, m1, c1 = render_static_scene(32, seed=4)
        f2, m2, c2 = render_static_scene(32, seed=4)
        assert f1.tobytes() == f2.tobytes() and c1 == c2
        assert m1.sum() > 0

    def test_class_override(self):
        _, _, cls = render_static_scene(32, seed=1, shape_class="triangle")
        assert cls == "triangle"


class TestSampleTrainingClip:
    def test_full_length_returns_all(self):
        frames = list(range(5))
        assert sample_training_clip(frames, 5, seed=0) == frames

    def test_forced_segmentation(self):
        frames = list(range(9))
        for seed in range(20):
            picked = sample_training_clip(frames, 3, seed=seed)
            assert picked[0] in {0, 1, 2}
            assert picked[1] in {3, 4, 5}
            assert picked[2] in {6, 7, 8}
            assert picked == sorted(picked)

    def test_remainder_spread_over_leading_segments(self):
        # 7 frames over 3 segments -> sizes 3, 2, 2
        frames = list(range(7))
        for seed in range(20):
            picked = sample_training_clip(frames, 3, seed=seed)
            assert picked[0] in {0, 1, 2}
            assert picked[1] in {3, 4}
            assert picked[2] in {5, 6}

    def test_within_segment_uniformity(self):
        rng = np.random.default_rng(123)
        counts = np.zeros((3, 3))
        for _ in range(10000):
            picked = sample_training_clip(list(range(9)), 3, rng)
            for seg, frame in enumerate(picked):
                counts[seg, frame - 3 * seg] += 1
        freqs = counts / 10000
        assert np.abs(freqs - 1.0 / 3.0).max() < 0.02

    def test_oversampling_rejected(self):
        with pytest.raises(ValueError, match="cannot sample"):
            sample_training_clip([1, 2], 3, seed=0)


class TestDownsampleMask:
    def test_all_ones(self):
        np.testing.assert_array_equal(
            downsample_mask(np.ones((8, 8), dtype=bool), 4), np.ones((2, 2), dtype=bool)
        )

    def test_checkerboard_tie_goes_foreground(self):
        yy, xx = np.mgrid[0:4, 0:4]
        checker = (yy + xx) % 2 == 0
        np.testing.assert_array_equal(downsample_mask(checker, 2), np.ones((2, 2), dtype=bool))

    def test_matches_counting_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            mask = rng.uniform(size=(12, 8)) > 0.5
            np.testing.assert_array_equal(
                downsample_mask(mask, 4), oracles.block_majority_loops(mask, 4)
            )

    @pytest.mark.parametrize("factor", [1, 2, 3, 4, 8, 16])
    @pytest.mark.parametrize("lead", [(), (5,)])
    def test_stack_matches_per_frame_counting_oracle(self, factor, lead):
        rng = np.random.default_rng(8 + factor)
        for _ in range(6):
            shape = lead + (factor * int(rng.integers(1, 4)), factor * int(rng.integers(1, 4)))
            mask = rng.uniform(size=shape) < rng.uniform()
            got = downsample_mask(mask, factor)
            frames = mask.reshape((-1,) + shape[-2:])
            want = np.stack([oracles.block_majority_loops(m, factor) for m in frames])
            assert got.dtype == bool
            np.testing.assert_array_equal(got, want.reshape(got.shape))

    def test_one_dimensional_rejected(self):
        with pytest.raises(ValueError, match="at least 2-D"):
            downsample_mask(np.ones(4, dtype=bool), 2)

    def test_indivisible_rejected(self):
        with pytest.raises(ValueError, match="divisible"):
            downsample_mask(np.ones((6, 6), dtype=bool), 4)


class TestBilinearUpsample:
    def test_factor_one_is_identity(self):
        grid = np.random.default_rng(40).uniform(size=(3, 5))
        assert bilinear_upsample(grid, 1).tobytes() == grid.tobytes()

    def test_constant_map_stays_constant(self):
        got = bilinear_upsample(np.full((2, 3), 0.375), 4)
        assert got.shape == (8, 12)
        np.testing.assert_array_equal(got, np.full((8, 12), 0.375))

    @pytest.mark.parametrize("factor", [1, 2, 3, 4])
    def test_matches_per_pixel_loop_oracle(self, factor):
        rng = np.random.default_rng(41 + factor)
        for _ in range(10):
            grid = rng.uniform(size=(int(rng.integers(1, 5)), int(rng.integers(1, 5))))
            np.testing.assert_allclose(
                bilinear_upsample(grid, factor), oracles.bilinear_upsample_loops(grid, factor),
                rtol=0, atol=1e-12,
            )
