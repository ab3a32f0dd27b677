"""Dataset generation invariants, PNM formats, sampling, and mask resolution."""

import hashlib
import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agnnseg import pnm, synthdata
from agnnseg.encoder import EncoderConfig, encode, init_encoder
from agnnseg.errors import FieldError, FormatError
from agnnseg.synthdata import (
    SHAPE_CLASSES,
    SyntheticVideoSpec,
    _background,
    bilinear_upsample,
    downsample_mask,
    generate_dataset,
    load_manifest,
    load_video,
    near_equal_runs,
    raster_shape,
    render_static_scene,
    render_video,
    sample_training_clip,
)

import oracles
from oracles import tree_hash


# Pinned digests of generated bytes: any change to data generation, down to
# one rounding step, changes the data every model trains and is scored on.
SMALL_DATASET_TREE = "6b133cc5627a0186fe78233139cf1d08fee69ad314eee15e21110d5c272f521d"
# the arrays load_video returns for that dataset, whatever its file layout
SMALL_DATASET_DECODED = "e3ba925da6bdcc8506b887c82c270f04177a55556d7df02bd5d9370dbf17a49d"
STATIC_SCENE_32 = {
    0: "e63a5910188c72a833d89665501ff7a7c730699d2608eaf6bdb3e985934fcfe8",
    1: "f4d3ca18caef4631fa94e5f4b4d68e7518fa86ec45c4e98bd3b625b3661f371a",
    2: "f808e1fc4d46c8af23f3ecdfa39d7b3160d0a705a39a618f7ddf5e8521e70d85",
    3: "b7da30557b365c654c667695378b16051f3064f92bee686de6e457c05d7128cc",
}


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    return generate_dataset(out, seed=7, num_frames=6, canvas=32)


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


_FORMATS = [(b"P5", 1), (b"P6", 3)]
BOUNDARY_DIMS = (0, 1, 2**31, 2**32 - 1)
PAYLOAD_CAP = 64  # bytes drawn at most: a boundary dim states far more
_dim = st.one_of(st.integers(0, 3), st.sampled_from(BOUNDARY_DIMS))


@st.composite
def pnm_layouts(draw, magic=None, dims=None):
    """A P5/P6 file with random header spacing and comments, maybe cut short.

    ``magic`` and ``dims`` (width, height) fix the format and the size the
    header states; by default both are drawn, each dim from 0-3 or
    ``BOUNDARY_DIMS``.  A payload is at most ``PAYLOAD_CAP`` bytes, so a file
    whose header states more is cut short.
    """
    if magic is None:
        magic, samples = draw(st.sampled_from(_FORMATS))
    else:
        samples = dict(_FORMATS)[magic]
    width, height = dims or (draw(_dim), draw(_dim))
    maxval = draw(st.sampled_from([255, 255, 255, 254, 0]))
    header = magic
    for value in (width, height, maxval):
        header += draw(_gap) + draw(_number(value))
    header += draw(st.sampled_from(_WS + [b"#", b"x"]))
    size = width * height * samples + draw(st.sampled_from([0, 0, 0, -1, 1]))
    size = min(max(size, 0), PAYLOAD_CAP)
    blob = header + draw(st.binary(min_size=size, max_size=size))
    cut = draw(st.one_of(st.none(), st.integers(0, len(blob))))
    return magic, samples, blob if cut is None else blob[:cut]


@st.composite
def pnm_files(draw):
    """Images back to back, as one multi-image file: a first image, then
    later ones, then maybe a few trailing bytes.

    A later image either repeats the first image's header bytes with a new
    payload, so a file of only such images is read with one header
    comparison, or repeats the header with a payload one byte short or long,
    or has the first image's length but the other magic, or has a comment in
    a header for the same size, or is a drawn layout: the same size spelt
    otherwise, or one byte short or long, another size, or either magic.
    """
    magic, samples = draw(st.sampled_from(_FORMATS))
    width, height = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    nbytes = width * height * samples
    payloads = st.binary(min_size=nbytes, max_size=nbytes)
    canonical = b"%s\n%d %d\n255\n" % (magic, width, height)
    first = draw(st.one_of(
        payloads.map(lambda p: canonical + p),
        payloads.map(lambda p: canonical + p),
        pnm_layouts(magic, (width, height)).map(lambda layout: layout[2]),
    ))
    header = first[: max(len(first) - nbytes, 0)]

    def later(kind):
        if kind == "magic":  # the first image's length, but the other format's magic
            other = b"P6" if magic == b"P5" else b"P5"
            return payloads.map(lambda p: other + header[2:] + p)
        if kind == "commented":  # a valid header for the same size, but other bytes
            return payloads.map(lambda p: magic + b"\n# later\n" + canonical[3:] + p)
        if kind in ("same", "short", "long"):
            n = nbytes + {"same": 0, "short": -1, "long": 1}[kind]
            return st.binary(min_size=n, max_size=n).map(lambda p: header + p)
        args = {"respelt": (magic, (width, height)), "resized": (magic,), "any": ()}[kind]
        return pnm_layouts(*args).map(lambda layout: layout[2])

    kinds = st.sampled_from(["same"] * 8 + ["commented"] * 2 + ["respelt", "short", "long",
                                                                "magic", "resized", "any"])
    images = draw(st.lists(kinds.flatmap(later), max_size=4))
    tail = draw(st.sampled_from([b""] * 12 + [b"\n", b"P", magic, b"x" * 5]))
    return magic, samples, b"".join([first] + images) + tail


def _any_pnm_bytes():
    prefixes = st.sampled_from([b"", b"P5", b"P6", b"P5 1 1 255\n", b"P6\n1 2\n255\n", b"P5#\n"]
                               + [b"P5 %d %d 255\n" % (d, d) for d in BOUNDARY_DIMS])
    return st.one_of(st.binary(max_size=64), st.tuples(prefixes, st.binary(max_size=32)).map(
        lambda pair: pair[0] + pair[1]))


def _read(magic):
    return pnm.read_pgm if magic == b"P5" else pnm.read_ppm


def _file_oracle(blob, magic, samples):
    """What the reader returns for ``blob``: the image-by-image loop decode,
    as masks for P5."""
    images = oracles.read_pnm_file_loops(blob, magic, samples)
    return images >= 128 if magic == b"P5" else images


def _manifest_of(tmp_path, frames, masks):
    """A one-video dataset under ``tmp_path`` holding ``frames`` and ``masks``
    as given, with ``num_frames`` the frame count."""
    vdir = tmp_path / "train" / "video_0000"
    vdir.mkdir(parents=True)
    pnm.write_ppm(vdir / "frames.ppm", frames)
    pnm.write_pgm(vdir / "masks.pgm", masks)
    entry = synthdata.ManifestEntry("train", "video_0000", len(frames), "ellipse")
    return synthdata.DatasetManifest(tmp_path, [entry]), entry


class TestPnm:
    def test_ppm_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        pixels = rng.integers(0, 256, size=(2, 5, 7, 3), dtype=np.uint8)
        path = tmp_path / "x.ppm"
        pnm.write_ppm(path, pixels)
        np.testing.assert_array_equal(pnm.read_ppm(path), pixels)

    def test_pgm_round_trip_bytes(self, tmp_path):
        masks = np.array([[[1, 0], [0, 1]], [[0, 0], [1, 1]]], dtype=bool)
        path = tmp_path / "m.pgm"
        pnm.write_pgm(path, masks)
        blob = path.read_bytes()
        pnm.write_pgm(path, pnm.read_pgm(path))
        assert path.read_bytes() == blob

    def test_two_by_two_foreground_is_fifteen_bytes(self, tmp_path):
        path = tmp_path / "f.pgm"
        pnm.write_pgm(path, np.ones((1, 2, 2), dtype=bool))
        blob = path.read_bytes()
        assert len(blob) == 15
        assert blob == b"P5\n2 2\n255\n" + b"\xff" * 4

    def test_stack_file_is_the_one_image_files_concatenated(self, tmp_path):
        rng = np.random.default_rng(1)
        frames = rng.integers(0, 256, size=(3, 2, 4, 3), dtype=np.uint8)
        pnm.write_ppm(tmp_path / "frames.ppm", frames)
        for t, frame in enumerate(frames):
            pnm.write_ppm(tmp_path / f"frame_{t:04d}.ppm", frame[None])
        parts = [(tmp_path / f"frame_{t:04d}.ppm").read_bytes() for t in range(3)]
        assert (tmp_path / "frames.ppm").read_bytes() == b"".join(parts)

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

    def test_truncated_last_image_reports_its_position(self, tmp_path):
        path = tmp_path / "short.ppm"
        pnm.write_ppm(path, np.zeros((3, 2, 2, 3), dtype=np.uint8))
        blob = path.read_bytes()
        path.write_bytes(blob[:-5])
        with pytest.raises(FormatError) as info:
            pnm.read_ppm(path)
        assert (info.value.path, info.value.offset) == (path, len(blob) - 5)
        assert "payload truncated: need 12 bytes, have 7" in str(info.value)

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

    @pytest.mark.parametrize("tail, message", [
        (b"\n\n", "trailing data: 2 extra bytes"),
        (b"P5", "expected an integer"),  # the start of a third image
    ], ids=["junk", "magic"])
    def test_bytes_after_the_last_image_rejected_where_they_start(self, tmp_path, tail, message):
        path = tmp_path / "long.pgm"
        pnm.write_pgm(path, np.zeros((2, 2, 2), dtype=bool))
        size = len(path.read_bytes())
        path.write_bytes(path.read_bytes() + tail)
        with pytest.raises(FormatError) as info:
            pnm.read_pgm(path)
        offset = size if tail[:1] == b"\n" else size + 2
        assert str(info.value) == f"{path}: {message} at byte {offset}"

    def test_header_comments_accepted(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# hi\n2 2\n255\n" + b"\x7f\x80\xaa\x00")
        np.testing.assert_array_equal(pnm.read_pgm(path), [[[False, True], [True, False]]])

    def test_header_comments_on_a_later_image_give_the_same_arrays(self, tmp_path):
        rng = np.random.default_rng(2)
        frames = rng.integers(0, 256, size=(3, 2, 3, 3), dtype=np.uint8)
        plain = tmp_path / "plain.ppm"
        pnm.write_ppm(plain, frames)
        commented = tmp_path / "commented.ppm"
        blob = plain.read_bytes()
        size = len(blob) // 3
        commented.write_bytes(blob[:size] + b"P6 # later\n3\t2 255\n" + blob[size + 11 :])
        assert commented.read_bytes() != blob
        got = pnm.read_ppm(commented)
        assert got.tobytes() == pnm.read_ppm(plain).tobytes() == frames.tobytes()
        assert got.flags.c_contiguous and got.flags.writeable

    @given(layout=pnm_layouts())
    @settings(max_examples=300, deadline=None)
    def test_header_tokenizer_matches_byte_loop_oracle(self, blob_file, layout):
        magic, samples, blob = layout
        blob_file.write_bytes(blob)
        try:
            expected = _file_oracle(blob, magic, samples)
        except oracles.PnmLoopsError as exc:
            with pytest.raises(FormatError) as info:
                _read(magic)(blob_file)
            assert info.value.offset == exc.offset
            assert str(info.value) == f"{blob_file}: {exc}"
        else:
            got = _read(magic)(blob_file)
            assert got.dtype == expected.dtype and got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()

    @given(blob=_any_pnm_bytes(), magic=st.sampled_from([b"P5", b"P6"]))
    @settings(max_examples=300, deadline=None)
    def test_any_bytes_give_an_array_or_format_error(self, blob_file, blob, magic):
        blob_file.write_bytes(blob)
        try:
            got = _read(magic)(blob_file)
        except FormatError as exc:
            assert exc.path == blob_file and 0 <= exc.offset <= len(blob)
        else:
            assert got.dtype == (bool if magic == b"P5" else np.uint8)
            assert got.ndim == (3 if magic == b"P5" else 4) and len(got) >= 1

    def test_overlong_integer_is_a_format_error(self, tmp_path):
        path = tmp_path / "long.pgm"
        path.write_bytes(b"P5 " + b"1" * 5000 + b" 1 255\n")
        with pytest.raises(FormatError, match="5000 digits.*at byte 5003"):
            pnm.read_pgm(path)

    def test_stack_of_mixed_sizes_names_file_and_sizes(self, tmp_path):
        path = tmp_path / "frames.ppm"
        parts = []
        for side in (4, 4, 2):
            pnm.write_ppm(path, np.zeros((1, side, side, 3), dtype=np.uint8))
            parts.append(path.read_bytes())
        path.write_bytes(b"".join(parts))
        with pytest.raises(FormatError) as info:
            pnm.read_ppm(path)
        assert (info.value.path, info.value.offset) == (path, len(parts[0]) + len(parts[1]))
        assert "image 2 size 2x2 differs from 4x4 of image 0" in str(info.value)

    def test_stack_checks_the_first_file_against_ref(self, tmp_path):
        # the masks file of a video is checked against its frames file's size
        manifest, entry = _manifest_of(tmp_path, np.zeros((3, 3, 2, 3), dtype=np.uint8),
                                       np.zeros((3, 2, 2), dtype=bool))
        vdir = manifest.video_dir(entry)
        with pytest.raises(FormatError) as info:
            load_video(manifest, entry)
        assert (info.value.path, info.value.offset) == (vdir / "masks.pgm", 0)
        assert f"size 2x2 differs from 2x3 of {vdir / 'frames.ppm'}" in str(info.value)

    @given(file=pnm_files(), as_str=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_stack_matches_the_per_file_decode_oracle(self, blob_file, file, as_str):
        # a file of one header repeated is taken with one comparison, any
        # other is parsed image by image: either way the result, or the first
        # error and its byte offset, is the image-by-image loop decode's
        magic, samples, blob = file
        blob_file.write_bytes(blob)
        path = str(blob_file) if as_str else blob_file
        try:
            expected = _file_oracle(blob, magic, samples)
        except oracles.PnmLoopsError as exc:
            with pytest.raises(FormatError) as info:
                _read(magic)(path)
            assert (info.value.path, info.value.offset) == (path, exc.offset)
            assert str(info.value) == f"{path}: {exc}"
            assert type(info.value.path) is type(path)
        else:
            got = _read(magic)(path)
            assert got.dtype == expected.dtype and got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()
            assert got.flags.c_contiguous and got.flags.writeable

    @given(
        t=st.integers(min_value=1, max_value=3),
        h=st.integers(min_value=1, max_value=8),
        w=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=30, deadline=None)
    def test_round_trip_property(self, tmp_path_factory, t, h, w, seed):
        pixels = np.random.default_rng(seed).integers(0, 256, size=(t, h, w, 3), dtype=np.uint8)
        path = tmp_path_factory.mktemp("pnm") / "p.ppm"
        pnm.write_ppm(path, pixels)
        np.testing.assert_array_equal(pnm.read_ppm(path), pixels)


class TestRenderVideo:
    def test_deterministic(self):
        spec = SyntheticVideoSpec(num_frames=4, canvas=32)
        f1, m1 = render_video(spec, "ellipse", 11)
        f2, m2 = render_video(spec, "ellipse", 11)
        assert f1.tobytes() == f2.tobytes() and m1.tobytes() == m2.tobytes()

    def test_masks_nonempty_and_above_area_floor(self):
        for seed in range(5):
            _, masks = render_video(SyntheticVideoSpec(num_frames=6, canvas=64), "ellipse", seed)
            for m in masks:
                assert m.sum() >= 0.02 * 64 * 64

    def test_mask_equals_rasterized_area(self):
        # the mask is exactly the foreground raster: every mask pixel shows
        # the foreground colour in the frame
        frames, masks = render_video(SyntheticVideoSpec(num_frames=5, canvas=48), "ellipse", 3)
        for frame, mask in zip(frames, masks):
            colors = frame[mask]
            assert np.all(np.abs(colors - colors[0]) < 1e-12)

    def test_values_in_unit_range(self):
        frames, _ = render_video(SyntheticVideoSpec(num_frames=3, canvas=32), "ellipse", 9)
        assert frames.min() >= 0.0 and frames.max() <= 1.0


class TestRasterizers:
    def test_shapes_differ(self):
        grids = [raster_shape(c, 32, 16, 16, 8, 8) for c in SHAPE_CLASSES]
        assert not np.array_equal(grids[0], grids[1])
        assert not np.array_equal(grids[1], grids[2])
        for g in grids:
            assert g.sum() > 0

    @pytest.mark.parametrize("shape_class", SHAPE_CLASSES)
    def test_broadcast_matches_the_index_grid_oracle(self, shape_class):
        rng = np.random.default_rng(SHAPE_CLASSES.index(shape_class))
        for canvas in range(8, 97):
            for _ in range(4):
                cy, cx = rng.uniform(-0.25, 1.25, size=2) * canvas
                ry, rx = rng.uniform(0.02, 0.7, size=2) * canvas
                if rng.integers(2):  # on the half-pixel lattice, where `<=` ties fall
                    cy, cx = np.round([2 * cy, 2 * cx]) / 2
                    ry, rx = np.maximum(np.round([2 * ry, 2 * rx]) / 2, 0.5)
                got = raster_shape(shape_class, canvas, cy, cx, ry, rx)
                want = oracles.RASTER_GRIDS[shape_class](canvas, cy, cx, ry, rx)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()

    def test_background_matches_the_index_grid_oracle(self):
        for canvas in range(8, 97):
            base, bg = _background(np.random.default_rng(canvas), canvas)
            want_base, want_bg = oracles.background_grid(np.random.default_rng(canvas), canvas)
            assert base.tobytes() == want_base.tobytes()
            assert bg.shape == want_bg.shape and bg.tobytes() == want_bg.tobytes()

    def test_rectangle_area_exact(self):
        # half sizes 3.0 cover pixel centres cy±3, cx±3: a 6x6 block... the
        # centres at distance exactly 3.0 are included, giving 6 per axis
        got = raster_shape("rectangle", 32, 10.0, 10.0, 3.0, 3.0)
        assert got.sum() == 36


class TestDataset:
    def test_regeneration_is_byte_identical(self, tmp_path):
        kwargs = dict(seed=5, num_frames=4, canvas=32)
        generate_dataset(tmp_path / "a", **kwargs)
        generate_dataset(tmp_path / "b", **kwargs)
        assert tree_hash(tmp_path / "a") == tree_hash(tmp_path / "b")

    def test_bytes_match_the_pinned_digest(self, small_dataset):
        assert tree_hash(small_dataset.root) == SMALL_DATASET_TREE

    def test_decoded_arrays_match_the_pinned_digest(self, small_dataset):
        assert oracles.decoded_hash(small_dataset) == SMALL_DATASET_DECODED

    def test_split_sizes_are_the_module_constants(self, small_dataset):
        sizes = [len(small_dataset.split(name)) for name in ("train", "test", "coseg")]
        assert sizes == [synthdata.TRAIN_VIDEOS, synthdata.TEST_VIDEOS,
                         synthdata.COSEG_IMAGES_PER_CLASS * len(SHAPE_CLASSES)]

    def test_manifest_round_trip(self, small_dataset):
        loaded = load_manifest(small_dataset.root)
        assert loaded.entries == small_dataset.entries

    def test_missing_file_detected(self, tmp_path):
        manifest = generate_dataset(tmp_path, seed=1, num_frames=2, canvas=32)
        victim = manifest.video_dir(manifest.split("train")[0]) / "masks.pgm"
        victim.unlink()
        with pytest.raises(OSError, match="missing"):
            load_manifest(tmp_path)

    def test_any_manifest_bytes_give_a_manifest_or_a_named_error(self, tmp_path_factory):
        # a real dataset under the manifest, so lines naming its videos can load,
        # and a copy of one video outside it, which lines must not reach
        root = tmp_path_factory.mktemp("manifest_fuzz") / "data"
        generate_dataset(root, seed=1, num_frames=2, canvas=32)
        shutil.copytree(root / "train" / "video_0000", root.parent / "outside")
        path = root / "manifest.txt"
        junk = st.text(alphabet="a0 \r.-/_\x00é", max_size=6)
        fields = st.tuples(
            st.sampled_from(["train", "test", "coseg"]) | junk,
            st.sampled_from(["video_0000", "video_0001", "video_0009"]) | junk,
            st.sampled_from(["1", "2", "3", "0", "-1", " 2", "2.0"]
                            + [str(d) for d in BOUNDARY_DIMS]) | junk,
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
                    assert (manifest.video_dir(entry) / "frames.ppm").is_file()
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

    def test_video_class_constant_and_distractors_strict_subset(self, monkeypatch):
        # every track render_video makes, with each mask it rasterizes
        tracks = []

        class SpyTrack(synthdata._Track):
            def __init__(self, *args):
                super().__init__(*args)
                self.drawn = []
                tracks.append(self)

            def raster(self, rng):
                mask = super().raster(rng)
                self.drawn.append(mask)
                return mask

        monkeypatch.setattr(synthdata, "_Track", SpyTrack)
        for seed in range(8):
            tracks.clear()
            spec = SyntheticVideoSpec(num_frames=6, canvas=32)
            frames, masks = render_video(spec, "rectangle", seed)
            # the foreground track is the one that draws every returned mask
            fg = [t for t in tracks if len(t.drawn) == spec.num_frames
                  and all(np.array_equal(d, m) for d, m in zip(t.drawn, masks))]
            assert len(fg) == 1 and fg[0].shape_class == "rectangle"
            distractors = [t for t in tracks if t is not fg[0]]
            assert len(distractors) == 1
            for track in distractors:
                assert track.shape_class != fg[0].shape_class
                assert 1 <= len(track.drawn) < spec.num_frames
            # common object keeps one colour through the whole video
            fg_colors = np.concatenate([f[m] for f, m in zip(frames, masks)])
            assert np.all(np.abs(fg_colors - fg_colors[0]) < 1e-12)

    def test_coseg_groups_share_class(self, small_dataset):
        groups = {}
        for e in small_dataset.split("coseg"):
            groups.setdefault(e.shape_class, []).append(e)
        assert set(groups) == set(SHAPE_CLASSES)
        for cls, members in groups.items():
            assert len(members) == synthdata.COSEG_IMAGES_PER_CLASS

    def test_unwritable_out_dir_rejected(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        with pytest.raises(OSError):
            generate_dataset(blocker / "sub", seed=0, num_frames=1, canvas=32)

    def test_loaded_frames_in_range(self, small_dataset):
        entry = small_dataset.split("train")[0]
        frames, masks = load_video(small_dataset, entry)
        assert frames.dtype == np.uint8 and frames.shape == (entry.num_frames, 32, 32, 3)
        assert masks.dtype == bool and masks.shape == frames.shape[:3]

    def test_load_video_matches_per_file_decode_oracle(self, small_dataset):
        for entry in small_dataset.split("train")[:2] + small_dataset.split("coseg")[:1]:
            vdir = small_dataset.video_dir(entry)
            want_frames = oracles.read_pnm_file_loops((vdir / "frames.ppm").read_bytes(), b"P6", 3)
            want_masks = oracles.read_pnm_file_loops((vdir / "masks.pgm").read_bytes(), b"P5", 1)
            want_masks = want_masks >= 128
            frames, masks = load_video(small_dataset, entry)
            assert frames.dtype == np.uint8 and masks.dtype == bool
            for got, want in ((frames, want_frames), (masks, want_masks)):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()

    def test_load_video_is_the_per_file_decode_and_encode_divides_it(self, small_dataset):
        params = init_encoder(EncoderConfig(channels=4, downsample=4), 0)
        for entry in [small_dataset.split(s)[0] for s in ("train", "test", "coseg")]:
            vdir = small_dataset.video_dir(entry)
            decoded = oracles.read_pnm_file_loops((vdir / "frames.ppm").read_bytes(), b"P6", 3)
            decoded_masks = oracles.read_pnm_file_loops((vdir / "masks.pgm").read_bytes(), b"P5", 1)
            frames, masks = load_video(small_dataset, entry)
            assert frames.dtype == np.uint8 and masks.dtype == bool
            assert frames.tobytes() == decoded.tobytes()
            assert masks.tobytes() == (decoded_masks >= 128).tobytes()
            # encode scales the uint8 rows to the float frames load_video used to return
            for t in (0, entry.num_frames - 1):
                scaled = decoded[t].astype(float) / 255.0
                assert encode(frames[t], params).data.tobytes() == encode(scaled, params).data.tobytes()

    def test_one_image_coseg_video_is_fresh_and_writable(self, small_dataset):
        frames, masks = load_video(small_dataset, small_dataset.split("coseg")[0])
        assert frames.shape == (1, 32, 32, 3) and masks.shape == (1, 32, 32)
        for arr in (frames, masks):
            assert arr.flags.c_contiguous and arr.flags.writeable and arr.flags.owndata

    @pytest.mark.parametrize("name, index", [("frames.ppm", 2), ("masks.pgm", 3),
                                             ("masks.pgm", None)],
                             ids=["frames.ppm-2", "masks.pgm-3", "masks.pgm-all"])
    def test_image_of_another_size_named(self, small_dataset, tmp_path, name, index):
        # a bad image inside a file, then a mask file whose every image is off
        entry = small_dataset.split("train")[0]
        root = tmp_path / "data"
        shutil.copytree(small_dataset.video_dir(entry), root / entry.split / entry.video_id)
        victim = root / entry.split / entry.video_id / name
        manifest = type(small_dataset)(root, [entry])
        if name == "frames.ppm":
            stack = pnm.read_ppm(victim)
            images = [stack[t] for t in range(len(stack))]
            images[index] = np.zeros((16, 32, 3), dtype=np.uint8)
        else:
            stack = pnm.read_pgm(victim)
            images = [stack[t] for t in range(len(stack))]
            for t in range(len(images)) if index is None else [index]:
                images[t] = np.zeros((16, 32), dtype=bool)
        write = pnm.write_ppm if name == "frames.ppm" else pnm.write_pgm
        parts = []
        for image in images:
            write(victim, image[None])
            parts.append(victim.read_bytes())
        victim.write_bytes(b"".join(parts))
        with pytest.raises(FormatError) as info:
            load_video(manifest, entry)
        assert info.value.path == victim
        if index is None:
            assert info.value.offset == 0
            assert "size 32x16 differs from 32x32" in str(info.value)
        else:
            assert info.value.offset == sum(len(part) for part in parts[:index])
            assert f"image {index} size 32x16 differs from 32x32" in str(info.value)

    @pytest.mark.parametrize("name", ["frames.ppm", "masks.pgm"])
    @pytest.mark.parametrize("count", [5, 7])
    def test_image_count_other_than_the_manifest_named(self, small_dataset, tmp_path, name,
                                                       count):
        frames, masks = load_video(small_dataset, small_dataset.split("train")[0])
        manifest, entry = _manifest_of(tmp_path, frames, masks)
        victim = manifest.video_dir(entry) / name
        if name == "frames.ppm":
            pnm.write_ppm(victim, np.concatenate([frames, frames])[:count])
        else:
            pnm.write_pgm(victim, np.concatenate([masks, masks])[:count])
        with pytest.raises(FormatError) as info:
            load_video(manifest, entry)
        assert (info.value.path, info.value.offset) == (victim, 0)
        assert f"{count} images, but the manifest gives 6 frames" in str(info.value)

    def test_negative_seed_rejected_before_anything_is_made(self, tmp_path):
        out = tmp_path / "data"
        with pytest.raises(FieldError) as info:
            generate_dataset(out, seed=-1, num_frames=1, canvas=32)
        assert info.value.field == "seed"
        assert not out.exists()


class TestStaticScene:
    def test_deterministic_and_nonempty(self):
        f1, m1, c1 = render_static_scene(32, seed=4)
        f2, m2, c2 = render_static_scene(32, seed=4)
        assert f1.tobytes() == f2.tobytes() and c1 == c2
        assert m1.sum() > 0

    @pytest.mark.parametrize("seed", sorted(STATIC_SCENE_32))
    def test_bytes_match_the_pinned_digest(self, seed):
        frame, mask, cls = render_static_scene(32, seed=seed)
        digest = hashlib.sha256()
        for part in (frame.tobytes(), mask.tobytes(), cls.encode()):
            digest.update(part)
        assert digest.hexdigest() == STATIC_SCENE_32[seed]

    def test_class_override(self):
        _, _, cls = render_static_scene(32, seed=1, shape_class="triangle")
        assert cls == "triangle"


class TestSampleTrainingClip:
    def test_full_length_returns_all(self):
        frames = list(range(5))
        assert sample_training_clip(frames, 5, np.random.default_rng(0)) == frames

    def test_forced_segmentation(self):
        frames = list(range(9))
        for seed in range(20):
            picked = sample_training_clip(frames, 3, np.random.default_rng(seed))
            assert picked[0] in {0, 1, 2}
            assert picked[1] in {3, 4, 5}
            assert picked[2] in {6, 7, 8}
            assert picked == sorted(picked)

    def test_remainder_spread_over_leading_segments(self):
        # 7 frames over 3 segments -> sizes 3, 2, 2
        frames = list(range(7))
        for seed in range(20):
            picked = sample_training_clip(frames, 3, np.random.default_rng(seed))
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
            sample_training_clip([1, 2], 3, np.random.default_rng(0))


class TestNearEqualRuns:
    def test_group_chaining_sizes(self):
        # iocs_infer's cases: the other 6 (or 5) images at n' = 3 run as 3 groups of up to 2
        assert near_equal_runs(list(range(6)), 3) == [[0, 1], [2, 3], [4, 5]]
        assert near_equal_runs(list(range(5)), 3) == [[0, 1], [2, 3], [4]]
        # in order, and the leading runs at most one longer
        for n in range(1, 12):
            for count in range(1, n + 1):
                runs = near_equal_runs(list(range(n)), count)
                assert sum(runs, []) == list(range(n))
                sizes = [len(run) for run in runs]
                assert sizes == sorted(sizes, reverse=True) and sizes[0] - sizes[-1] <= 1


class TestDownsampleMask:
    def test_all_ones(self):
        np.testing.assert_array_equal(
            downsample_mask(np.ones((8, 8), dtype=bool), 4), np.ones((2, 2), dtype=bool)
        )

    def test_checkerboard_tie_goes_foreground(self):
        yy, xx = np.mgrid[0:4, 0:4]
        checker = (yy + xx) % 2 == 0
        np.testing.assert_array_equal(downsample_mask(checker, 2), np.ones((2, 2), dtype=bool))

    @pytest.mark.parametrize("factor", [15, 16])
    def test_full_block_votes_foreground_at_the_counter_limits(self, factor):
        # 225 votes fill a uint8 counter; 256 would wrap one to 0
        mask = np.zeros((2, factor, 2 * factor), dtype=bool)
        mask[:, :, :factor] = True
        want = np.array([[[True, False]]] * 2)
        np.testing.assert_array_equal(downsample_mask(mask, factor), want)

    @pytest.mark.parametrize("factor", [2, 4, 8])
    def test_exact_half_ties_go_foreground(self, factor):
        rng = np.random.default_rng(factor)
        half = factor * factor // 2
        blocks = np.zeros((2, factor * factor), dtype=bool)
        blocks[0, rng.permutation(factor * factor)[:half]] = True  # a tie
        blocks[1, rng.permutation(factor * factor)[:half - 1]] = True  # one vote short
        mask = np.concatenate([b.reshape(factor, factor) for b in blocks], axis=1)
        np.testing.assert_array_equal(downsample_mask(mask, factor), [[True, False]])

    @pytest.mark.parametrize("factor", [2, 4, 8, 16])
    def test_reversed_strided_view_matches_counting_oracle(self, factor):
        rng = np.random.default_rng(30 + factor)
        base = rng.uniform(size=(3, 2 * factor, 6 * factor)) < 0.5
        view = base[::-1, ::-1, ::-3]  # negative and non-unit strides
        got = downsample_mask(view, factor)
        want = np.stack([oracles.block_majority_loops(m, factor) for m in view])
        np.testing.assert_array_equal(got, want)

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
