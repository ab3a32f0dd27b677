"""Checkpoint wire format and model round trips."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agnnseg.checkpoint import read_checkpoint, write_checkpoint
from agnnseg.errors import FormatError
from agnnseg.graph import GraphConfig
from agnnseg.model import CheckpointMismatchError, init_model, load_model, save_model


def _valid_blob(tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "valid.agnn"
    write_checkpoint(path, [("a.w", np.arange(6.0).reshape(2, 3)), ("alpha", np.asarray(0.5))],
                     meta={"k_iters": 3})
    return path.read_bytes()


BOUNDARY_DIMS = (0, 1, 2**31, 2**32 - 1)


@st.composite
def checkpoint_bytes(draw, valid):
    """Random bytes, or a valid checkpoint cut short, overwritten or extended,
    or followed by a record whose dims are drawn from ``BOUNDARY_DIMS``."""
    kind = draw(st.sampled_from(["random", "cut", "overwrite", "extend", "dims"]))
    if kind == "random":
        return draw(st.one_of(st.binary(max_size=64),
                              st.binary(max_size=48).map(lambda b: b"AGNN\x01\x00\x00\x00" + b)))
    if kind == "cut":
        return valid[: draw(st.integers(0, len(valid)))]
    if kind == "extend":
        return valid + draw(st.binary(min_size=1, max_size=24))
    if kind == "dims":
        dims = draw(st.lists(st.sampled_from(BOUNDARY_DIMS), min_size=1, max_size=4))
        record = struct.pack(f"<I1s{len(dims) + 1}I", 1, b"z", len(dims), *dims)
        return valid + record + draw(st.binary(max_size=16))
    at = draw(st.integers(0, len(valid) - 1))
    patch = draw(st.binary(min_size=1, max_size=4))
    return valid[:at] + patch + valid[at + len(patch):]


class TestWireFormat:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        named = [
            ("a.w", rng.normal(size=(2, 3))),
            ("a.b", rng.normal(size=3)),
            ("alpha", np.asarray(0.25)),
        ]
        path = tmp_path / "x.agnn"
        write_checkpoint(path, named, meta={"k": 3})
        tensors, meta = read_checkpoint(path)
        assert meta == {"k": 3.0}
        for name, arr in named:
            np.testing.assert_array_equal(tensors[name], arr)

    def test_layout_bytes(self, tmp_path):
        path = tmp_path / "x.agnn"
        write_checkpoint(path, [("w", np.array([1.0, 2.0]))], {})
        blob = path.read_bytes()
        assert blob[:4] == b"AGNN"
        assert struct.unpack_from("<I", blob, 4)[0] == 1
        assert struct.unpack_from("<I", blob, 8)[0] == 1  # name length
        assert blob[12:13] == b"w"
        assert struct.unpack_from("<I", blob, 13)[0] == 1  # rank
        assert struct.unpack_from("<I", blob, 17)[0] == 2  # dim
        assert np.frombuffer(blob, dtype="<f8", count=2, offset=21).tolist() == [1.0, 2.0]
        assert len(blob) == 21 + 16

    def test_scalar_record_is_rank_zero(self, tmp_path):
        path = tmp_path / "s.agnn"
        write_checkpoint(path, [("alpha", np.asarray(1.5))], {})
        blob = path.read_bytes()
        name_len = struct.unpack_from("<I", blob, 8)[0]
        rank = struct.unpack_from("<I", blob, 12 + name_len)[0]
        assert rank == 0

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.agnn"
        path.write_bytes(b"NOPE" + b"\x00" * 8)
        with pytest.raises(ValueError, match="magic"):
            read_checkpoint(path)

    def test_dims_whose_product_overflows_int64_rejected(self, tmp_path):
        path = tmp_path / "huge.agnn"
        # version 1, a one-byte name, rank 4, each dim 2**16: 2**64 elements
        header = b"AGNN" + struct.pack("<2I", 1, 1) + b"w" + struct.pack("<I", 4)
        path.write_bytes(header + struct.pack("<4I", *[2**16] * 4) + b"\x00" * 8)
        with pytest.raises(FormatError, match="truncated payload"):
            read_checkpoint(path)

    @pytest.mark.parametrize("dims", [(0, 2**32 - 1, 2**32 - 1), (0, 0, 1071644672, 12), (2, 0)])
    def test_zero_dim_rejected_at_that_dim(self, tmp_path, dims):
        path = tmp_path / "zero.agnn"
        # version 1, a one-byte name, the rank at byte 13 and the dims after it
        header = b"AGNN" + struct.pack("<2I", 1, 1) + b"w" + struct.pack("<I", len(dims))
        path.write_bytes(header + struct.pack(f"<{len(dims)}I", *dims))
        offset = 17 + 4 * dims.index(0)
        with pytest.raises(FormatError, match=f"'w' has a zero dim at byte {offset}$"):
            read_checkpoint(path)

    def test_truncated_payload_reports_position(self, tmp_path):
        path = tmp_path / "t.agnn"
        write_checkpoint(path, [("w", np.ones(4))], {})
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(ValueError, match="truncated payload"):
            read_checkpoint(path)


    def test_meta_record_of_rank_one_rejected(self, tmp_path):
        path = tmp_path / "m.agnn"
        write_checkpoint(path, [("meta.k_iters", np.array([3.0, 3.0]))], {})
        # magic, version, name length, 12-byte name: the rank word is at byte 24
        with pytest.raises(FormatError, match="meta record 'meta.k_iters' has rank 1.*byte 24"):
            read_checkpoint(path)

    @pytest.mark.parametrize("named, meta, name, offset", [
        # magic and version, then a 29-byte record: length, "w", rank, dim, two floats
        ([("w", np.ones(2)), ("w", np.zeros(2))], {}, "w", 8 + 29),
        # a 28-byte rank-0 record: length, "meta.k_iters", rank, one float
        ([("meta.k_iters", np.asarray(2.0))], {"k_iters": 3}, "meta.k_iters", 8 + 28),
    ], ids=["tensor", "meta"])
    def test_duplicate_record_rejected_at_the_second(self, tmp_path, named, meta, name, offset):
        path = tmp_path / "dup.agnn"
        write_checkpoint(path, named, meta)
        with pytest.raises(FormatError, match=f"duplicate record '{name}' at byte {offset}$"):
            read_checkpoint(path)

    def test_any_bytes_give_records_or_format_error(self, tmp_path_factory):
        valid = _valid_blob(tmp_path_factory)
        path = tmp_path_factory.mktemp("fuzz") / "blob.agnn"

        @given(blob=checkpoint_bytes(valid))
        @settings(max_examples=400, deadline=None)
        def check(blob):
            path.write_bytes(blob)
            try:
                tensors, meta = read_checkpoint(path)
            except FormatError as exc:
                assert exc.path == path and 0 <= exc.offset <= len(blob)
            else:
                assert all(a.dtype == np.float64 for a in tensors.values())
                assert all(isinstance(v, float) for v in meta.values())

        check()


class TestModelRoundTrip:
    def test_save_load_bit_identical(self, tmp_path):
        params = init_model(channels=6, downsample=4, seed=9, graph=GraphConfig(k_iters=2))
        path = tmp_path / "m.agnn"
        save_model(path, params)
        loaded = load_model(path)
        assert loaded.attention.config == GraphConfig(k_iters=2)
        assert loaded.channels == 6
        for (name_a, a), (name_b, b) in zip(params.named_tensors(), loaded.named_tensors()):
            assert name_a == name_b
            assert a.data.tobytes() == b.data.tobytes()

    def test_ungated_config_round_trips(self, tmp_path):
        graph = GraphConfig(k_iters=2, gated=False)
        path = tmp_path / "ungated.agnn"
        save_model(path, init_model(channels=4, downsample=4, seed=0, graph=graph))
        assert load_model(path).attention.config == graph
        assert read_checkpoint(path)[1] == {"channels": 4.0, "downsample": 4.0,
                                            "k_iters": 2.0, "gated": 0.0}

    def test_missing_tensor_rejected(self, tmp_path):
        params = init_model(channels=4, downsample=4, seed=0)
        named = [(n, t.data) for n, t in params.named_tensors()][:-1]
        from agnnseg.checkpoint import write_checkpoint as wc

        path = tmp_path / "broken.agnn"
        wc(path, named, meta={"channels": 4, "downsample": 4, "k_iters": 3, "gated": 1})
        with pytest.raises(CheckpointMismatchError, match="missing tensors"):
            load_model(path)

    def test_missing_meta_rejected(self, tmp_path):
        params = init_model(channels=4, downsample=4, seed=0)
        from agnnseg.checkpoint import write_checkpoint as wc

        path = tmp_path / "nometa.agnn"
        wc(path, [(n, t.data) for n, t in params.named_tensors()], {})
        with pytest.raises(CheckpointMismatchError, match="meta"):
            load_model(path)

    def test_write_is_deterministic(self, tmp_path):
        params = init_model(channels=5, downsample=8, seed=3)
        save_model(tmp_path / "a.agnn", params)
        save_model(tmp_path / "b.agnn", params)
        assert (tmp_path / "a.agnn").read_bytes() == (tmp_path / "b.agnn").read_bytes()

    @pytest.mark.parametrize("key, value", [
        ("channels", float("nan")),
        ("k_iters", -1),
        ("k_iters", 2.5),
        ("downsample", float("inf")),
        ("channels", 0),
        ("gated", None),
        ("gated", 0.5),
        ("gated", 2),
    ])
    def test_meta_that_is_not_a_whole_number_from_one_rejected(self, tmp_path, key, value):
        # meta.gated is 0 or 1; None leaves the record out
        params = init_model(channels=4, downsample=4, seed=0)
        meta = {"channels": 4, "downsample": 4, "k_iters": 3, "gated": 1, key: value}
        if value is None:
            del meta[key]
        path = tmp_path / "badmeta.agnn"
        write_checkpoint(path, [(n, t.data) for n, t in params.named_tensors()], meta=meta)
        message = f"missing meta.{key} record" if value is None else f"meta.{key} is {float(value)}"
        with pytest.raises(CheckpointMismatchError, match=message):
            load_model(path)
