"""Checkpoint wire format and model round trips."""

import struct

import numpy as np
import pytest

from agnnseg.checkpoint import read_checkpoint, write_checkpoint
from agnnseg.errors import FormatError
from agnnseg.model import CheckpointMismatchError, init_model, load_model, save_model


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
        write_checkpoint(path, [("w", np.array([1.0, 2.0]))])
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
        write_checkpoint(path, [("alpha", np.asarray(1.5))])
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

    def test_truncated_payload_reports_position(self, tmp_path):
        path = tmp_path / "t.agnn"
        write_checkpoint(path, [("w", np.ones(4))])
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(ValueError, match="truncated payload"):
            read_checkpoint(path)


class TestModelRoundTrip:
    def test_save_load_bit_identical(self, tmp_path):
        params = init_model(channels=6, downsample=4, seed=9)
        path = tmp_path / "m.agnn"
        save_model(path, params, k_iters=2)
        loaded, meta = load_model(path)
        assert meta["k_iters"] == 2.0
        assert meta["channels"] == 6.0
        for (name_a, a), (name_b, b) in zip(params.named_tensors(), loaded.named_tensors()):
            assert name_a == name_b
            assert a.data.tobytes() == b.data.tobytes()

    def test_missing_tensor_rejected(self, tmp_path):
        params = init_model(channels=4, downsample=4, seed=0)
        named = [(n, t.data) for n, t in params.named_tensors()][:-1]
        from agnnseg.checkpoint import write_checkpoint as wc

        path = tmp_path / "broken.agnn"
        wc(path, named, meta={"channels": 4, "downsample": 4, "k_iters": 3})
        with pytest.raises(CheckpointMismatchError, match="missing tensors"):
            load_model(path)

    def test_missing_meta_rejected(self, tmp_path):
        params = init_model(channels=4, downsample=4, seed=0)
        from agnnseg.checkpoint import write_checkpoint as wc

        path = tmp_path / "nometa.agnn"
        wc(path, [(n, t.data) for n, t in params.named_tensors()])
        with pytest.raises(CheckpointMismatchError, match="meta"):
            load_model(path)

    def test_write_is_deterministic(self, tmp_path):
        params = init_model(channels=5, downsample=8, seed=3)
        save_model(tmp_path / "a.agnn", params)
        save_model(tmp_path / "b.agnn", params)
        assert (tmp_path / "a.agnn").read_bytes() == (tmp_path / "b.agnn").read_bytes()
