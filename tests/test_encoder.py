"""Encoder contracts: shapes, determinism, and gradient flow."""

import numpy as np
import pytest

from agnnseg import engine
from agnnseg.encoder import EncoderConfig, encode, init_encoder
from agnnseg.engine import Tape, Tensor, backward
from agnnseg.engine import ops as ops_mod, tensor as tensor_mod

import oracles


def tensors_equal(p1, p2):
    return all(a.data.tobytes() == b.data.tobytes() for (_, a), (_, b) in zip(p1.named(), p2.named()))


class TestInit:
    def test_same_seed_bit_identical(self):
        cfg = EncoderConfig(channels=8, downsample=4)
        assert tensors_equal(init_encoder(cfg, 42), init_encoder(cfg, 42))

    def test_different_seeds_differ(self):
        cfg = EncoderConfig(channels=8, downsample=4)
        assert not tensors_equal(init_encoder(cfg, 1), init_encoder(cfg, 2))

    def test_invalid_downsample_rejected(self):
        with pytest.raises(ValueError, match="downsample"):
            EncoderConfig(channels=8, downsample=3)


class TestEncode:
    def test_desk_default_shape(self):
        params = init_encoder(EncoderConfig(channels=32, downsample=4), 0)
        frame = np.zeros((64, 64, 3))
        assert encode(frame, params).shape == (16, 16, 32)

    def test_reference_resolution_shape(self):
        # 473x473 at stride 8 lands on a 60x60 grid (ceil division per stage)
        params = init_encoder(EncoderConfig(channels=2, downsample=8), 0)
        out = encode(np.zeros((473, 473, 3)), params)
        assert out.shape == (60, 60, 2)

    def test_divisible_dims_divide_exactly(self):
        params = init_encoder(EncoderConfig(channels=4, downsample=8), 0)
        assert encode(np.zeros((32, 48, 3)), params).shape == (4, 6, 4)

    def test_tiny_frame_rejected(self):
        params = init_encoder(EncoderConfig(channels=4, downsample=4), 0)
        with pytest.raises(ValueError, match="smaller"):
            encode(np.zeros((2, 8, 3)), params)

    def test_out_of_range_values_rejected(self):
        params = init_encoder(EncoderConfig(channels=4, downsample=4), 0)
        with pytest.raises(ValueError, match="0, 1"):
            encode(np.full((8, 8, 3), 1.5), params)
        with pytest.raises(ValueError, match="0, 1"):
            encode(Tensor(np.full((8, 8, 3), -0.5)), params)

    def test_uint8_frame_is_the_frame_over_255(self):
        params = init_encoder(EncoderConfig(channels=4, downsample=4), 6)
        rng = np.random.default_rng(8)
        for shape in ((16, 16, 3), (12, 20, 3), (4, 4, 3)):
            u8 = rng.integers(0, 256, size=shape, dtype=np.uint8)
            u8.flat[:2] = (0, 255)
            got = encode(u8, params).data
            assert got.tobytes() == encode(u8 / 255.0, params).data.tobytes()
        # a row of a decoded stack is a view; it scales the same as a copy
        stack = rng.integers(0, 256, size=(3, 8, 8, 3), dtype=np.uint8)
        assert encode(stack[1], params).data.tobytes() == encode(stack[1] / 255.0, params).data.tobytes()

    @pytest.mark.parametrize("shape, match", [
        ((8, 8), "must be"), ((8, 8, 4), "must be"), ((8, 8, 3, 1), "must be"),
        ((2, 8, 3), "smaller"), ((8, 3, 3), "smaller"),
    ])
    def test_bad_uint8_frame_rejected(self, shape, match):
        params = init_encoder(EncoderConfig(channels=4, downsample=4), 0)
        with pytest.raises(ValueError, match=match):
            encode(np.zeros(shape, dtype=np.uint8), params)

    def test_zero_frame_matches_bias_propagation_oracle(self):
        cfg = EncoderConfig(channels=3, downsample=4)
        params = init_encoder(cfg, 5)
        # give the biases nonzero values so the bias path is exercised
        rng = np.random.default_rng(9)
        for _, tensor in params.named():
            if tensor.data.ndim == 1:
                tensor.data = rng.normal(size=tensor.data.shape)
        frame = np.zeros((8, 8, 3))
        got = encode(frame, params).data
        y = oracles.conv2d_loops(frame, params.conv1_w.data, params.conv1_b.data, stride=2)
        y = np.maximum(y, 0.0)
        y = oracles.conv2d_loops(y, params.conv2_w.data, params.conv2_b.data, stride=2)
        y = np.maximum(y, 0.0)
        y = oracles.conv2d_loops(y, params.conv3_w.data, params.conv3_b.data, stride=1)
        y = np.maximum(y, 0.0)
        want = oracles.conv2d_loops(y, params.proj_w.data, params.proj_b.data, stride=1)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_constant_frame_constant_interior(self):
        # zero padding perturbs cells whose receptive field leaves the frame,
        # so constancy is asserted on the interior of the grid only
        params = init_encoder(EncoderConfig(channels=8, downsample=4), 3)
        out = encode(np.full((64, 64, 3), 0.5), params).data
        interior = out[3:-3, 3:-3, :]
        for c in range(out.shape[2]):
            np.testing.assert_allclose(interior[:, :, c], interior[0, 0, c], atol=1e-12)

    def test_each_value_scanned_once(self, monkeypatch):
        # the frame and the 4 conv2d outputs are scanned as they become
        # tensors; relu outputs, finite whenever their input is, are not,
        # and neither are parameters and op inputs, checked when they were made
        params = init_encoder(EncoderConfig(channels=8, downsample=4), 0)
        frame = np.random.default_rng(4).uniform(size=(64, 64, 3))
        scans = []
        real = tensor_mod.all_finite
        # ops is patched too, so a scan of op inputs bound there by import is counted
        for mod in (tensor_mod, ops_mod):
            monkeypatch.setattr(mod, "all_finite", lambda arr: scans.append(arr) or real(arr),
                                raising=False)
        with Tape() as tape:
            encode(frame, params)
        conv_records = sum(rec.kind == "conv2d" for rec in tape.records)
        assert len(tape.records) == 7
        assert len(scans) == 1 + conv_records == 5

    def test_tape_saves_inputs_not_patch_matrices(self, monkeypatch):
        # each conv keeps its input for backward and rebuilds its patch
        # matrix there; each relu keeps its output, the array the next conv
        # keeps as its input, so one 64x64 encode saves no ~1.4 MB of patches
        params = init_encoder(EncoderConfig(channels=32, downsample=4), 0)
        frame = Tensor(np.random.default_rng(4).uniform(size=(64, 64, 3)))
        relu_outs = []
        real_relu = engine.relu
        monkeypatch.setattr(engine, "relu", lambda x: relu_outs.append(real_relu(x)) or relu_outs[-1])
        with Tape() as tape:
            encode(frame, params)
        saved = {id(v): v for rec in tape.records for v in rec.saved.values()
                 if isinstance(v, np.ndarray)}
        # the VJPs need the conv kernels, not the biases
        kernels = [p.data for _, p in params.named() if p.data.ndim == 4]
        want = [frame.data] + [r.data for r in relu_outs] + kernels
        assert len(relu_outs) == 3 and len(kernels) == 4
        assert saved.keys() == {id(a) for a in want}

    def test_gradients_flow_to_all_encoder_parameters(self):
        params = init_encoder(EncoderConfig(channels=3, downsample=4), 1)
        frame = Tensor(np.random.default_rng(2).uniform(size=(8, 8, 3)))
        with Tape() as tape:
            out = encode(frame, params)
            flat = engine.reshape(out, (1, out.data.size))
            ones = Tensor(np.ones((out.data.size, 1)))
            engine.reshape(engine.matmul(flat, ones), ())
        grads = backward(tape, np.ones(()))
        for name, tensor in params.named():
            assert np.any(grads[tensor] != 0.0), f"no gradient reached {name}"
