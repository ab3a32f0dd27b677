"""Readout, the weighted_bce loss values and gradients, the auxiliary static head
and the batch mean of losses."""

import math

import numpy as np
import pytest

from agnnseg.engine import Tape, Tensor, backward, weighted_bce
from agnnseg.head import (
    AuxParams,
    ReadoutParams,
    aux_static_predict,
    init_aux,
    init_readout,
    mean_loss,
    readout,
)

import oracles


def t(arr):
    return Tensor(np.asarray(arr, dtype=float))


def zero_readout(c):
    return ReadoutParams(
        conv1_w=t(np.zeros((3, 3, 2 * c, c))),
        conv1_b=t(np.zeros(c)),
        conv2_w=t(np.zeros((3, 3, c, c))),
        conv2_b=t(np.zeros(c)),
        proj_w=t(np.zeros((1, 1, c, 1))),
        proj_b=t(np.zeros(1)),
    )


class TestReadout:
    def test_zero_weights_give_half(self):
        rng = np.random.default_rng(0)
        h = t(rng.normal(size=(4, 4, 3)))
        v = t(rng.normal(size=(4, 4, 3)))
        out = readout(h, v, zero_readout(3)).data
        np.testing.assert_array_equal(out, np.full((4, 4), 0.5))

    def test_output_bounds(self):
        rng = np.random.default_rng(1)
        params = init_readout(8, 0)
        for _ in range(10):
            h = t(rng.normal(size=(4, 4, 8)) * 10)
            v = t(rng.normal(size=(4, 4, 8)) * 10)
            out = readout(h, v, params).data
            assert out.min() >= 0.0 and out.max() <= 1.0

    def test_matches_conv_stack_oracle(self):
        rng = np.random.default_rng(2)
        params = init_readout(8, 3)
        h = rng.normal(size=(4, 4, 8))
        v = rng.normal(size=(4, 4, 8))
        got = readout(t(h), t(v), params).data
        x = np.concatenate([h, v], axis=2)
        x = np.maximum(oracles.conv2d_loops(x, params.conv1_w.data, params.conv1_b.data), 0.0)
        x = np.maximum(oracles.conv2d_loops(x, params.conv2_w.data, params.conv2_b.data), 0.0)
        logits = oracles.conv1x1_loops(x, params.proj_w.data, params.proj_b.data)[:, :, 0]
        want = 1.0 / (1.0 + np.exp(-logits))
        np.testing.assert_allclose(got, want, atol=1e-9)

    def test_shape_mismatch_rejected(self):
        params = init_readout(4, 0)
        with pytest.raises(ValueError, match="differ"):
            readout(t(np.zeros((4, 4, 4))), t(np.zeros((3, 3, 4))), params)


class TestWeightedBce:
    def test_perfect_prediction_is_near_zero(self):
        s = np.zeros((4, 4))
        s[1:3, 1:3] = 1.0
        loss = float(weighted_bce(t(s.copy()), s).data)
        assert 0.0 <= loss <= 16 * 1e-11

    def test_half_foreground_half_confidence(self):
        # 2x2 mask with 2 foreground pixels (eta 0.5), uniform 0.5 prediction
        s = np.array([[1.0, 0.0], [0.0, 1.0]])
        loss = float(weighted_bce(t(np.full((2, 2), 0.5)), s).data)
        assert loss == pytest.approx(2.0 * math.log(2.0), abs=1e-9)

    def test_all_background_clamped_eta(self):
        # eta clamps to 1/16, so 16 background pixels give 16 * (1/16) * ln 2
        s = np.zeros((4, 4))
        loss = float(weighted_bce(t(np.full((4, 4), 0.5)), s).data)
        assert loss == pytest.approx(math.log(2.0), abs=1e-9)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            s = (rng.uniform(size=(3, 5)) > 0.6).astype(float)
            pred = rng.uniform(0.01, 0.99, size=(3, 5))
            loss = float(weighted_bce(t(pred), s).data)
            assert loss == pytest.approx(oracles.weighted_bce_loops(s, pred), abs=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            s = (rng.uniform(size=(4, 4)) > 0.5).astype(float)
            assert float(weighted_bce(t(rng.uniform(0.0, 1.0, size=(4, 4))), s).data) >= 0.0

    def test_nonbinary_target_rejected(self):
        with pytest.raises(ValueError, match="binary"):
            weighted_bce(t(np.full((2, 2), 0.5)), np.full((2, 2), 0.3))

    def test_eta_computed_from_target_only(self):
        # 4 of 20 pixels are foreground: eta 0.2 whatever the prediction
        s = np.zeros((5, 4))
        s[0, :] = 1.0
        for p in (0.3, 0.7):
            loss = float(weighted_bce(t(np.full((5, 4), p)), s).data)
            want = -(0.8 * 4 * math.log(p) + 0.2 * 16 * math.log(1.0 - p))
            assert loss == pytest.approx(want, rel=1e-12)

    def test_bool_target_gives_the_float_target_bytes(self):
        rng = np.random.default_rng(7)
        s = rng.uniform(size=(4, 4)) > 0.5
        pred = t(rng.uniform(0.05, 0.95, size=(4, 4)))
        as_bool = weighted_bce(pred, s).data
        assert as_bool.tobytes() == weighted_bce(pred, s.astype(float)).data.tobytes()

    def test_gradient_matches_closed_form(self):
        rng = np.random.default_rng(5)
        s = (rng.uniform(size=(4, 4)) > 0.5).astype(float)
        pred = t(rng.uniform(0.05, 0.95, size=(4, 4)))
        with Tape() as tape:
            weighted_bce(pred, s)
        grads = backward(tape, np.ones(()))
        eta = oracles.foreground_ratio_loops(s)
        want = -(1.0 - eta) * s / pred.data + eta * (1.0 - s) / (1.0 - pred.data)
        np.testing.assert_allclose(grads[pred], want, atol=1e-9)

    def test_foreground_ratio_clamp(self):
        # an all-background and an all-foreground mask clamp eta to 1/16 and
        # 15/16, so a 0.5 prediction costs ln 2 either way, not 0
        for s in (np.zeros((4, 4)), np.ones((4, 4))):
            loss = float(weighted_bce(t(np.full((4, 4), 0.5)), s).data)
            assert loss == pytest.approx(math.log(2.0), abs=1e-9)


class TestAuxHead:
    def test_zero_weights_give_half(self):
        params = AuxParams(w=t(np.zeros((1, 1, 4, 1))), b=t(np.zeros(1)))
        out = aux_static_predict(t(np.random.default_rng(0).normal(size=(3, 3, 4))), params).data
        np.testing.assert_array_equal(out, np.full((3, 3), 0.5))

    def test_bounds(self):
        params = init_aux(4, 1)
        rng = np.random.default_rng(2)
        out = aux_static_predict(t(rng.normal(size=(5, 5, 4)) * 20), params).data
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_matches_affine_sigmoid_oracle(self):
        rng = np.random.default_rng(3)
        params = init_aux(3, 4)
        v = rng.normal(size=(4, 4, 3))
        got = aux_static_predict(t(v), params).data
        logits = oracles.conv1x1_loops(v, params.w.data, params.b.data)[:, :, 0]
        want = 1.0 / (1.0 + np.exp(-logits))
        np.testing.assert_allclose(got, want, atol=1e-12)


class TestMeanLoss:
    def test_mean_over_frames(self):
        rng = np.random.default_rng(6)
        losses = []
        for _ in range(3):
            s = (rng.uniform(size=(3, 3)) > 0.5).astype(float)
            losses.append(weighted_bce(t(rng.uniform(0.1, 0.9, size=(3, 3))), s))
        total = mean_loss(losses)
        want = sum(float(loss.data) for loss in losses) / 3.0
        assert float(total.data) == pytest.approx(want, rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no losses"):
            mean_loss([])
