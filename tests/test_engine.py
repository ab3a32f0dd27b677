"""Forward contracts, backward correctness, and tape behaviour of the engine."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agnnseg import engine
from agnnseg.engine import (
    NonFiniteError,
    Tape,
    Tensor,
    apply,
    backward,
    grad_check,
    replay,
)

import oracles


def t(arr):
    return Tensor(np.asarray(arr, dtype=float))


class TestTensor:
    def test_rank_limit(self):
        with pytest.raises(ValueError, match="rank"):
            Tensor(np.zeros((2, 2, 2, 2, 2)))

    def test_zero_dim_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            Tensor(np.zeros((2, 0)))

    def test_nonfinite_rejected(self):
        with pytest.raises(NonFiniteError):
            Tensor(np.array([1.0, np.nan]))
        with pytest.raises(NonFiniteError):
            Tensor(np.array([np.inf]))

    def test_scalar_allowed(self):
        assert Tensor(3.0).shape == ()

    def test_finite_values_whose_sum_overflows_accepted(self):
        big = np.full(4, 1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            np.testing.assert_array_equal(Tensor(big).data, big)
            np.testing.assert_array_equal(apply("relu", [Tensor(big)]).data, big)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_among_huge_values_rejected(self, bad):
        arr = np.full(4, 1e308)
        arr[2] = bad
        with pytest.raises(NonFiniteError):
            Tensor(arr)
        x = Tensor(np.full(4, 1e308))
        x.data[2] = bad  # mutate after construction to reach the apply check
        with pytest.raises(NonFiniteError):
            apply("relu", [x])


class TestForwardContracts:
    def test_row_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            a = rng.normal(size=(rng.integers(1, 6), rng.integers(2, 6)))
            out = apply("row_softmax", [t(a)]).data
            np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)
            assert np.all(out > 0) and np.all(out < 1)

    def test_row_softmax_single_column_is_one(self):
        out = apply("row_softmax", [t(np.array([[3.7], [-2.0]]))]).data
        np.testing.assert_array_equal(out, np.ones((2, 1)))

    def test_identity_conv(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(4, 5, 3))
        eye = np.eye(3).reshape(1, 1, 3, 3)
        out = apply("conv2d", [t(x), t(eye), t(np.zeros(3))], {"stride": 1}).data
        np.testing.assert_array_equal(out, x)

    def test_conv_matches_loop_oracle(self):
        rng = np.random.default_rng(2)
        for stride in (1, 2):
            for k in (1, 3):
                x = rng.normal(size=(6, 4, 2))
                w = rng.normal(size=(k, k, 2, 3))
                b = rng.normal(size=3)
                got = apply("conv2d", [t(x), t(w), t(b)], {"stride": stride}).data
                want = oracles.conv2d_loops(x, w, b, stride)
                np.testing.assert_allclose(got, want, atol=1e-12)

    def test_conv_ceil_sizing(self):
        # stride-2 conv on odd input keeps ceil(n / 2) positions
        x = t(np.ones((5, 5, 1)))
        w = t(np.ones((3, 3, 1, 1)))
        assert apply("conv2d", [x, w], {"stride": 2}).shape == (3, 3, 1)

    def test_conv_shape_mismatch(self):
        with pytest.raises(ValueError, match="channel"):
            apply("conv2d", [t(np.zeros((4, 4, 2))), t(np.zeros((3, 3, 3, 1)))])

    @pytest.mark.parametrize(
        "w_shape, b_shape, stride, match",
        [
            ((2, 2, 2, 1), None, 1, "kernel size 2x2"),
            ((3, 3, 2, 1), None, 3, "stride 3"),
            ((1, 1, 3, 1), None, 1, "channel mismatch"),
            ((3, 3, 2, 4), (3,), 2, "bias shape"),
            ((1, 1, 2, 4), (3,), 1, "bias shape"),
        ],
    )
    def test_conv_rejections(self, w_shape, b_shape, stride, match):
        inputs = [t(np.zeros((4, 4, 2))), t(np.zeros(w_shape))]
        if b_shape is not None:
            inputs.append(t(np.zeros(b_shape)))
        with pytest.raises(ValueError, match=match):
            apply("conv2d", inputs, {"stride": stride})

    def test_matmul_matches_loop_oracle(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        got = apply("matmul", [t(a), t(b)]).data
        np.testing.assert_allclose(got, oracles.matmul_loops(a, b), atol=1e-12)

    def test_matmul_inner_dim_error(self):
        with pytest.raises(ValueError, match=r"\(3, 4\)"):
            apply("matmul", [t(np.zeros((3, 4))), t(np.zeros((3, 2)))])

    def test_gap_constant_channel_exact(self):
        x = np.empty((7, 5, 2))
        x[:, :, 0] = 0.1
        x[:, :, 1] = -3.7
        out = apply("global_avg_pool", [t(x)]).data
        assert out[0] == 0.1 and out[1] == -3.7

    def test_gap_is_mean(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(3, 4, 5))
        out = apply("global_avg_pool", [t(x)]).data
        np.testing.assert_allclose(out, x.mean(axis=(0, 1)), atol=1e-14)

    def test_mul_scalar_broadcast(self):
        x = t(np.arange(6.0).reshape(2, 3))
        out = apply("mul", [x, t(2.0)]).data
        np.testing.assert_array_equal(out, 2.0 * x.data)

    def test_add_shape_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            apply("add", [t(np.zeros((2, 2))), t(np.zeros((2, 3)))])

    def test_nonfinite_input_rejected(self):
        x = t(np.ones((2, 2)))
        x.data[0, 0] = np.nan  # mutate after construction to bypass ctor check
        with pytest.raises(NonFiniteError):
            apply("relu", [x])

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown op kind"):
            apply("frobnicate", [t(1.0)])

    def test_reshape_count_mismatch(self):
        with pytest.raises(ValueError, match="reshape"):
            apply("reshape", [t(np.zeros((2, 3)))], {"shape": (7,)})

    def test_weighted_bce_binary_target_required(self):
        with pytest.raises(ValueError, match="binary"):
            apply("weighted_bce", [t(np.full((2, 2), 0.5))], {"target": np.full((2, 2), 0.5), "eta": 0.5})


@st.composite
def conv_cases(draw):
    k = draw(st.sampled_from((1, 3)))
    stride = draw(st.sampled_from((1, 2, 4)))
    h, w, c_in, c_out = (draw(st.integers(1, hi)) for hi in (9, 9, 5, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        x = rng.normal(size=(h, w, c_in))
    else:
        x = rng.normal(size=(w, h, c_in)).transpose(1, 0, 2)  # non-contiguous view
    kernel = rng.normal(size=(k, k, c_in, c_out))
    bias = rng.normal(size=c_out) if draw(st.booleans()) else None
    return x, kernel, bias, stride


class TestConvProperties:
    @settings(max_examples=150, deadline=None)
    @given(conv_cases())
    def test_forward_matches_loop_oracle(self, case):
        x, w, b, stride = case
        inputs = [t(x), t(w)] + ([] if b is None else [t(b)])
        got = apply("conv2d", inputs, {"stride": stride}).data
        np.testing.assert_allclose(got, oracles.conv2d_loops(x, w, b, stride), rtol=0, atol=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(conv_cases())
    def test_vjp_is_the_adjoint(self, case):
        # conv is bilinear: <g, conv(x, w)> = <g_x, x> = <g_w, w>
        x, w, _, stride = case
        xt, wt = t(x), t(w)
        with Tape() as tape:
            y = apply("conv2d", [xt, wt], {"stride": stride}).data
        g = np.random.default_rng(0).normal(size=y.shape)
        grads = backward(tape, g)
        # every product term bounded in magnitude: the rounding scale
        scale = np.sum(np.abs(g) * oracles.conv2d_loops(np.abs(x), np.abs(w), None, stride))
        forward = np.sum(g * y)
        for grad, arg in ((grads[xt], x), (grads[wt], w)):
            assert abs(np.sum(grad * arg) - forward) <= 1e-10 * scale


class TestBackwardTrivial:
    def test_identity_conv_gradient_is_one(self):
        x = t(np.random.default_rng(0).normal(size=(3, 3, 2)))
        eye = t(np.eye(2).reshape(1, 1, 2, 2))
        with Tape() as tape:
            out = apply("conv2d", [x, eye], {"stride": 1})
        grads = backward(tape, np.ones(out.shape))
        np.testing.assert_allclose(grads[x], np.ones((3, 3, 2)), atol=1e-15)

    def test_sigmoid_gradient_at_zero(self):
        x = t(0.0)
        with Tape() as tape:
            out = apply("sigmoid", [x])
        grads = backward(tape, np.ones(out.shape))
        assert grads[x] == pytest.approx(0.25, abs=1e-15)

    def test_untouched_parameter_gets_zeros(self):
        x, unused = t(np.ones(3)), t(np.ones((2, 2)))
        with Tape() as tape:
            apply("relu", [x])
        grads = backward(tape, np.ones(3))
        np.testing.assert_array_equal(grads[unused], np.zeros((2, 2)))

    def test_empty_tape_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            backward(Tape(), np.ones(1))

    def test_seed_shape_checked(self):
        with Tape() as tape:
            apply("relu", [t(np.ones((2, 3)))])
        with pytest.raises(ValueError, match="seed"):
            backward(tape, np.ones((3, 2)))


def _random_composite(rng):
    """A random chain of <= 5 ops from a (2, 2, 2) input to a scalar."""
    x = t(rng.normal(size=(2, 2, 2)))
    w = t(rng.normal(size=(1, 1, 2, 2)))
    v = t(rng.normal(size=2))

    def fn(x_, w_, v_):
        y = engine.conv2d(x_, w_)
        y = engine.tanh(y)
        y = engine.channel_broadcast_mul(y, v_)
        p = engine.global_avg_pool(y)
        s = engine.reshape(p, (1, 2))
        return engine.reshape(engine.matmul(s, engine.transpose(s)), ())

    return fn, [x, w, v]


class TestGradCheck:
    def test_constant_function(self):
        x = t(np.random.default_rng(0).normal(size=(2, 2)))
        report = grad_check(_sum_to_scalar_zero, [x])
        assert report.max_rel_err == 0.0

    def test_composites_match_finite_differences(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            fn, inputs = _random_composite(rng)
            report = grad_check(fn, inputs, eps=1e-5)
            assert report.max_rel_err < 1e-6, str(report)

    def test_each_op_kind_against_finite_differences(self):
        rng = np.random.default_rng(11)
        for trial in range(100):
            kind = engine.op_kinds()[trial % len(engine.op_kinds())]
            fn, inputs = _scalarized_op(kind, rng)
            report = grad_check(fn, inputs, eps=1e-5)
            assert report.max_rel_err < 1e-6, f"{kind}: {report}"

    def test_non_scalar_rejected(self):
        x = t(np.ones((2, 2)))
        with pytest.raises(ValueError, match="scalar"):
            grad_check(lambda a: engine.relu(a), [x])

    def test_bad_eps_rejected(self):
        with pytest.raises(ValueError, match="eps"):
            grad_check(lambda a: a, [t(1.0)], eps=0.0)


def _sum_to_scalar_zero(a):
    z = engine.scalar_scale(a, 0.0)
    flat = engine.reshape(z, (1, a.size))
    return engine.reshape(engine.matmul(flat, engine.transpose(flat)), ())


def _sum_all(x):
    """Differentiable reduction of any tensor to a scalar (for FD tests)."""
    flat = engine.reshape(x, (1, x.size))
    ones = Tensor(np.ones((x.size, 1)))
    return engine.reshape(engine.matmul(flat, ones), ())


def _scalarized_op(kind, rng):
    """Wrap one op kind into a scalar-valued function of random inputs."""
    if kind == "conv2d":
        x = t(rng.normal(size=(4, 3, 2)))
        w = t(rng.normal(size=(3, 3, 2, 2)))
        b = t(rng.normal(size=2))
        stride = int(rng.choice([1, 2]))
        return (lambda x_, w_, b_: _sum_all(engine.tanh(engine.conv2d(x_, w_, b_, stride=stride)))), [x, w, b]
    if kind == "matmul":
        a, b = t(rng.normal(size=(3, 4))), t(rng.normal(size=(4, 2)))
        return (lambda a_, b_: _sum_all(engine.tanh(engine.matmul(a_, b_)))), [a, b]
    if kind == "transpose":
        a = t(rng.normal(size=(3, 2)))
        return (lambda a_: _sum_all(engine.tanh(engine.transpose(a_)))), [a]
    if kind == "row_softmax":
        a = t(rng.normal(size=(3, 4)))
        return (lambda a_: _sum_all(engine.tanh(engine.row_softmax(a_)))), [a]
    if kind == "sigmoid":
        x = t(rng.normal(size=(2, 3)))
        return (lambda x_: _sum_all(engine.sigmoid(x_))), [x]
    if kind == "tanh":
        x = t(rng.normal(size=(2, 3)))
        return (lambda x_: _sum_all(engine.tanh(x_))), [x]
    if kind == "relu":
        # keep coordinates away from the kink at zero
        x = t(np.sign(rng.normal(size=(2, 3))) * rng.uniform(0.05, 1.0, size=(2, 3)))
        return (lambda x_: _sum_all(engine.relu(x_))), [x]
    if kind == "global_avg_pool":
        x = t(rng.normal(size=(3, 2, 4)))
        return (lambda x_: _sum_all(engine.tanh(engine.global_avg_pool(x_)))), [x]
    if kind == "add":
        a, b = t(rng.normal(size=(2, 2))), t(rng.normal(size=(2, 2)))
        return (lambda a_, b_: _sum_all(engine.tanh(engine.add(a_, b_)))), [a, b]
    if kind == "mul":
        a, b = t(rng.normal(size=(2, 2))), t(rng.normal())
        return (lambda a_, b_: _sum_all(engine.tanh(engine.mul(a_, b_)))), [a, b]
    if kind == "channel_broadcast_mul":
        x, v = t(rng.normal(size=(2, 3, 2))), t(rng.normal(size=2))
        return (lambda x_, v_: _sum_all(engine.tanh(engine.channel_broadcast_mul(x_, v_)))), [x, v]
    if kind == "concat_channels":
        a, b = t(rng.normal(size=(2, 2, 1))), t(rng.normal(size=(2, 2, 2)))
        return (lambda a_, b_: _sum_all(engine.tanh(engine.concat_channels(a_, b_)))), [a, b]
    if kind == "scalar_scale":
        x = t(rng.normal(size=(2, 2)))
        return (lambda x_: _sum_all(engine.scalar_scale(x_, -1.7))), [x]
    if kind == "reshape":
        x = t(rng.normal(size=(2, 3)))
        return (lambda x_: _sum_all(engine.tanh(engine.reshape(x_, (3, 2))))), [x]
    if kind == "weighted_bce":
        target = (rng.uniform(size=(3, 3)) > 0.5).astype(float)
        pred = t(rng.uniform(0.05, 0.95, size=(3, 3)))
        return (lambda p_: engine.weighted_bce(p_, target, eta=0.3)), [pred]
    raise AssertionError(f"no scalarization for {kind}")


class TestTapeReplay:
    def test_replay_is_bit_identical(self):
        rng = np.random.default_rng(5)
        fn, inputs = _random_composite(rng)
        with Tape() as tape:
            out = fn(*inputs)
        recomputed = replay(tape)
        assert recomputed[tape.output_id()].tobytes() == out.data.tobytes()

    def test_same_inputs_twice_bit_identical(self):
        rng = np.random.default_rng(6)
        fn, inputs = _random_composite(rng)
        a = fn(*inputs).data.tobytes()
        b = fn(*inputs).data.tobytes()
        assert a == b

    def test_missing_record_rejected(self):
        x = t(np.ones((2, 2)))
        with Tape() as tape:
            apply("relu", [x])
        del tape.leaf_values[x.id]
        with pytest.raises(ValueError, match="no recorded value"):
            replay(tape)

    def test_nested_tapes_record_independently(self):
        x = t(np.ones(2))
        with Tape() as outer:
            apply("relu", [x])
            with Tape() as inner:
                apply("tanh", [x])
            apply("sigmoid", [x])
        assert [r.kind for r in outer.records] == ["relu", "sigmoid"]
        assert [r.kind for r in inner.records] == ["tanh"]
