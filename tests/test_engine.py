"""Forward contracts, backward correctness, and tape behaviour of the engine."""

import itertools
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from agnnseg import engine
from agnnseg.engine import ops as ops_mod
from agnnseg.engine import (
    NonFiniteError,
    Tape,
    Tensor,
    active_tape,
    apply,
    backward,
    grad_check,
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

    def test_float32_input_becomes_float64(self):
        x = np.array([[0.1, -2.5]], dtype=np.float32)
        got = Tensor(x)
        assert type(got.data) is np.ndarray and got.data.dtype == np.float64
        np.testing.assert_array_equal(got.data, x.astype(np.float64))

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
        with pytest.raises(NonFiniteError):
            x.data = arr
        np.testing.assert_array_equal(x.data, np.full(4, 1e308))

    def test_assigned_float32_becomes_float64(self):
        x = Tensor(np.zeros((1, 2)))
        value = np.array([[0.1, -2.5]], dtype=np.float32)
        x.data = value
        assert type(x.data) is np.ndarray and x.data.dtype == np.float64
        np.testing.assert_array_equal(x.data, value.astype(np.float64))

    def test_assigned_finite_values_whose_sum_overflows_accepted(self):
        x = Tensor(np.zeros(4))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x.data = np.full(4, 1e308)
        np.testing.assert_array_equal(x.data, np.full(4, 1e308))

    def test_nonfinite_assignment_names_the_tensor(self):
        bad = np.array([1.0, np.nan])
        with pytest.raises(NonFiniteError, match="^tensor attn.alpha contains NaN or Inf$"):
            Tensor(np.zeros(2), name="attn.alpha").data = bad
        unnamed = Tensor(np.zeros(2))
        with pytest.raises(NonFiniteError, match=f"^tensor {unnamed.id} contains NaN or Inf$"):
            unnamed.data = bad


class TestForwardContracts:
    def test_row_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            a = rng.normal(size=(rng.integers(1, 6), rng.integers(2, 6)))
            out = apply("row_softmax", [t(a)]).data
            np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)
            assert np.all(out > 0) and np.all(out < 1)

    def test_row_softmax_is_exp_of_shifted_rows_over_their_sum(self):
        # the forward reuses one array for the shift, the exp and the output;
        # the bytes equal those of three separate arrays
        rng = np.random.default_rng(30)
        for _ in range(100):
            a = rng.normal(scale=20.0, size=(rng.integers(1, 40), rng.integers(1, 40)))
            e = np.exp(a - a.max(axis=1, keepdims=True))
            out = apply("row_softmax", [t(a)]).data
            assert out.tobytes() == (e / e.sum(axis=1, keepdims=True)).tobytes()

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
        # a non-finite value cannot become an op input: assignment rejects it
        x = t(np.ones((2, 2)))
        bad = np.ones((2, 2))
        bad[0, 0] = np.nan
        with pytest.raises(NonFiniteError):
            x.data = bad
        np.testing.assert_array_equal(apply("relu", [x]).data, np.ones((2, 2)))

    def test_nonfinite_output_names_the_op_kind(self):
        big = t(np.full(2, 1e200))
        with np.errstate(over="ignore"):
            with pytest.raises(NonFiniteError, match="^mul output contains NaN or Inf$"):
                engine.mul(big, t(np.full(2, 1e200)))

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown op kind"):
            apply("frobnicate", [t(1.0)])

    def test_reshape_count_mismatch(self):
        with pytest.raises(ValueError, match="reshape"):
            apply("reshape", [t(np.zeros((2, 3)))], {"shape": (7,)})

    def test_weighted_bce_binary_target_required(self):
        with pytest.raises(ValueError, match="binary"):
            apply("weighted_bce", [t(np.full((2, 2), 0.5))], {"target": np.full((2, 2), 0.5)})


# the largest and smallest magnitudes a float64 holds, and both zeros
EXTREMES = (1.7976931348623157e308, -1.7976931348623157e308, 5e-324, -5e-324, 0.0, -0.0)
finite_floats = st.one_of(
    st.sampled_from(EXTREMES), st.floats(allow_nan=False, allow_infinity=False)
)

# input shapes and attrs of one call per op kind, for the finiteness tests
OP_CALLS = {
    "conv2d": ([(3, 3, 2), (3, 3, 2, 2), (2,)], {"stride": 1}),
    "matmul": ([(2, 3), (3, 2)], {}),
    "transpose": ([(2, 3)], {}),
    "row_softmax": ([(3, 4)], {}),
    "sigmoid": ([(2, 5)], {}),
    "tanh": ([(2, 5)], {}),
    "relu": ([(2, 5)], {}),
    "global_avg_pool": ([(2, 2, 3)], {}),
    "add": ([(2, 3), (2, 3)], {}),
    "mul": ([(2, 3), (2, 3)], {}),
    "channel_broadcast_mul": ([(2, 2, 3), (3,)], {}),
    "concat_channels": ([(2, 2, 1), (2, 2, 3)], {}),
    "scalar_scale": ([(2, 3)], {"factor": 1.0}),
    "reshape": ([(2, 3)], {"shape": (3, 2)}),
    "weighted_bce": ([(3, 3)], {}),  # each test sets a target
}

# for each kind whose output is scanned: finite inputs it maps to NaN or Inf
OVERFLOWS = {
    "conv2d": ([[[[1e308]]], [[[[10.0]]]]], {"stride": 1}),
    "matmul": ([[[1e308, 1e308]], [[1.0], [1.0]]], {}),
    "global_avg_pool": ([[[[1.7e308], [1.6e308]]]], {}),
    "add": ([[1e308], [1e308]], {}),
    "mul": ([[1e200], [1e200]], {}),
    "channel_broadcast_mul": ([[[[1e308]]], [10.0]], {}),
    "scalar_scale": ([[1e308]], {"factor": 10.0}),
}

UNSCANNED = [k for k in engine.op_kinds() if ops_mod._OPS[k].keeps_finite]
SCANNED = [k for k in engine.op_kinds() if not ops_mod._OPS[k].keeps_finite]
# reshape returns its input's values, and until engine/ops.py imports math
# every reshape raises NameError, so the value tests below leave it out
UNSCANNED_RUN = [k for k in UNSCANNED if k != "reshape"]


class TestFiniteness:
    def test_scan_skipped_exactly_for_the_kinds_that_keep_finite(self):
        assert UNSCANNED == sorted([
            "concat_channels", "relu", "reshape", "row_softmax",
            "sigmoid", "tanh", "transpose", "weighted_bce",
        ])
        assert sorted(OP_CALLS) == engine.op_kinds()

    @pytest.mark.parametrize("kind", UNSCANNED_RUN)
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_unscanned_kind_maps_finite_inputs_to_finite_outputs(self, kind, data):
        shapes, attrs = OP_CALLS[kind]
        inputs = [
            t(np.reshape(data.draw(st.lists(finite_floats, min_size=n, max_size=n)), shape))
            for shape in shapes
            for n in [int(np.prod(shape))]
        ]
        if kind == "weighted_bce":
            n = int(np.prod(shapes[0]))
            target = data.draw(st.lists(st.sampled_from((0.0, 1.0)), min_size=n, max_size=n))
            attrs = {"target": np.reshape(target, shapes[0])}
        with np.errstate(over="ignore"):  # row_softmax's shift may reach -inf
            out = apply(kind, inputs, attrs)
        assert np.isfinite(out.data).all()
        assert type(out.data) is np.ndarray and out.data.dtype == np.float64

    def test_unscanned_kinds_at_the_extremes(self):
        calls = [(kind, OP_CALLS[kind][1]) for kind in UNSCANNED_RUN if kind != "weighted_bce"]
        # the all-zero and all-one targets are the two whose eta is clamped
        calls += [("weighted_bce", {"target": target})
                  for target in (np.eye(3), np.zeros((3, 3)), np.ones((3, 3)))]
        for kind, attrs in calls:
            inputs = [t(np.resize(np.array(EXTREMES), s)) for s in OP_CALLS[kind][0]]
            with np.errstate(over="ignore"):
                out = apply(kind, inputs, attrs)
            assert np.isfinite(out.data).all(), kind

    def test_every_scanned_kind_has_an_overflow_case(self):
        assert sorted(OVERFLOWS) == SCANNED

    @pytest.mark.parametrize("kind", sorted(OVERFLOWS))
    def test_scanned_kind_rejects_its_nonfinite_output(self, kind):
        arrays, attrs = OVERFLOWS[kind]
        inputs = [t(a) for a in arrays]
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteError, match=f"^{kind} output contains NaN or Inf$"):
                apply(kind, inputs, attrs)

    def test_sigmoid_shared_denominator_matches_two_denominators(self):
        rng = np.random.default_rng(40)
        xs = [rng.normal(scale=s, size=(50, 7)) for s in (1.0, 10.0, 1000.0)]
        xs.append(np.resize(np.array(EXTREMES + (709.0, -709.0, 745.0, -745.0, 36.7)), (3, 4)))
        for x in xs:
            z = np.exp(-np.abs(x))
            want = np.where(x >= 0, 1.0 / (1.0 + z), z / (1.0 + z))
            assert apply("sigmoid", [t(x)]).data.tobytes() == want.tobytes()


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


# 1x1 stride-1 kernels, which skip the padded buffer in both directions; the
# second example passes the same values as a non-contiguous view
_X11 = np.random.default_rng(21).normal(size=(5, 3, 4))
_W11 = np.random.default_rng(22).normal(size=(1, 1, 4, 2))


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
    @example((_X11, _W11, None, 1))
    @example((_X11.transpose(1, 0, 2).copy().transpose(1, 0, 2), _W11, None, 1))
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


@st.composite
def im2col_cases(draw):
    kh, kw = draw(st.sampled_from(((1, 1), (1, 3), (3, 1), (3, 3))))
    stride = draw(st.sampled_from((1, 2, 4)))
    h, w = draw(st.integers(1, 32)), draw(st.integers(1, 32))
    c_in = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        x = rng.normal(size=(h, w, c_in))
    else:
        x = rng.normal(size=(w, h, c_in)).transpose(1, 0, 2)  # non-contiguous view
    return x, kh, kw, stride


def _im2col(x, kh, kw, stride):
    h_out, w_out = (x.shape[0] - 1) // stride + 1, (x.shape[1] - 1) // stride + 1
    return ops_mod._im2col(x, kh, kw, stride, h_out, w_out)


class TestIm2col:
    @settings(max_examples=200, deadline=None)
    @given(im2col_cases())
    def test_matches_the_padded_window_loop_byte_for_byte(self, case):
        x, kh, kw, stride = case
        got = _im2col(x, kh, kw, stride)
        want = oracles.im2col_loops(x, kh, kw, stride)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert got.flags.c_contiguous

    def test_one_pixel_wide_inputs(self):
        # a reshape of the window view would overlap here; the copy may not
        rng = np.random.default_rng(23)
        for (kh, kw), stride, (h, w), transposed in itertools.product(
                ((1, 1), (1, 3), (3, 1), (3, 3)), (1, 2, 4),
                ((1, 1), (1, 7), (7, 1), (2, 1), (1, 32), (32, 1)), (False, True)):
            x = rng.normal(size=(w, h, 3)).transpose(1, 0, 2) if transposed else rng.normal(size=(h, w, 3))
            got = _im2col(x, kh, kw, stride)
            assert got.tobytes() == oracles.im2col_loops(x, kh, kw, stride).tobytes()
            assert got.flags.c_contiguous


class TestReluVjp:
    # relu saves its output; out > 0 exactly where x > 0, zeros of either
    # sign and subnormals included
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_output_mask_equals_input_mask(self, data):
        n = data.draw(st.integers(1, 12))
        x = np.array(data.draw(st.lists(finite_floats, min_size=n, max_size=n)))
        g = np.array(data.draw(st.lists(finite_floats, min_size=n, max_size=n)))
        xt = t(x)
        with Tape() as tape:
            apply("relu", [xt])
        assert backward(tape, g)[xt].tobytes() == (g * (x > 0)).tobytes()

    def test_at_the_extremes(self):
        x = np.array(EXTREMES)
        for g in (np.array(EXTREMES), -np.array(EXTREMES)[::-1], np.full(len(EXTREMES), -1.0)):
            out, saved = ops_mod._relu_forward([x], {})
            (gx,) = ops_mod._relu_vjp(g, saved, {})
            assert gx.tobytes() == (g * (x > 0)).tobytes()


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
            report = grad_check(fn, inputs)
            assert report.max_rel_err < 1e-6, str(report)

    def test_each_op_kind_against_finite_differences(self):
        rng = np.random.default_rng(11)
        for trial in range(100):
            kind = engine.op_kinds()[trial % len(engine.op_kinds())]
            fn, inputs = _scalarized_op(kind, rng)
            report = grad_check(fn, inputs)
            assert report.max_rel_err < 1e-6, f"{kind}: {report}"

    def test_kink_inside_the_step_is_re_estimated(self):
        # x[0, 0] lies 3e-6 from relu's kink: the EPS step of 1e-5 straddles
        # it, the refining steps of 1e-6 and 1e-7 do not and agree
        x = t([[3e-6, -0.5, 0.8]])
        assert engine.central_difference(_relu_sum, [x], 0, (0, 0), 1e-5) == pytest.approx(0.65)
        report = grad_check(_relu_sum, [x])
        assert report.max_rel_err < 1e-9, str(report)

    def test_refining_steps_that_disagree_keep_the_eps_estimate(self):
        # x[0, 0] lies 3e-7 from the kink: the 1e-6 step straddles it too, so
        # the two refining estimates (0.65 and 1) disagree and none is taken
        report = grad_check(_relu_sum, [t([[3e-7, 0.8]])])
        assert report.worst_coord == (0, 0)
        assert report.numeric_at_worst == pytest.approx(0.515)
        assert report.max_rel_err == pytest.approx(0.485)

    def test_vjp_perturbed_by_1e_3_relative_fails_the_check(self, monkeypatch):
        # a mutation check: every input gradient of one op kind scaled by
        # 1 + 1e-3, as in a subtly wrong VJP, must fail the 1e-4 bound even
        # though each disagreeing coordinate is re-estimated.  The output is
        # scaled by 100 so that gradients exceed 1, where the error is relative
        for kind in engine.op_kinds():
            op = ops_mod._OPS[kind]

            def perturbed(g, saved, attrs, vjp=op.vjp):
                return tuple(gi * (1.0 + 1e-3) for gi in vjp(g, saved, attrs))

            with monkeypatch.context() as patch:
                patch.setitem(ops_mod._OPS, kind, op._replace(vjp=perturbed))
                fn, inputs = _scalarized_op(kind, np.random.default_rng(41))
                report = grad_check(lambda *a: engine.scalar_scale(fn(*a), 100.0), inputs)
                assert report.max_rel_err > 1e-4, f"{kind}: {report}"
                if kind == "relu":  # at the kink, too
                    report = grad_check(_relu_sum, [t([[3e-6, -0.5, 0.8]])])
                    assert report.max_rel_err > 1e-4, f"relu at the kink: {report}"

    def test_non_scalar_rejected(self):
        x = t(np.ones((2, 2)))
        with pytest.raises(ValueError, match="scalar"):
            grad_check(lambda a: engine.relu(a), [x])

    def test_every_coordinate_restored(self):
        rng = np.random.default_rng(12)
        target = (rng.uniform(size=(2, 3)) > 0.5).astype(float)
        a, b = t(rng.normal(size=(2, 3))), t(rng.normal())
        before = [x.data.copy() for x in (a, b)]

        def fn(a_, b_):
            return engine.weighted_bce(engine.sigmoid(engine.mul(a_, b_)), target)

        report = grad_check(fn, [a, b])
        assert report.max_rel_err < 1e-6, str(report)
        for x, want in zip((a, b), before):
            assert x.data.tobytes() == want.tobytes()

    def test_central_difference_perturbs_a_copy(self):
        # fn sees a perturbed copy each run; the caller's array is never
        # written, not even while fn runs, and is the tensor's array afterwards
        rng = np.random.default_rng(13)
        target = (rng.uniform(size=(2, 3)) > 0.5).astype(float)
        a, b = t(rng.normal(size=(2, 3))), t(rng.normal())
        original = a.data
        before = original.copy()
        seen = []

        def fn(a_, b_):
            seen.append(a_.data)
            assert original.tobytes() == before.tobytes()
            return engine.weighted_bce(engine.sigmoid(engine.mul(a_, b_)), target)

        engine.central_difference(fn, [a, b], 0, (1, 2), 1e-5)
        assert [arr is original for arr in seen] == [False, False]
        assert [arr[1, 2] for arr in seen] == [before[1, 2] + 1e-5, before[1, 2] - 1e-5]
        assert a.data is original and original.tobytes() == before.tobytes()
        # grad_check: one taped run on the original, then two copies per coordinate
        seen.clear()
        grad_check(fn, [a, b])
        runs_on_a = 1 + 2 * original.size
        assert [arr is original for arr in seen[:runs_on_a]] == [True] + [False] * (runs_on_a - 1)
        assert a.data is original and original.tobytes() == before.tobytes()


def _sum_to_scalar_zero(a):
    z = engine.scalar_scale(a, 0.0)
    flat = engine.reshape(z, (1, a.data.size))
    return engine.reshape(engine.matmul(flat, engine.transpose(flat)), ())


def _sum_all(x):
    """Differentiable reduction of any tensor to a scalar (for FD tests)."""
    flat = engine.reshape(x, (1, x.data.size))
    ones = Tensor(np.ones((x.data.size, 1)))
    return engine.reshape(engine.matmul(flat, ones), ())


def _relu_sum(x):
    return _sum_all(engine.relu(x))


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
        return (lambda p_: engine.weighted_bce(p_, target)), [pred]
    raise AssertionError(f"no scalarization for {kind}")


class TestActiveTape:
    def test_nested_tapes_restore_the_previous_tape(self):
        assert active_tape() is None
        with Tape() as outer:
            assert active_tape() is outer
            with Tape() as inner:
                assert active_tape() is inner
            assert active_tape() is outer
        assert active_tape() is None

    @pytest.mark.parametrize("context", [Tape, oracles.ReplayTape])
    def test_exit_by_an_exception_restores_the_previous_tape(self, context):
        with Tape() as outer:
            with pytest.raises(KeyError):
                with context():
                    raise KeyError("inside")
            assert active_tape() is outer
        assert active_tape() is None


class TestTapeReplay:
    def test_replay_is_bit_identical(self):
        rng = np.random.default_rng(5)
        fn, inputs = _random_composite(rng)
        with oracles.ReplayTape() as tape:
            out = fn(*inputs)
        recomputed = oracles.replay(tape)
        assert recomputed[tape.records[-1].output_id].tobytes() == out.data.tobytes()

    def test_same_inputs_twice_bit_identical(self):
        rng = np.random.default_rng(6)
        fn, inputs = _random_composite(rng)
        a = fn(*inputs).data.tobytes()
        b = fn(*inputs).data.tobytes()
        assert a == b

    def test_missing_record_rejected(self):
        x = t(np.ones((2, 2)))
        with oracles.ReplayTape() as tape:
            apply("relu", [x])
        del tape.leaf_values[x.id]
        with pytest.raises(ValueError, match="no recorded value"):
            oracles.replay(tape)

    def test_nested_tapes_record_independently(self):
        x = t(np.ones(2))
        with oracles.ReplayTape() as outer:
            apply("relu", [x])
            with oracles.ReplayTape() as inner:
                apply("tanh", [x])
            apply("sigmoid", [x])
        assert [r.kind for r in outer.records] == ["relu", "sigmoid"]
        assert [r.kind for r in inner.records] == ["tanh"]
        assert outer.leaf_values.keys() == inner.leaf_values.keys() == {x.id}
