"""Differentiable tensor operations: forward kernels and exact VJPs.

Each op kind pairs a forward function with a vector-Jacobian product.  All
reductions run in a fixed index order (numpy kernels with deterministic loop
structure), so replaying a tape reproduces outputs bit for bit.

Conventions:
  * spatial grids are rank-3 ``(H, W, C)`` arrays,
  * matrices are rank-2, flattened grids are ``(H*W, C)`` row-major,
  * conv kernels are rank-4 ``(kh, kw, c_in, c_out)``.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .tensor import GradientMap, NonFiniteError, Tensor, _finite_tensor, active_tape

SUPPORTED_KERNEL_SIZES = (1, 3)
SUPPORTED_STRIDES = (1, 2, 4)
LOG_CLAMP = 1e-12  # weighted_bce clips predictions to [LOG_CLAMP, 1 - LOG_CLAMP]


class OpDef(NamedTuple):
    forward: Callable  # (arrays, attrs) -> (out_array, saved)
    vjp: Callable      # (grad_out, saved, attrs) -> tuple of input grads
    keeps_finite: bool  # finite inputs always give a finite output: no scan


_OPS: dict[str, OpDef] = {}


def _register(kind, keeps_finite=False):
    """Register a (forward, vjp) pair.  ``keeps_finite=True`` is a promise,
    argued beside the registration, that no finite input can make the forward
    return NaN or Inf; ``apply`` then leaves its output unscanned."""

    def wrap(pair):
        _OPS[kind] = OpDef(*pair, keeps_finite)
        return pair

    return wrap


def op_kinds():
    """All registered op kinds, sorted."""
    return sorted(_OPS)


def _require(cond, message, *args):
    """Raise ValueError(message.format(*args)) unless ``cond``; a pass builds no string."""
    if not cond:
        raise ValueError(message.format(*args))


# ---------------------------------------------------------------------------
# convolution


def _im2col(x, kh, kw, stride, h_out, w_out):
    """Patch matrix ``(h_out*w_out, kh*kw*c_in)`` of the zero-padded input.

    Row ``oy*w_out + ox`` is the window at ``(oy*stride, ox*stride)`` in
    ``(ky, kx, c)`` order.  A 1x1 stride-1 kernel reshapes ``x``.  Any other
    kernel zeroes only the border of one padded buffer, and copies every
    window once, from one strided view of that buffer, into the contiguous
    matrix.  The forward and the VJP both call it on the same ``x``, so they
    see the same bytes.
    """
    h, w, c_in = x.shape
    if kh == kw == 1 and stride == 1:
        return x.reshape(h * w, c_in)
    ph, pw = (kh - 1) // 2, (kw - 1) // 2
    xpad = np.empty((h + 2 * ph, w + 2 * pw, c_in), dtype=x.dtype)
    xpad[:ph] = 0.0
    xpad[ph + h :] = 0.0
    xpad[ph : ph + h, :pw] = 0.0
    xpad[ph : ph + h, pw + w :] = 0.0
    xpad[ph : ph + h, pw : pw + w] = x
    sy, sx, sc = xpad.strides
    windows = np.ndarray(
        (h_out, w_out, kh, kw, c_in), x.dtype, xpad, 0, (sy * stride, sx * stride, sy, sx, sc)
    )
    # copy explicitly: for a one-pixel-wide input reshape would return an
    # overlapping view, which matmul cannot hand to BLAS
    return np.ascontiguousarray(windows).reshape(h_out * w_out, kh * kw * c_in)


def _col2im(gcol, x_shape, kh, kw, stride, h_out, w_out):
    """Adjoint of :func:`_im2col`: sum each patch-matrix row back onto the
    input pixels its window read, dropping what fell on the padding.

    A 1x1 stride-1 kernel just reshapes ``gcol``, as ``_im2col`` does.
    """
    h, w, c_in = x_shape
    if kh == kw == 1 and stride == 1:
        return gcol.reshape(h, w, c_in)
    gcol = gcol.reshape(h_out, w_out, kh, kw, c_in)
    ph, pw = (kh - 1) // 2, (kw - 1) // 2
    gxpad = np.zeros((h + 2 * ph, w + 2 * pw, c_in), dtype=gcol.dtype)
    for ky in range(kh):
        for kx in range(kw):
            gxpad[
                ky : ky + stride * h_out : stride,
                kx : kx + stride * w_out : stride,
                :,
            ] += gcol[:, :, ky, kx, :]
    return gxpad[ph : ph + h, pw : pw + w, :]


def _conv2d_forward(arrays, attrs):
    """Convolution padded by ``(k - 1) // 2`` per side, so stride ``s`` keeps
    ``ceil(n / s)`` positions: one GEMM over the patch matrix of ``x``.

    The input ``x``, not its patch matrix, is saved for the VJP, which
    rebuilds the matrix: at stride 1 or 2 a 3x3 patch matrix holds 9 or about
    2.25 times as many values as ``x``, and under a tape ``x`` is usually the
    array the previous relu saved already.
    """
    x = arrays[0]
    w = arrays[1]
    bias = arrays[2] if len(arrays) == 3 else None
    stride = int(attrs.get("stride", 1))
    _require(x.ndim == 3, "conv2d input must be rank 3, got shape {}", x.shape)
    _require(w.ndim == 4, "conv2d kernel must be rank 4, got shape {}", w.shape)
    kh, kw, c_in, c_out = w.shape
    _require(
        kh in SUPPORTED_KERNEL_SIZES and kw in SUPPORTED_KERNEL_SIZES,
        "conv2d kernel size {}x{} not in {}", kh, kw, SUPPORTED_KERNEL_SIZES,
    )
    _require(stride in SUPPORTED_STRIDES, "conv2d stride {} not in {}", stride, SUPPORTED_STRIDES)
    _require(
        x.shape[2] == c_in,
        "conv2d channel mismatch: input has {} channels, kernel expects {}", x.shape[2], c_in,
    )
    if bias is not None:
        _require(
            bias.shape == (c_out,),
            "conv2d bias shape {} does not match {} output channels", bias.shape, c_out,
        )
    h_out, w_out = (x.shape[0] - 1) // stride + 1, (x.shape[1] - 1) // stride + 1
    colmat = _im2col(x, kh, kw, stride, h_out, w_out)
    out = colmat @ w.reshape(kh * kw * c_in, c_out)
    if bias is not None:
        out += bias  # in place on the fresh GEMM output: same ufunc, same bits
    saved = {"x": x, "w": w, "has_bias": bias is not None}
    return out.reshape(h_out, w_out, c_out), saved


def _conv2d_vjp(g, saved, attrs):
    """Rebuilds the forward's patch matrix from the saved ``x`` for ``gw``
    (same bytes, so the same ``gw``) and scatters ``gx`` with ``_col2im``."""
    stride = int(attrs.get("stride", 1))
    x, w = saved["x"], saved["w"]
    kh, kw, c_in, c_out = w.shape
    h_out, w_out, _ = g.shape
    gmat = g.reshape(h_out * w_out, c_out)
    gw = (_im2col(x, kh, kw, stride, h_out, w_out).T @ gmat).reshape(w.shape)
    gcol = gmat @ w.reshape(kh * kw * c_in, c_out).T
    gx = _col2im(gcol, x.shape, kh, kw, stride, h_out, w_out)
    if saved["has_bias"]:
        return gx, gw, gmat.sum(axis=0)
    return gx, gw


_register("conv2d")((_conv2d_forward, _conv2d_vjp))


# ---------------------------------------------------------------------------
# matrix ops


def _matmul_forward(arrays, attrs):
    a, b = arrays
    _require(
        a.ndim == 2 and b.ndim == 2, "matmul needs rank-2 inputs, got {} @ {}", a.shape, b.shape
    )
    _require(a.shape[1] == b.shape[0], "matmul inner dims differ: {} @ {}", a.shape, b.shape)
    return a @ b, {"a": a, "b": b}


def _matmul_vjp(g, saved, attrs):
    return g @ saved["b"].T, saved["a"].T @ g


_register("matmul")((_matmul_forward, _matmul_vjp))


def _transpose_forward(arrays, attrs):
    (a,) = arrays
    _require(a.ndim == 2, "transpose needs a rank-2 input, got shape {}", a.shape)
    return np.ascontiguousarray(a.T), {}


def _transpose_vjp(g, saved, attrs):
    return (np.ascontiguousarray(g.T),)


_register("transpose", keeps_finite=True)((_transpose_forward, _transpose_vjp))


def _row_softmax_forward(arrays, attrs):
    (a,) = arrays
    _require(a.ndim == 2, "row_softmax needs a rank-2 input, got shape {}", a.shape)
    # one (rows, cols) array: the shifted input becomes exp, then the output
    out = a - a.max(axis=1, keepdims=True)
    np.exp(out, out=out)
    out /= out.sum(axis=1, keepdims=True)
    return out, {"out": out}


def _row_softmax_vjp(g, saved, attrs):
    y = saved["out"]
    return (y * (g - (g * y).sum(axis=1, keepdims=True)),)


# the shift is <= 0 (at worst -inf, whose exp is 0) and each row keeps a 1,
# so every output lies in [0, 1]
_register("row_softmax", keeps_finite=True)((_row_softmax_forward, _row_softmax_vjp))


# ---------------------------------------------------------------------------
# elementwise


def _sigmoid_forward(arrays, attrs):
    (x,) = arrays
    # exp(-|x|) never overflows; branch picks the numerically stable form
    z = np.exp(-np.abs(x))
    d = 1.0 + z
    out = np.where(x >= 0, 1.0 / d, z / d)
    return out, {"out": out}


def _sigmoid_vjp(g, saved, attrs):
    y = saved["out"]
    return (g * y * (1.0 - y),)


# z in [0, 1], so both branches lie in [0, 1]
_register("sigmoid", keeps_finite=True)((_sigmoid_forward, _sigmoid_vjp))


def _tanh_forward(arrays, attrs):
    (x,) = arrays
    out = np.tanh(x)
    return out, {"out": out}


def _tanh_vjp(g, saved, attrs):
    y = saved["out"]
    return (g * (1.0 - y * y),)


_register("tanh", keeps_finite=True)((_tanh_forward, _tanh_vjp))


def _relu_forward(arrays, attrs):
    (x,) = arrays
    out = np.maximum(x, 0.0)
    return out, {"out": out}


def _relu_vjp(g, saved, attrs):
    # out > 0 exactly where x > 0, and out is the array the next conv saves
    return (g * (saved["out"] > 0),)


_register("relu", keeps_finite=True)((_relu_forward, _relu_vjp))


# ---------------------------------------------------------------------------
# pooling and broadcasting


def _gap_forward(arrays, attrs):
    (x,) = arrays
    _require(x.ndim == 3, "global_avg_pool needs a rank-3 grid, got shape {}", x.shape)
    mean = x.mean(axis=(0, 1))
    # constant channels must pool to exactly that constant
    lo = x.min(axis=(0, 1))
    hi = x.max(axis=(0, 1))
    out = np.where(lo == hi, lo, mean)
    return out, {"grid_shape": x.shape}


def _gap_vjp(g, saved, attrs):
    h, w, c = saved["grid_shape"]
    return (np.broadcast_to(g / (h * w), (h, w, c)).copy(),)


_register("global_avg_pool")((_gap_forward, _gap_vjp))


def _add_forward(arrays, attrs):
    a, b = arrays
    _require(a.shape == b.shape, "add shape mismatch: {} vs {}", a.shape, b.shape)
    return a + b, {}


def _add_vjp(g, saved, attrs):
    return g, g


_register("add")((_add_forward, _add_vjp))


def _mul_forward(arrays, attrs):
    a, b = arrays
    _require(
        a.shape == b.shape or a.ndim == 0 or b.ndim == 0,
        "mul needs equal shapes or a scalar operand: {} vs {}", a.shape, b.shape,
    )
    return a * b, {"a": a, "b": b}


def _mul_vjp(g, saved, attrs):
    a, b = saved["a"], saved["b"]
    ga = g * b
    gb = g * a
    if a.ndim == 0 and ga.ndim != 0:
        ga = np.asarray(ga.sum())
    if b.ndim == 0 and gb.ndim != 0:
        gb = np.asarray(gb.sum())
    return ga, gb


_register("mul")((_mul_forward, _mul_vjp))


def _cbm_forward(arrays, attrs):
    x, v = arrays
    _require(x.ndim == 3, "channel_broadcast_mul grid must be rank 3, got {}", x.shape)
    _require(
        v.shape == (x.shape[2],),
        "channel vector shape {} does not match {} channels", v.shape, x.shape[2],
    )
    return x * v, {"x": x, "v": v}


def _cbm_vjp(g, saved, attrs):
    return g * saved["v"], (g * saved["x"]).sum(axis=(0, 1))


_register("channel_broadcast_mul")((_cbm_forward, _cbm_vjp))


def _concat_forward(arrays, attrs):
    a, b = arrays
    _require(a.ndim == 3 and b.ndim == 3, "concat_channels needs rank-3 grids")
    _require(
        a.shape[:2] == b.shape[:2],
        "concat_channels spatial mismatch: {} vs {}", a.shape[:2], b.shape[:2],
    )
    return np.concatenate([a, b], axis=2), {"split": a.shape[2]}


def _concat_vjp(g, saved, attrs):
    s = saved["split"]
    return g[:, :, :s], g[:, :, s:]


_register("concat_channels", keeps_finite=True)((_concat_forward, _concat_vjp))


def _scalar_scale_forward(arrays, attrs):
    (x,) = arrays
    factor = float(attrs["factor"])
    return factor * x, {}


def _scalar_scale_vjp(g, saved, attrs):
    return (float(attrs["factor"]) * g,)


_register("scalar_scale")((_scalar_scale_forward, _scalar_scale_vjp))


def _reshape_forward(arrays, attrs):
    (x,) = arrays
    shape = tuple(int(d) for d in attrs["shape"])
    _require(len(shape) <= 4 and all(d > 0 for d in shape), "bad reshape target {}", shape)
    _require(
        math.prod(shape) == x.size,
        "reshape cannot map {} ({} elements) to {}", x.shape, x.size, shape,
    )
    return x.reshape(shape), {"orig": x.shape}


def _reshape_vjp(g, saved, attrs):
    return (g.reshape(saved["orig"]),)


_register("reshape", keeps_finite=True)((_reshape_forward, _reshape_vjp))


# ---------------------------------------------------------------------------
# loss


def _weighted_bce_forward(arrays, attrs):
    """Class-balanced binary cross entropy, summed over pixels.

    The foreground term carries weight ``1 - eta`` and the background term
    ``eta``, with ``eta`` the foreground fraction of the binary target,
    clamped to ``[1/n, 1 - 1/n]`` for n pixels.  Log arguments are clipped
    at ``LOG_CLAMP``.
    """
    (pred,) = arrays
    target = np.asarray(attrs["target"], dtype=np.float64)
    _require(pred.shape == target.shape, "bce shape mismatch: {} vs {}", pred.shape, target.shape)
    _require(np.all((target == 0.0) | (target == 1.0)), "bce target must be binary")
    n = target.size
    eta = float(np.clip(float(target.sum()) / n, 1.0 / n, 1.0 - 1.0 / n))
    p = np.clip(pred, LOG_CLAMP, 1.0 - LOG_CLAMP)
    loss = -np.sum((1.0 - eta) * target * np.log(p) + eta * (1.0 - target) * np.log1p(-p))
    inside = (pred > LOG_CLAMP) & (pred < 1.0 - LOG_CLAMP)
    return np.asarray(loss), {"p": p, "target": target, "eta": eta, "inside": inside}


def _weighted_bce_vjp(g, saved, attrs):
    p, target, eta = saved["p"], saved["target"], saved["eta"]
    grad = -(1.0 - eta) * target / p + eta * (1.0 - target) / (1.0 - p)
    return (g * grad * saved["inside"],)


# pred is a tensor, so n >= 1; the clamp gives eta in [1/n, 1 - 1/n] for
# n >= 2 and 1 - 1/n = 0 for n = 1, so eta and 1 - eta lie in [0, 1].  The
# clip keeps log(p) and log1p(-p) at or above log(LOG_CLAMP) ~ -27.6, so
# with a binary target each term is at most 27.6 in size and the sum of n
# terms at most 27.6 n, finite for any array that fits in memory
_register("weighted_bce", keeps_finite=True)((_weighted_bce_forward, _weighted_bce_vjp))


# ---------------------------------------------------------------------------
# apply / backward / replay


def apply(kind, inputs, attrs=None):
    """Run one op and record it on the active tape, if any.

    ``inputs`` is a list of tensors, ``attrs`` a dict of non-differentiable
    attributes.  Rejects unknown kinds, non-tensor inputs and incompatible
    shapes.  Inputs are not scanned for NaN or Inf: every tensor was checked
    when its value was created or assigned.  The output is scanned only where
    the op can create a NaN or Inf from finite inputs, and a NaN or Inf there
    raises ``NonFiniteError("<kind> output contains NaN or Inf")``.  A kind
    registered with ``keeps_finite=True`` cannot, so its output becomes a
    tensor without the scan.
    """
    op = _OPS.get(kind)
    if op is None:
        raise ValueError(f"unknown op kind {kind!r}")
    attrs = {} if attrs is None else attrs
    arrays = []
    for t in inputs:
        if not isinstance(t, Tensor):
            raise TypeError(f"{kind} input must be a Tensor, got {type(t).__name__}")
        arrays.append(t.data)
    out_arr, saved = op.forward(arrays, attrs)
    if op.keeps_finite:
        out = _finite_tensor(out_arr)
    else:
        try:
            out = Tensor(out_arr)
        except NonFiniteError:
            raise NonFiniteError(f"{kind} output contains NaN or Inf") from None
    tape = active_tape()
    if tape is not None:
        tape.record(kind, inputs, out, attrs, saved)
    return out


def backward(tape, seed_grad):
    """Reverse sweep: gradients of the tape's final output w.r.t. everything.

    ``seed_grad`` is an array matching the final output's shape.  Returns a
    :class:`GradientMap`; tensors never touched by the computation map to
    zero gradients.
    """
    if not tape.records:
        raise ValueError("backward on an empty tape")
    seed = np.asarray(seed_grad, dtype=np.float64)
    last = tape.records[-1]
    if seed.shape != last.output_shape:
        raise ValueError(
            f"seed gradient shape {seed.shape} does not match final output {last.output_shape}"
        )
    grads = {last.output_id: seed}
    for rec in reversed(tape.records):
        g = grads.get(rec.output_id)
        if g is None:
            continue
        input_grads = _OPS[rec.kind].vjp(g, rec.saved, rec.attrs)
        for iid, gi in zip(rec.input_ids, input_grads):
            prev = grads.get(iid)
            grads[iid] = gi if prev is None else prev + gi
    return GradientMap(grads)


def replay(tape):
    """Recompute every recorded output from the tape's leaf values.

    Deterministic kernels make the result bit-identical to the original
    forward pass.  Returns a dict mapping output tensor id to the recomputed
    array.
    """
    values = dict(tape.leaf_values)
    outputs = {}
    for rec in tape.records:
        try:
            arrays = [values[iid] for iid in rec.input_ids]
        except KeyError as missing:
            raise ValueError(
                f"tape replay: op {rec.kind!r} needs tensor {missing.args[0]} "
                "which has no recorded value"
            ) from None
        out, _ = _OPS[rec.kind].forward(arrays, rec.attrs)
        values[rec.output_id] = out
        outputs[rec.output_id] = out
    return outputs


# ---------------------------------------------------------------------------
# thin callable wrappers (the model-facing surface)


def conv2d(x, w, bias=None, stride=1):
    inputs = [x, w] if bias is None else [x, w, bias]
    return apply("conv2d", inputs, {"stride": stride})


def matmul(a, b):
    return apply("matmul", [a, b])


def transpose(a):
    return apply("transpose", [a])


def row_softmax(a):
    return apply("row_softmax", [a])


def sigmoid(x):
    return apply("sigmoid", [x])


def tanh(x):
    return apply("tanh", [x])


def relu(x):
    return apply("relu", [x])


def global_avg_pool(x):
    return apply("global_avg_pool", [x])


def add(a, b):
    return apply("add", [a, b])


def mul(a, b):
    return apply("mul", [a, b])


def channel_broadcast_mul(x, v):
    return apply("channel_broadcast_mul", [x, v])


def concat_channels(a, b):
    return apply("concat_channels", [a, b])


def scalar_scale(x, factor):
    return apply("scalar_scale", [x], {"factor": factor})


def reshape(x, shape):
    return apply("reshape", [x], {"shape": tuple(shape)})


def weighted_bce(pred, target):
    return apply("weighted_bce", [pred], {"target": target})
