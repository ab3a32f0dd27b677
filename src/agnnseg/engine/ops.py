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

from .tensor import GradientMap, NonFiniteError, Tensor, active_tape, all_finite, config

SUPPORTED_KERNEL_SIZES = (1, 3)
SUPPORTED_STRIDES = (1, 2, 4)


class OpDef(NamedTuple):
    forward: Callable  # (arrays, attrs) -> (out_array, saved)
    vjp: Callable      # (grad_out, saved, attrs) -> tuple of input grads


_OPS: dict[str, OpDef] = {}


def _register(kind):
    def wrap(pair):
        _OPS[kind] = OpDef(*pair)
        return pair

    return wrap


def op_kinds():
    """All registered op kinds, sorted."""
    return sorted(_OPS)


def _require(cond, message):
    if not cond:
        raise ValueError(message)


# ---------------------------------------------------------------------------
# convolution


def _im2col(x, kh, kw, stride, h_out, w_out):
    """Patch matrix ``(h_out*w_out, kh*kw*c_in)`` of the zero-padded input.

    Row ``oy*w_out + ox`` is the window at ``(oy*stride, ox*stride)`` in
    ``(ky, kx, c)`` order.  A 1x1 stride-1 kernel just reshapes ``x``; any
    other reads one read-only strided view of the padded input, and a single
    copy makes it the contiguous matrix.
    """
    h, w, c_in = x.shape
    if kh == kw == 1 and stride == 1:
        return x.reshape(h * w, c_in)
    ph, pw = (kh - 1) // 2, (kw - 1) // 2
    if ph or pw:
        xpad = np.zeros((h + 2 * ph, w + 2 * pw, c_in), dtype=x.dtype)
        xpad[ph : ph + h, pw : pw + w] = x
        x = xpad
    sy, sx, sc = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x, (h_out, w_out, kh, kw, c_in), (sy * stride, sx * stride, sy, sx, sc), writeable=False
    )
    # copy explicitly: for a one-pixel-wide input reshape would return an
    # overlapping view, which matmul cannot hand to BLAS
    return np.ascontiguousarray(windows).reshape(h_out * w_out, kh * kw * c_in)


def _conv2d_forward(arrays, attrs):
    """Convolution padded by ``(k - 1) // 2`` per side, so stride ``s`` keeps
    ``ceil(n / s)`` positions: one GEMM over the patch matrix, saved for the VJP."""
    x = arrays[0]
    w = arrays[1]
    bias = arrays[2] if len(arrays) == 3 else None
    stride = int(attrs.get("stride", 1))
    _require(x.ndim == 3, f"conv2d input must be rank 3, got shape {x.shape}")
    _require(w.ndim == 4, f"conv2d kernel must be rank 4, got shape {w.shape}")
    kh, kw, c_in, c_out = w.shape
    _require(
        kh in SUPPORTED_KERNEL_SIZES and kw in SUPPORTED_KERNEL_SIZES,
        f"conv2d kernel size {kh}x{kw} not in {SUPPORTED_KERNEL_SIZES}",
    )
    _require(stride in SUPPORTED_STRIDES, f"conv2d stride {stride} not in {SUPPORTED_STRIDES}")
    _require(
        x.shape[2] == c_in,
        f"conv2d channel mismatch: input has {x.shape[2]} channels, kernel expects {c_in}",
    )
    if bias is not None:
        _require(
            bias.shape == (c_out,),
            f"conv2d bias shape {bias.shape} does not match {c_out} output channels",
        )
    h_out, w_out = (x.shape[0] - 1) // stride + 1, (x.shape[1] - 1) // stride + 1
    colmat = _im2col(x, kh, kw, stride, h_out, w_out)
    out = colmat @ w.reshape(kh * kw * c_in, c_out)
    if bias is not None:
        out = out + bias
    saved = {"colmat": colmat, "w": w, "x_shape": x.shape, "has_bias": bias is not None}
    return out.reshape(h_out, w_out, c_out), saved


def _conv2d_vjp(g, saved, attrs):
    stride = int(attrs.get("stride", 1))
    w = saved["w"]
    kh, kw, c_in, c_out = w.shape
    h_in, w_in, _ = saved["x_shape"]
    h_out, w_out, _ = g.shape
    gmat = g.reshape(h_out * w_out, c_out)
    gw = (saved["colmat"].T @ gmat).reshape(w.shape)
    gcol = (gmat @ w.reshape(kh * kw * c_in, c_out).T).reshape(h_out, w_out, kh, kw, c_in)
    ph, pw = (kh - 1) // 2, (kw - 1) // 2
    gxpad = np.zeros((h_in + 2 * ph, w_in + 2 * pw, c_in), dtype=g.dtype)
    for ky in range(kh):
        for kx in range(kw):
            gxpad[
                ky : ky + stride * h_out : stride,
                kx : kx + stride * w_out : stride,
                :,
            ] += gcol[:, :, ky, kx, :]
    gx = gxpad[ph : ph + h_in, pw : pw + w_in, :]
    if saved["has_bias"]:
        return gx, gw, gmat.sum(axis=0)
    return gx, gw


_register("conv2d")((_conv2d_forward, _conv2d_vjp))


# ---------------------------------------------------------------------------
# matrix ops


def _matmul_forward(arrays, attrs):
    a, b = arrays
    _require(a.ndim == 2 and b.ndim == 2, f"matmul needs rank-2 inputs, got {a.shape} @ {b.shape}")
    _require(a.shape[1] == b.shape[0], f"matmul inner dims differ: {a.shape} @ {b.shape}")
    return a @ b, {"a": a, "b": b}


def _matmul_vjp(g, saved, attrs):
    return g @ saved["b"].T, saved["a"].T @ g


_register("matmul")((_matmul_forward, _matmul_vjp))


def _transpose_forward(arrays, attrs):
    (a,) = arrays
    _require(a.ndim == 2, f"transpose needs a rank-2 input, got shape {a.shape}")
    return np.ascontiguousarray(a.T), {}


def _transpose_vjp(g, saved, attrs):
    return (np.ascontiguousarray(g.T),)


_register("transpose")((_transpose_forward, _transpose_vjp))


def _row_softmax_forward(arrays, attrs):
    (a,) = arrays
    _require(a.ndim == 2, f"row_softmax needs a rank-2 input, got shape {a.shape}")
    shifted = a - a.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=1, keepdims=True)
    return out, {"out": out}


def _row_softmax_vjp(g, saved, attrs):
    y = saved["out"]
    return (y * (g - (g * y).sum(axis=1, keepdims=True)),)


_register("row_softmax")((_row_softmax_forward, _row_softmax_vjp))


# ---------------------------------------------------------------------------
# elementwise


def _sigmoid_forward(arrays, attrs):
    (x,) = arrays
    # exp(-|x|) never overflows; branch picks the numerically stable form
    z = np.exp(-np.abs(x))
    out = np.where(x >= 0, 1.0 / (1.0 + z), z / (1.0 + z))
    return out, {"out": out}


def _sigmoid_vjp(g, saved, attrs):
    y = saved["out"]
    return (g * y * (1.0 - y),)


_register("sigmoid")((_sigmoid_forward, _sigmoid_vjp))


def _tanh_forward(arrays, attrs):
    (x,) = arrays
    out = np.tanh(x)
    return out, {"out": out}


def _tanh_vjp(g, saved, attrs):
    y = saved["out"]
    return (g * (1.0 - y * y),)


_register("tanh")((_tanh_forward, _tanh_vjp))


def _relu_forward(arrays, attrs):
    (x,) = arrays
    return np.maximum(x, 0.0), {"mask": x > 0}


def _relu_vjp(g, saved, attrs):
    return (g * saved["mask"],)


_register("relu")((_relu_forward, _relu_vjp))


# ---------------------------------------------------------------------------
# pooling and broadcasting


def _gap_forward(arrays, attrs):
    (x,) = arrays
    _require(x.ndim == 3, f"global_avg_pool needs a rank-3 grid, got shape {x.shape}")
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
    _require(a.shape == b.shape, f"add shape mismatch: {a.shape} vs {b.shape}")
    return a + b, {}


def _add_vjp(g, saved, attrs):
    return g, g


_register("add")((_add_forward, _add_vjp))


def _mul_forward(arrays, attrs):
    a, b = arrays
    _require(
        a.shape == b.shape or a.ndim == 0 or b.ndim == 0,
        f"mul needs equal shapes or a scalar operand: {a.shape} vs {b.shape}",
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
    _require(x.ndim == 3, f"channel_broadcast_mul grid must be rank 3, got {x.shape}")
    _require(
        v.shape == (x.shape[2],),
        f"channel vector shape {v.shape} does not match {x.shape[2]} channels",
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
        f"concat_channels spatial mismatch: {a.shape[:2]} vs {b.shape[:2]}",
    )
    return np.concatenate([a, b], axis=2), {"split": a.shape[2]}


def _concat_vjp(g, saved, attrs):
    s = saved["split"]
    return g[:, :, :s], g[:, :, s:]


_register("concat_channels")((_concat_forward, _concat_vjp))


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
    _require(len(shape) <= 4 and all(d > 0 for d in shape), f"bad reshape target {shape}")
    _require(
        math.prod(shape) == x.size,
        f"reshape cannot map {x.shape} ({x.size} elements) to {shape}",
    )
    return x.reshape(shape), {"orig": x.shape}


def _reshape_vjp(g, saved, attrs):
    return (g.reshape(saved["orig"]),)


_register("reshape")((_reshape_forward, _reshape_vjp))


# ---------------------------------------------------------------------------
# loss


def _weighted_bce_forward(arrays, attrs):
    (pred,) = arrays
    target = np.asarray(attrs["target"])
    eta = float(attrs["eta"])
    clamp = float(attrs.get("clamp", 1e-12))
    _require(pred.shape == target.shape, f"bce shape mismatch: {pred.shape} vs {target.shape}")
    _require(np.all((target == 0.0) | (target == 1.0)), "bce target must be binary")
    _require(0.0 <= eta <= 1.0, f"bce weight eta={eta} outside [0, 1]")
    p = np.clip(pred, clamp, 1.0 - clamp)
    loss = -np.sum((1.0 - eta) * target * np.log(p) + eta * (1.0 - target) * np.log1p(-p))
    inside = (pred > clamp) & (pred < 1.0 - clamp)
    return np.asarray(loss), {"p": p, "target": target, "eta": eta, "inside": inside}


def _weighted_bce_vjp(g, saved, attrs):
    p, target, eta = saved["p"], saved["target"], saved["eta"]
    grad = -(1.0 - eta) * target / p + eta * (1.0 - target) / (1.0 - p)
    return (g * grad * saved["inside"],)


_register("weighted_bce")((_weighted_bce_forward, _weighted_bce_vjp))


# ---------------------------------------------------------------------------
# apply / backward / replay


def apply(kind, inputs, attrs=None):
    """Run one op and record it on the active tape, if any.

    ``inputs`` is a list of tensors, ``attrs`` a dict of non-differentiable
    attributes.  Rejects unknown kinds, incompatible shapes, and non-finite
    inputs.
    """
    op = _OPS.get(kind)
    if op is None:
        raise ValueError(f"unknown op kind {kind!r}")
    attrs = {} if attrs is None else attrs
    check = config.check_finite
    arrays = []
    for t in inputs:
        if not isinstance(t, Tensor):
            raise TypeError(f"{kind} input must be a Tensor, got {type(t).__name__}")
        data = t.data
        if check and not all_finite(data):
            raise NonFiniteError(f"{kind} input contains NaN or Inf")
        arrays.append(data)
    out_arr, saved = op.forward(arrays, attrs)
    out = Tensor(out_arr)
    tape = active_tape()
    if tape is not None:
        tape.record(kind, inputs, out, attrs, saved)
    return out


def _validate_tape(tape):
    produced = set()
    seen_inputs = set(tape.leaf_values)
    for rec in tape.records:
        for iid in rec.input_ids:
            if iid not in produced and iid not in seen_inputs:
                raise ValueError(
                    f"tape record for op {rec.kind!r} consumes tensor {iid} "
                    "with no earlier producer or leaf value"
                )
        if rec.output_id in produced:
            raise ValueError(f"tape produces tensor {rec.output_id} twice")
        produced.add(rec.output_id)


def backward(tape, seed_grad):
    """Reverse sweep: gradients of the tape's final output w.r.t. everything.

    ``seed_grad`` must match the final output's shape.  Returns a
    :class:`GradientMap`; tensors never touched by the computation map to
    zero gradients.
    """
    if not tape.records:
        raise ValueError("backward on an empty tape")
    _validate_tape(tape)
    seed = seed_grad.data if isinstance(seed_grad, Tensor) else np.asarray(seed_grad, dtype=config.dtype)
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
            if gi is None:
                continue
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


def weighted_bce(pred, target, eta, clamp=1e-12):
    return apply("weighted_bce", [pred], {"target": target, "eta": eta, "clamp": clamp})
