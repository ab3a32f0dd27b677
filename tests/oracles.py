"""Naive explicit-loop reference implementations.

Everything here is written with plain Python loops and ``math`` so it shares
no code path with the engine kernels it is used to validate.  Slow on
purpose; only run on tiny shapes.
"""

import math

import numpy as np


def matmul_loops(a, b):
    m, n = a.shape
    n2, p = b.shape
    assert n == n2
    out = np.zeros((m, p))
    for i in range(m):
        for j in range(p):
            acc = 0.0
            for k in range(n):
                acc += a[i, k] * b[k, j]
            out[i, j] = acc
    return out


def conv2d_loops(x, w, bias=None, stride=1):
    """Zero-padded convolution, pad = (k - 1) // 2 per axis."""
    h, ww, c_in = x.shape
    kh, kw, _, c_out = w.shape
    ph, pw = (kh - 1) // 2, (kw - 1) // 2
    h_out = (h + 2 * ph - kh) // stride + 1
    w_out = (ww + 2 * pw - kw) // stride + 1
    out = np.zeros((h_out, w_out, c_out))
    for oy in range(h_out):
        for ox in range(w_out):
            for co in range(c_out):
                acc = 0.0 if bias is None else bias[co]
                for ky in range(kh):
                    for kx in range(kw):
                        iy = oy * stride + ky - ph
                        ix = ox * stride + kx - pw
                        if 0 <= iy < h and 0 <= ix < ww:
                            for ci in range(c_in):
                                acc += x[iy, ix, ci] * w[ky, kx, ci, co]
                out[oy, ox, co] = acc
    return out


def chebyshev_dilate_loops(mask, radius):
    """True where a foreground pixel lies within Chebyshev distance radius."""
    h, w = mask.shape
    out = np.zeros((h, w), dtype=bool)
    for y in range(h):
        for x in range(w):
            for ty in range(h):
                for tx in range(w):
                    if mask[ty, tx] and max(abs(y - ty), abs(x - tx)) <= radius:
                        out[y, x] = True
    return out


def row_softmax_loops(a):
    m, n = a.shape
    out = np.zeros_like(a, dtype=float)
    for i in range(m):
        mx = max(a[i, j] for j in range(n))
        es = [math.exp(a[i, j] - mx) for j in range(n)]
        z = sum(es)
        for j in range(n):
            out[i, j] = es[j] / z
    return out


def conv1x1_loops(x, w, bias=None):
    """Per-position linear map; w is (1, 1, c_in, c_out)."""
    h, ww, c_in = x.shape
    c_out = w.shape[3]
    out = np.zeros((h, ww, c_out))
    for y in range(h):
        for xx in range(ww):
            for co in range(c_out):
                acc = 0.0 if bias is None else bias[co]
                for ci in range(c_in):
                    acc += x[y, xx, ci] * w[0, 0, ci, co]
                out[y, xx, co] = acc
    return out


def intra_attention_loops(h, w_f, w_h, w_l, alpha):
    """Residual self-attention over all positions of one grid."""
    hh, ww, c = h.shape
    n = hh * ww
    q = conv1x1_loops(h, w_f).reshape(n, c)
    k = conv1x1_loops(h, w_h).reshape(n, c)
    v = conv1x1_loops(h, w_l).reshape(n, c)
    sim = matmul_loops(q, k.T)
    att = row_softmax_loops(sim)
    mixed = matmul_loops(att, v)
    return (alpha * mixed).reshape(hh, ww, c) + h


def inter_attention_loops(h_i, h_j, w_c):
    """Bilinear position-pair similarities between two flattened grids."""
    n, c = h_i.shape
    e = np.zeros((n, h_j.shape[0]))
    for p in range(n):
        for q in range(h_j.shape[0]):
            acc = 0.0
            for a in range(c):
                for b in range(c):
                    acc += h_i[p, a] * w_c[a, b] * h_j[q, b]
            e[p, q] = acc
    return e


def neighbor_message_loops(h_j_flat, e_ij):
    att = row_softmax_loops(e_ij)
    return matmul_loops(att, h_j_flat)


def gate_loops(m, w_g, b_g):
    """Per-channel confidence: 1x1 conv, average pool, sigmoid."""
    h, w, c = m.shape
    conv = conv1x1_loops(m, w_g, b_g)
    out = np.zeros(c)
    for co in range(c):
        acc = 0.0
        for y in range(h):
            for x in range(w):
                acc += conv[y, x, co]
        out[co] = 1.0 / (1.0 + math.exp(-acc / (h * w)))
    return out


def aggregate_loops(messages, gates):
    h, w, c = messages[0].shape
    out = np.zeros((h, w, c))
    for msg, gate in zip(messages, gates):
        for y in range(h):
            for x in range(w):
                for ch in range(c):
                    out[y, x, ch] += gate[ch] * msg[y, x, ch]
    return out


def convgru_loops(h_prev, m, w_z, b_z, w_r, b_r, w_u, b_u):
    """Two-gate recurrent update with 1x1 kernels on the channel concat."""
    hh, ww, c = h_prev.shape
    cat = np.concatenate([h_prev, m], axis=2)
    z = conv1x1_loops(cat, w_z, b_z)
    r = conv1x1_loops(cat, w_r, b_r)
    z = 1.0 / (1.0 + np.exp(-z))
    r = 1.0 / (1.0 + np.exp(-r))
    cat2 = np.concatenate([r * h_prev, m], axis=2)
    cand = np.tanh(conv1x1_loops(cat2, w_u, b_u))
    return (1.0 - z) * h_prev + z * cand


def weighted_bce_loops(target, pred, eta, clamp=1e-12):
    h, w = target.shape
    total = 0.0
    for y in range(h):
        for x in range(w):
            p = min(max(pred[y, x], clamp), 1.0 - clamp)
            total -= (1.0 - eta) * target[y, x] * math.log(p)
            total -= eta * (1.0 - target[y, x]) * math.log(1.0 - p)
    return total


def block_majority_loops(mask, factor):
    """Downsample by counting foreground per block; ties go to foreground."""
    h, w = mask.shape
    out = np.zeros((h // factor, w // factor), dtype=bool)
    for by in range(h // factor):
        for bx in range(w // factor):
            count = 0
            for y in range(factor):
                for x in range(factor):
                    count += int(mask[by * factor + y, bx * factor + x])
            out[by, bx] = 2 * count >= factor * factor
    return out
