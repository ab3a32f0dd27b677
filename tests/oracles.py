"""Naive explicit-loop reference implementations.

Everything here is written with plain Python loops and ``math`` so it shares
no code path with the engine kernels it is used to validate.  Slow on
purpose; only run on tiny shapes.  ``tree_hash`` digests a directory tree's
relative paths and bytes, for byte-identity checks on written files,
``decoded_hash`` digests what a dataset's videos decode to, and
``cut_manifest`` shrinks a generated dataset's splits for tests.  The
scene rasterizers and the background gradient are index-grid (``np.mgrid``)
references for the broadcast versions in ``agnnseg.synthdata``, and
``im2col_loops`` pads with ``np.pad`` before its window loop.
"""

import hashlib
import math
from pathlib import Path

import numpy as np


def tree_hash(root):
    """SHA-256 over every file under ``root``: relative path, then bytes."""
    digest = hashlib.sha256()
    for path in sorted(Path(root).rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def decoded_hash(manifest):
    """SHA-256 over every manifest entry's line and its ``load_video``
    arrays, whatever the files' layout on disk."""
    from agnnseg.synthdata import load_video

    digest = hashlib.sha256()
    for e in manifest.entries:
        frames, masks = load_video(manifest, e)
        digest.update(f"{e.split}\t{e.video_id}\t{e.num_frames}\t{e.shape_class}\n".encode())
        digest.update(frames.tobytes())
        digest.update(masks.tobytes())
    return digest.hexdigest()


def cut_manifest(manifest, **counts):
    """``manifest`` keeping the first ``counts[split]`` videos of each split
    named, and other splits whole, written over its ``manifest.txt``.  The
    files of the videos left out stay on disk."""
    from agnnseg.synthdata import DatasetManifest, write_manifest

    splits = dict.fromkeys(e.split for e in manifest.entries)
    kept = [e for split in splits for e in manifest.split(split)[:counts.get(split)]]
    cut = DatasetManifest(manifest.root, kept)
    write_manifest(cut)
    return cut


def raster_ellipse_grid(canvas, cy, cx, ry, rx):
    yy, xx = np.mgrid[0:canvas, 0:canvas]
    return ((yy + 0.5 - cy) / ry) ** 2 + ((xx + 0.5 - cx) / rx) ** 2 <= 1.0


def raster_rectangle_grid(canvas, cy, cx, ry, rx):
    yy, xx = np.mgrid[0:canvas, 0:canvas]
    return (np.abs(yy + 0.5 - cy) <= ry) & (np.abs(xx + 0.5 - cx) <= rx)


def raster_triangle_grid(canvas, cy, cx, ry, rx):
    """Apex up at (cy - ry, cx); inside where all three edge crosses are <= 0."""
    yy, xx = np.mgrid[0:canvas, 0:canvas]
    py, px = yy + 0.5, xx + 0.5
    verts = [(cy - ry, cx), (cy + ry, cx - rx), (cy + ry, cx + rx)]
    inside = np.ones((canvas, canvas), dtype=bool)
    for (ay, ax), (by, bx) in zip(verts, verts[1:] + verts[:1]):
        cross = (bx - ax) * (py - ay) - (by - ay) * (px - ax)
        inside &= cross <= 0.0
    return inside


RASTER_GRIDS = {
    "ellipse": raster_ellipse_grid,
    "rectangle": raster_rectangle_grid,
    "triangle": raster_triangle_grid,
}


def background_grid(rng, canvas):
    """Base colour and (canvas, canvas, 3) linear gradient, drawing as synthdata does."""
    base = rng.uniform(0.25, 0.75, size=3)
    slopes = rng.uniform(-0.25, 0.25, size=(2, 3)) / canvas
    yy, xx = np.mgrid[0:canvas, 0:canvas]
    bg = base + yy[:, :, None] * slopes[0] + xx[:, :, None] * slopes[1]
    return base, bg


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


def im2col_loops(x, kh, kw, stride):
    """Patch matrix of ``x`` padded by ``(k - 1) // 2`` zeros per axis: one
    row per output position, row-major, each window in ``(ky, kx, c)`` order."""
    h, w, _ = x.shape
    ph, pw = (kh - 1) // 2, (kw - 1) // 2
    xpad = np.pad(x, ((ph, ph), (pw, pw), (0, 0)))
    rows = []
    for oy in range(0, h, stride):
        for ox in range(0, w, stride):
            window = []
            for ky in range(kh):
                for kx in range(kw):
                    window.extend(xpad[oy + ky, ox + kx])
            rows.append(window)
    return np.array(rows, dtype=x.dtype)


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


def foreground_ratio_loops(target):
    """Foreground pixels over all pixels, clamped to [1/n, 1 - 1/n]."""
    h, w = target.shape
    n = h * w
    count = 0
    for y in range(h):
        for x in range(w):
            count += target[y, x] == 1.0
    return min(max(count / n, 1.0 / n), 1.0 - 1.0 / n)


def weighted_bce_loops(target, pred, clamp=1e-12):
    h, w = target.shape
    eta = foreground_ratio_loops(target)
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


def bilinear_upsample_loops(grid, factor):
    """Half-pixel aligned bilinear upsampling, one output pixel at a time.

    Each output pixel's centre maps back to a source coordinate that is
    clamped to the grid (edge values extend outward) and interpolated from
    its four surrounding source pixels.
    """
    h, w = grid.shape
    out = np.zeros((h * factor, w * factor))
    for oy in range(h * factor):
        sy = min(max((oy + 0.5) / factor - 0.5, 0.0), h - 1.0)
        y0 = int(math.floor(sy))
        y1 = min(y0 + 1, h - 1)
        fy = sy - y0
        for ox in range(w * factor):
            sx = min(max((ox + 0.5) / factor - 0.5, 0.0), w - 1.0)
            x0 = int(math.floor(sx))
            x1 = min(x0 + 1, w - 1)
            fx = sx - x0
            out[oy, ox] = (
                (1 - fy) * (1 - fx) * grid[y0, x0]
                + (1 - fy) * fx * grid[y0, x1]
                + fy * (1 - fx) * grid[y1, x0]
                + fy * fx * grid[y1, x1]
            )
    return out


class PnmLoopsError(Exception):
    """A malformed PNM blob, with the byte offset the loop parser stopped at."""

    def __init__(self, offset, message):
        super().__init__(f"{message} at byte {offset}")
        self.offset = offset
        self.message = message


_PNM_WHITESPACE = b" \t\r\n\v\f"


def read_pnm_loops(blob, magic, samples, pos=0):
    """Byte-at-a-time parse and decode of the one P5/P6 image at byte ``pos``.

    Header whitespace and ``#`` comments are skipped one byte at a time and
    integers are read digit by digit; errors carry the same messages and
    absolute byte offsets ``agnnseg.pnm`` gives.  Returns the (H, W, samples)
    image, or (H, W) for P5, and the offset just past its payload.
    """

    def fail(message):
        raise PnmLoopsError(pos, message)

    def read_int():
        nonlocal pos
        while pos < len(blob):
            c = blob[pos : pos + 1]
            if c in _PNM_WHITESPACE:
                pos += 1
            elif c == b"#":
                while pos < len(blob) and blob[pos : pos + 1] != b"\n":
                    pos += 1
            else:
                break
        start = pos
        while pos < len(blob) and blob[pos : pos + 1].isdigit():
            pos += 1
        if pos == start:
            fail("expected an integer")
        return int(blob[start:pos])

    if blob[pos : pos + 2] != magic:
        fail(f"bad magic {blob[pos : pos + 2]!r}, expected {magic!r}")
    pos += 2
    width = read_int()
    height = read_int()
    if width <= 0 or height <= 0:
        fail(f"bad dimensions {width}x{height}")
    maxval = read_int()
    if maxval != 255:
        fail(f"maxval {maxval} unsupported, must be 255")
    if pos >= len(blob) or blob[pos : pos + 1] not in _PNM_WHITESPACE:
        fail("expected single whitespace before payload")
    pos += 1
    expected = width * height * samples
    have = len(blob) - pos
    if have < expected:
        pos = len(blob)
        fail(f"payload truncated: need {expected} bytes, have {have}")
    out = np.zeros((height, width, samples), dtype=np.uint8)
    for y in range(height):
        for x in range(width):
            for s in range(samples):
                out[y, x, s] = blob[pos + (y * width + x) * samples + s]
    return (out[:, :, 0] if samples == 1 else out), pos + expected


def read_pnm_file_loops(blob, magic, samples):
    """A multi-image file decoded image by image with ``read_pnm_loops``.

    After each image, the next starts if the bytes left begin with the
    magic and are trailing data otherwise; every image must have the first
    one's size.  Returns the (T, ...) uint8 stack.
    """
    images, pos = [], 0
    while True:
        start = pos
        image, pos = read_pnm_loops(blob, magic, samples, start)
        if images and image.shape != images[0].shape:
            (h, w), (ref_h, ref_w) = image.shape[:2], images[0].shape[:2]
            raise PnmLoopsError(start, f"image {len(images)} size {w}x{h} differs "
                                       f"from {ref_w}x{ref_h} of image 0")
        images.append(image)
        if pos == len(blob):
            return np.stack(images)
        if blob[pos : pos + 2] != magic:
            raise PnmLoopsError(pos, f"trailing data: {len(blob) - pos} extra bytes")
