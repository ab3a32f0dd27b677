"""Binary portable pixmap / graymap files (P6 frames, P5 masks).

A file holds one or more images back to back, with nothing between them: the
Netpbm multi-image format, so ``cat frame_*.ppm > frames.ppm`` turns one-image
files into one multi-image file.  Writers take a stack of images and emit the
minimal canonical header ``P6\\n<w> <h>\\n255\\n`` before each one, so a
write-read round trip is byte-exact.  The reader accepts standard whitespace
and ``#`` comments in every header, requires maxval 255 and one image size
throughout, and reports the absolute byte position of anything malformed;
bytes after an image that do not begin with the magic are trailing data.
Each header integer is matched, with the whitespace and comments before it,
by one compiled regular expression.

A file is read with one ``read`` and only its first header is parsed when
the file is T copies of that header, each followed by one payload: all T
headers are then compared at once on a (T, header + payload) view of the
bytes.  Any other file is parsed image by image.
"""

from __future__ import annotations

import re

import numpy as np

from .errors import FormatError

_WHITESPACE = b" \t\r\n\v\f"
# whitespace and comments (a comment runs to the next newline), then digits
_HEADER_INT = re.compile(rb"(?:[ \t\r\n\v\f]|#[^\n]*)*(\d*)")


def write_ppm(path, frames):
    """Write a (T, H, W, 3) uint8 stack as T binary P6 images in one file."""
    arr = np.asarray(frames)
    if arr.ndim != 4 or arr.shape[3] != 3 or arr.dtype != np.uint8:
        raise ValueError(f"P6 stack must be (T, H, W, 3) uint8, got {arr.shape} {arr.dtype}")
    _write(path, b"P6", arr)


def write_pgm(path, masks):
    """Write a (T, H, W) stack of binary masks as T P5 images of 255 and 0."""
    arr = np.asarray(masks)
    if arr.ndim != 3:
        raise ValueError(f"P5 stack must be 3-D, got shape {arr.shape}")
    _write(path, b"P5", np.where(arr.astype(bool), np.uint8(255), np.uint8(0)))


def _write(path, magic, images):
    height, width = images.shape[1:3]
    header = b"%s\n%d %d\n255\n" % (magic, width, height)
    with open(path, "wb") as f:
        for image in images:
            f.write(header)
            f.write(image.tobytes())


class _Parser:
    def __init__(self, blob, path):
        self.blob = blob
        self.pos = 0
        self.path = path

    def fail(self, message):
        raise FormatError(self.path, self.pos, message)

    def read_int(self):
        match = _HEADER_INT.match(self.blob, self.pos)
        self.pos = match.end()
        digits = match.group(1)
        if not digits:
            self.fail("expected an integer")
        try:
            return int(digits)
        except ValueError:  # more digits than int() converts
            self.fail(f"integer of {len(digits)} digits is too long")

    def image(self, magic, samples):
        """Parse the image at ``pos``; returns its shape, with ``pos`` past its payload."""
        blob = self.blob
        if blob[self.pos : self.pos + 2] != magic:
            self.fail(f"bad magic {blob[self.pos : self.pos + 2]!r}, expected {magic!r}")
        self.pos += 2
        width = self.read_int()
        height = self.read_int()
        if width <= 0 or height <= 0:
            self.fail(f"bad dimensions {width}x{height}")
        maxval = self.read_int()
        if maxval != 255:
            self.fail(f"maxval {maxval} unsupported, must be 255")
        if self.pos >= len(blob) or blob[self.pos : self.pos + 1] not in _WHITESPACE:
            self.fail("expected single whitespace before payload")
        self.pos += 1
        expected = width * height * samples
        have = len(blob) - self.pos
        if have < expected:
            self.pos = len(blob)
            self.fail(f"payload truncated: need {expected} bytes, have {have}")
        self.pos += expected
        return (height, width) if samples == 1 else (height, width, samples)


def _read_images(path, magic, samples):
    """The file's images as one (T, H, W[, samples]) uint8 array: a read-only
    view of the file's bytes when its headers all equal the first."""
    with open(path, "rb", buffering=0) as f:  # one read of the whole file, no buffer object
        blob = f.read()
    p = _Parser(blob, path)
    shape = p.image(magic, samples)
    size, payload = p.pos, int(np.prod(shape))
    header = size - payload
    data = np.frombuffer(blob, dtype=np.uint8)
    if len(blob) % size == 0:
        rows = data.reshape(-1, size)
        if (rows[1:, :header] == rows[0, :header]).all():
            return rows[:, header:].reshape((-1,) + shape)
    images = [data[header:size]]
    while p.pos < len(blob):
        start = p.pos
        if blob[start : start + 2] != magic:
            p.fail(f"trailing data: {len(blob) - start} extra bytes")
        got = p.image(magic, samples)
        if got != shape:
            (h, w), (ref_h, ref_w) = got[:2], shape[:2]
            raise FormatError(path, start, f"image {len(images)} size {w}x{h} differs "
                                           f"from {ref_w}x{ref_h} of image 0")
        images.append(data[p.pos - payload : p.pos])
    return np.stack(images).reshape((len(images),) + shape)


def read_ppm(path):
    """Read a binary P6 file of one or more images into a (T, H, W, 3) uint8 array."""
    return _read_images(path, b"P6", 3).copy()


def read_pgm(path):
    """Read a binary P5 file of one or more images as (T, H, W) bool masks:
    a sample of 128 or more is foreground."""
    return _read_images(path, b"P5", 1) >= 128
