"""Binary portable pixmap / graymap files (P6 frames, P5 masks).

Writers emit the minimal canonical header ``P6\\n<w> <h>\\n255\\n`` so a
write-read round trip is byte-exact.  The reader accepts standard whitespace
and ``#`` comments in the header, requires maxval 255, and reports the byte
position of anything malformed.
"""

from __future__ import annotations

import numpy as np

from .errors import FormatError

_WHITESPACE = b" \t\r\n\v\f"


def write_ppm(path, pixels):
    """Write an (H, W, 3) uint8 array as a binary P6 file."""
    arr = np.asarray(pixels)
    if arr.ndim != 3 or arr.shape[2] != 3 or arr.dtype != np.uint8:
        raise ValueError(f"P6 payload must be (H, W, 3) uint8, got {arr.shape} {arr.dtype}")
    h, w, _ = arr.shape
    with open(path, "wb") as f:
        f.write(b"P6\n%d %d\n255\n" % (w, h))
        f.write(arr.tobytes())


def write_pgm(path, mask):
    """Write a binary mask as P5 with foreground 255 and background 0."""
    arr = np.asarray(mask)
    if arr.ndim != 2:
        raise ValueError(f"P5 payload must be 2-D, got shape {arr.shape}")
    data = np.where(arr.astype(bool), np.uint8(255), np.uint8(0))
    h, w = data.shape
    with open(path, "wb") as f:
        f.write(b"P5\n%d %d\n255\n" % (w, h))
        f.write(data.tobytes())


class _Parser:
    def __init__(self, blob, path):
        self.blob = blob
        self.pos = 0
        self.path = path

    def fail(self, message):
        raise FormatError(self.path, self.pos, message)

    def skip_space_and_comments(self):
        while self.pos < len(self.blob):
            c = self.blob[self.pos : self.pos + 1]
            if c in _WHITESPACE:
                self.pos += 1
            elif c == b"#":
                while self.pos < len(self.blob) and self.blob[self.pos : self.pos + 1] != b"\n":
                    self.pos += 1
            else:
                return

    def read_int(self):
        self.skip_space_and_comments()
        start = self.pos
        while self.pos < len(self.blob) and self.blob[self.pos : self.pos + 1].isdigit():
            self.pos += 1
        if self.pos == start:
            self.fail("expected an integer")
        return int(self.blob[start : self.pos])


def _read_pnm(path, magic, samples):
    with open(path, "rb") as f:
        blob = f.read()
    p = _Parser(blob, path)
    if blob[:2] != magic:
        p.fail(f"bad magic {blob[:2]!r}, expected {magic!r}")
    p.pos = 2
    width = p.read_int()
    height = p.read_int()
    if width <= 0 or height <= 0:
        p.fail(f"bad dimensions {width}x{height}")
    maxval = p.read_int()
    if maxval != 255:
        p.fail(f"maxval {maxval} unsupported, must be 255")
    if p.pos >= len(blob) or blob[p.pos : p.pos + 1] not in _WHITESPACE:
        p.fail("expected single whitespace before payload")
    p.pos += 1
    expected = width * height * samples
    payload = blob[p.pos :]
    if len(payload) < expected:
        p.pos = len(blob)
        p.fail(f"payload truncated: need {expected} bytes, have {len(payload)}")
    if len(payload) > expected:
        p.pos += expected
        p.fail(f"trailing data: {len(payload) - expected} extra bytes")
    arr = np.frombuffer(payload, dtype=np.uint8)
    if samples == 1:
        return arr.reshape(height, width)
    return arr.reshape(height, width, samples)


def read_ppm(path):
    """Read a binary P6 file into an (H, W, 3) uint8 array."""
    return _read_pnm(path, b"P6", 3)


def read_pgm(path):
    """Read a binary P5 file into an (H, W) uint8 array."""
    return _read_pnm(path, b"P5", 1)
