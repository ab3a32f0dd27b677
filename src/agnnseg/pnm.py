"""Binary portable pixmap / graymap files (P6 frames, P5 masks).

Writers emit the minimal canonical header ``P6\\n<w> <h>\\n255\\n`` so a
write-read round trip is byte-exact.  The reader accepts standard whitespace
and ``#`` comments in the header, requires maxval 255, and reports the byte
position of anything malformed.  Each header integer is matched, with the
whitespace and comments before it, by one compiled regular expression.
``read_stack`` decodes a whole video's files, all of one size, into one
preallocated uint8 array.  It parses only the first file's header: a later
file whose length and header bytes equal the first file's is read straight
into its row of the array, and any other file goes through the full parse.
"""

from __future__ import annotations

import os
import re

import numpy as np

from .errors import FormatError

_WHITESPACE = b" \t\r\n\v\f"
# whitespace and comments (a comment runs to the next newline), then digits
_HEADER_INT = re.compile(rb"(?:[ \t\r\n\v\f]|#[^\n]*)*(\d*)")


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


def _read_pnm(path, magic, samples):
    """The decoded array and the header bytes before its payload."""
    with open(path, "rb", buffering=0) as f:  # one read of the whole file, no buffer object
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
    shape = (height, width) if samples == 1 else (height, width, samples)
    return arr.reshape(shape), blob[: p.pos]


def read_ppm(path):
    """Read a binary P6 file into an (H, W, 3) uint8 array."""
    return _read_pnm(path, b"P6", 3)[0]


def read_pgm(path):
    """Read a binary P5 file into an (H, W) uint8 array."""
    return _read_pnm(path, b"P5", 1)[0]


_LAYOUTS = {read_ppm: (b"P6", 3), read_pgm: (b"P5", 1)}


def read_stack(paths, read, ref=None):
    """Decode files of one size with ``read`` (``read_ppm`` or ``read_pgm``).

    Returns one (T, H, W, 3) or (T, H, W) uint8 array.  Only the first
    file's header is parsed.  Every later file is read with one ``readv``
    into a header-sized buffer, its row of the array and one spare byte; it
    is taken as it lands when it has exactly the first file's length and
    header bytes.  Any other file is decoded whole by ``read``, so a bad one
    raises the same FormatError as on its own.  Every file must have the
    height and width of ``ref``, a (path, shape) pair, or else of the first
    file; one that does not raises FormatError naming it and both sizes.
    """
    paths = list(paths)
    first, header = _read_pnm(paths[0], *_LAYOUTS[read])
    ref_path, ref_shape = ref or (paths[0], first.shape)
    ref_h, ref_w = ref_shape[:2]
    out = np.empty((len(paths),) + first.shape, dtype=np.uint8)
    size = len(header) + first.nbytes
    head, spare = bytearray(len(header)), bytearray(1)
    for t, path in enumerate(paths):
        if t:
            fd = os.open(path, os.O_RDONLY)
            try:
                got = os.readv(fd, [head, out[t], spare])
            except OSError:  # a directory, say: the whole read below names the path
                got = -1
            finally:
                os.close(fd)
            if got == size and head == header:
                continue
        arr = read(path) if t else first
        if arr.shape[:2] != (ref_h, ref_w):
            h, w = arr.shape[:2]
            raise FormatError(path, 0, f"size {w}x{h} differs from {ref_w}x{ref_h} of {ref_path}")
        out[t] = arr
    return out
