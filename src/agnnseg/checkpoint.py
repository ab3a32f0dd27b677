"""Checkpoint files: magic "AGNN", a version word, then named tensor records.

Record layout (all integers little-endian u32): name length, name bytes
(utf-8), rank, one u32 per dim, then the payload as little-endian float64
in row-major order.  Scalars are rank 0 with a single float.  Model
hyperparameters ride along as rank-0 records under the ``meta.`` prefix; a
``meta.`` record of any other rank is malformed.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .errors import FormatError

MAGIC = b"AGNN"
FORMAT_VERSION = 1
META_PREFIX = "meta."


def write_checkpoint(path, named_arrays, meta):
    """Write (name, array) pairs plus scalar metadata, in the given order."""
    records = list(named_arrays)
    for key, value in sorted(meta.items()):
        records.append((META_PREFIX + key, np.asarray(float(value))))
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", FORMAT_VERSION))
        for name, arr in records:
            arr = np.asarray(arr, dtype="<f8")
            encoded = name.encode("utf-8")
            f.write(struct.pack("<I", len(encoded)))
            f.write(encoded)
            f.write(struct.pack("<I", arr.ndim))
            for dim in arr.shape:
                f.write(struct.pack("<I", dim))
            f.write(np.ascontiguousarray(arr).tobytes())


def read_checkpoint(path):
    """Read back (tensors: dict name -> float64 array, meta: dict name -> float).

    Malformed content raises :class:`FormatError` at the offending byte; a
    record whose name an earlier record used is malformed from its first byte,
    and a zero dim, which no tensor has, at that dim.
    """
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:4] != MAGIC:
        raise FormatError(path, 0, f"bad magic {blob[:4]!r}")
    pos = 4
    tensors = {}
    meta = {}
    names = set()
    try:
        (version,) = struct.unpack_from("<I", blob, pos)
        if version != FORMAT_VERSION:
            raise FormatError(path, pos, f"unsupported format version {version}")
        pos += 4
        while pos < len(blob):
            start = pos
            (name_len,) = struct.unpack_from("<I", blob, pos)
            pos += 4
            if pos + name_len > len(blob):
                raise FormatError(path, pos, "truncated record name")
            name = blob[pos : pos + name_len].decode("utf-8")
            if name in names:
                raise FormatError(path, start, f"duplicate record {name!r}")
            names.add(name)
            pos += name_len
            (rank,) = struct.unpack_from("<I", blob, pos)
            if rank and name.startswith(META_PREFIX):
                raise FormatError(path, pos, f"meta record {name!r} has rank {rank}, must be 0")
            pos += 4
            if rank > 4:
                raise FormatError(path, pos, f"rank {rank} exceeds 4")
            dims = []
            for _ in range(rank):
                dims.append(struct.unpack_from("<I", blob, pos)[0])
                if dims[-1] == 0:
                    raise FormatError(path, pos, f"record {name!r} has a zero dim")
                pos += 4
            count = math.prod(dims)  # exact: numpy's int64 product can wrap to 0
            nbytes = count * 8
            if pos + nbytes > len(blob):
                raise FormatError(path, pos, f"truncated payload: need {nbytes} bytes")
            arr = np.frombuffer(blob, dtype="<f8", count=count, offset=pos).reshape(dims)
            pos += nbytes
            if name.startswith(META_PREFIX):
                meta[name[len(META_PREFIX) :]] = float(arr)
            else:
                tensors[name] = arr.astype(np.float64)
    except (struct.error, UnicodeDecodeError) as exc:
        raise FormatError(path, pos, f"truncated or malformed record ({exc})") from None
    return tensors, meta
