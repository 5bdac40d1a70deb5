"""Binary checkpoint format for named complex parameter arrays.

Layout (all integers little-endian):

    magic     8 bytes   b"CDRVCKP1" (format version 1)
    meta_len  uint32    length of the metadata blob
    meta      meta_len bytes, UTF-8 JSON (model/config metadata; may be "{}")
    count     uint32    number of entries
    entry*:
      name_len  uint16
      name      name_len bytes, UTF-8
      ndim      uint8
      dims      ndim x uint32
      real      prod(dims) float64 little-endian, C order
      imag      prod(dims) float64 little-endian, C order

Round-trip save/load is bit-exact: arrays are written as raw float64 bytes.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np

from .errors import DataError

MAGIC = b"CDRVCKP1"


def save_checkpoint(path, arrays, meta=None):
    """Write ``{name: (real, imag)}`` float64 array pairs plus JSON metadata."""
    items = list(arrays.items())
    blob = json.dumps(meta if meta is not None else {}, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(struct.pack("<I", len(items)))
        for name, (real, imag) in items:
            real = np.ascontiguousarray(real, dtype=np.float64)
            imag = np.ascontiguousarray(imag, dtype=np.float64)
            if real.shape != imag.shape:
                raise DataError(f"{name}: real/imag shapes differ")
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<B", real.ndim))
            for d in real.shape:
                fh.write(struct.pack("<I", d))
            fh.write(real.astype("<f8", copy=False).tobytes(order="C"))
            fh.write(imag.astype("<f8", copy=False).tobytes(order="C"))


def load_checkpoint(path):
    """Read a checkpoint written by :func:`save_checkpoint`.

    Returns ``(arrays, meta)`` with ``arrays`` a ``{name: (real, imag)}``
    dict of float64 arrays and ``meta`` the decoded JSON metadata.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[: len(MAGIC)] != MAGIC:
        raise DataError(f"{path}: not a checkpoint file (bad magic)")
    off = len(MAGIC)

    def take(n):
        nonlocal off
        chunk = blob[off : off + n]
        if len(chunk) != n:
            raise DataError(f"{path}: truncated checkpoint")
        off += n
        return chunk

    (meta_len,) = struct.unpack("<I", take(4))
    try:
        meta = json.loads(take(meta_len).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError(f"{path}: corrupt metadata blob: {exc}") from exc
    (count,) = struct.unpack("<I", take(4))
    arrays = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2))
        try:
            name = take(name_len).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: corrupt entry name: {exc}") from exc
        (ndim,) = struct.unpack("<B", take(1))
        dims = tuple(struct.unpack("<I", take(4))[0] for _ in range(ndim))
        n = math.prod(dims)  # exact: a numpy product can overflow to 0
        real = np.frombuffer(take(8 * n), dtype="<f8").reshape(dims).copy()
        imag = np.frombuffer(take(8 * n), dtype="<f8").reshape(dims).copy()
        arrays[name] = (real, imag)
    if off != len(blob):
        raise DataError(f"{path}: trailing bytes after last entry")
    return arrays, meta
