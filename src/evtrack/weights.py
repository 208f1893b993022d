"""Binary weight files with bit-exact round trips.

Layout: 8-byte magic "MEVTW001", then one record per array:
    u32 name length, UTF-8 name, u32 rank, u32 dims[rank], float32 data.
All integers little-endian, data IEEE-754 binary32. Every array of the
model (learned parameters and batch-norm running statistics) appears
exactly once, keyed by its dotted path.

The model is float32, like the file. Reading starts with one pass over the
record headers, which seeks past the data. `load_weights` then checks every
name and shape against the model, and only after every check has passed
reads each record in place, straight into its model array. So a load needs
no second copy of the model, and a file that fails a check leaves the model
untouched.
"""

from __future__ import annotations

import os
import struct
import sys
from typing import BinaryIO, NamedTuple

import numpy as np

from .model import ModelParams, named_arrays

MAGIC = b"MEVTW001"


class WeightFileError(Exception):
    """Weight-file failure with a machine-readable `code`."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


def _read_exact(f: BinaryIO, n: int) -> bytes:
    data = f.read(n)
    if len(data) != n:
        raise WeightFileError("truncated", "unexpected end of file")
    return data


def write_weight_file(path, arrays: dict[str, np.ndarray]) -> None:
    with open(path, "wb") as f:
        f.write(MAGIC)
        for name, arr in arrays.items():
            if arr.dtype != np.float32:
                raise WeightFileError("dtype", f"{name}: weight files store float32 only")
            encoded = name.encode("utf-8")
            f.write(struct.pack("<I", len(encoded)))
            f.write(encoded)
            f.write(struct.pack("<I", arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            f.write(np.ascontiguousarray(arr, dtype="<f4"))


class _Record(NamedTuple):
    shape: tuple[int, ...]
    offset: int  # of the record's data in the file


def _scan_records(f: BinaryIO) -> dict[str, _Record]:
    """One pass over the record headers, in file order, skipping the data.

    Raises bad_magic, truncated (a header or data cut short) and duplicate
    in the order the records meet them.
    """
    if f.read(len(MAGIC)) != MAGIC:
        raise WeightFileError("bad_magic", "magic/version mismatch")
    size = os.fstat(f.fileno()).st_size
    records: dict[str, _Record] = {}
    while True:
        head = f.read(4)
        if len(head) == 0:
            break
        if len(head) != 4:
            raise WeightFileError("truncated", "unexpected end of file")
        (name_len,) = struct.unpack("<I", head)
        name = _read_exact(f, name_len).decode("utf-8")
        (rank,) = struct.unpack("<I", _read_exact(f, 4))
        dims = struct.unpack(f"<{rank}I", _read_exact(f, 4 * rank)) if rank else ()
        count = int(np.prod(dims, dtype=np.int64)) if rank else 1
        offset = f.tell()
        if offset + 4 * count > size:
            raise WeightFileError("truncated", "unexpected end of file")
        if name in records:
            raise WeightFileError("duplicate", f"duplicate parameter {name!r}")
        records[name] = _Record(tuple(dims), offset)
        f.seek(offset + 4 * count)
    return records


def save_weights(path, model: ModelParams) -> None:
    """Serialize every model array (parameters and buffers) to `path`."""
    write_weight_file(path, {name: arr for name, arr, _ in named_arrays(model)})


def load_weights(path, model: ModelParams) -> None:
    """Load arrays into an existing model, validating names and shapes.

    The file must contain exactly the model's arrays; loads are bit-exact.
    Every check runs before the first write: on any WeightFileError the
    model's arrays are as they were. Each record is read straight into its
    array, so every model array must be C-contiguous float32; `readinto`
    would otherwise fill a reshaped copy and leave the model unchanged.
    """
    targets = list(named_arrays(model))
    with open(path, "rb") as f:
        records = _scan_records(f)
        for name, arr, _ in targets:
            if arr.dtype != np.float32 or not arr.flags.c_contiguous:
                raise WeightFileError("dtype", f"{name}: model arrays must be "
                                               "C-contiguous float32")
            if name not in records:
                raise WeightFileError("missing_parameter", f"missing parameter {name!r}")
            shape = records[name].shape
            if shape != arr.shape:
                raise WeightFileError("shape_mismatch",
                                      f"{name}: expected {arr.shape}, file has {shape}")
        extra = records.keys() - {name for name, _, _ in targets}
        if extra:
            raise WeightFileError("unexpected_parameter",
                                  f"unexpected parameter {sorted(extra)[0]!r}")
        for name, arr, _ in targets:
            f.seek(records[name].offset)
            if f.readinto(arr.reshape(-1).view(np.uint8)) != arr.nbytes:
                raise WeightFileError("truncated", "unexpected end of file")
            if sys.byteorder == "big":
                arr.byteswap(inplace=True)
