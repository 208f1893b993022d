"""Small numeric primitives shared across modules.

The elementwise helpers take `out=` as numpy's ufuncs do: without it they
return a fresh array, with it they write there and return it. Either way
they run the same ufuncs in the same order, so the results are bit-identical.
"""

from __future__ import annotations

import math

import numpy as np

LAYER_NORM_EPS = 1e-6


class Workspace:
    """Named scratch buffers that outlive the call using them.

    `take(name, shape, dtype)` returns a C-contiguous view of the buffer kept
    under (name, dtype), grown, by at least a quarter, only when a larger
    one is asked for. Contents are undefined on return, and a later `take`
    of the same name hands out the same memory, so a caller keeps a view
    only until it asks for that name again.

    "scratch.0" and "scratch.1" are shared by every function: each uses them
    only for buffers that are dead when it returns, and passes them to no
    function that takes a workspace. So a buffer that was just written is
    the next one written, as a malloc free list would hand it out.

    A tracker's frame stages share the backbone's buffers the same way. The
    crop, the patch embedding and the head run while no backbone buffer is
    live, so they hold their frame-sized arrays in "in_proj", "conv",
    "silu", "y_fwd" and the scratch pair (each function names its own), and
    the workspace grows only where a stage needs more than a backbone pass
    does. Two results have names of their own: the frame backbone's
    output, "frame.out", which the head reads, and the head's three small
    maps, "head.score", "head.offset" and "head.size", which a tick's
    template crop after the head leaves intact.
    """

    def __init__(self):
        self._buffers: dict[tuple[str, str], np.ndarray] = {}

    def take(self, name: str, shape: tuple[int, ...], dtype) -> np.ndarray:
        dtype = np.dtype(dtype)
        size = math.prod(shape)
        key = (name, dtype.str)
        buf = self._buffers.get(key)
        if buf is None or buf.size < size:
            # Grown by at least a quarter, so a size that creeps up call by
            # call (a crop's rows as its box grows) does not re-allocate on
            # each; a large buffer's unwritten tail is never made resident.
            grown = size if buf is None else max(size, buf.size + buf.size // 4)
            buf = self._buffers[key] = np.empty(grown, dtype=dtype)
        return buf[:size].reshape(shape)

    @property
    def nbytes(self) -> int:
        return sum(b.nbytes for b in self._buffers.values())


def sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # exp(-x) overflows to inf for very negative x, which still yields the
    # correct limit 1/inf = 0; silence only that benign overflow.
    with np.errstate(over="ignore"):
        out = np.negative(x, out=out)
        np.exp(out, out=out)
        np.add(1.0, out, out=out)
        return np.divide(1.0, out, out=out)


def softplus(x: np.ndarray, out: np.ndarray | None = None,
             scratch: np.ndarray | None = None) -> np.ndarray:
    """max(x, 0) + log1p(exp(-|x|)); `scratch` (x's shape) holds max(x, 0).

    Neither `out` nor `scratch` may alias x.
    """
    out = np.abs(x, out=out)
    np.negative(out, out=out)
    np.exp(out, out=out)
    np.log1p(out, out=out)
    return np.add(np.maximum(x, 0, out=scratch), out, out=out)


def silu(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """x * sigmoid(x); `out` may not alias x."""
    out = sigmoid(x, out=out)
    return np.multiply(x, out, out=out)


def layer_norm(x: np.ndarray, scale: np.ndarray, shift: np.ndarray,
               out: np.ndarray | None = None) -> np.ndarray:
    """Per-row zero-mean/unit-variance normalization with learned scale/shift.

    The mean and variance are `x.mean` and `x.var` over the last axis,
    spelt out so that `out` is the only x-sized buffer; `out` may not alias x.
    """
    if out is None:
        out = np.empty(x.shape, dtype=np.result_type(x, scale, shift))
    mean = x.mean(axis=-1, keepdims=True)
    # x.var(axis=-1, keepdims=True), with out as its deviation buffer.
    np.subtract(x, mean, out=out)
    np.square(out, out=out)
    var = np.add.reduce(out, axis=-1, keepdims=True)
    np.true_divide(var, np.intp(x.shape[-1]), out=var, casting="unsafe")
    # (x - mean) / sqrt(var + eps) * scale + shift
    np.subtract(x, mean, out=out)
    np.divide(out, np.sqrt(var + LAYER_NORM_EPS), out=out)
    np.multiply(out, scale, out=out)
    return np.add(out, shift, out=out)
