"""OpenBLAS's thread count, read and set through the copy numpy loaded.

A tracker's backward-scan helper process (`helper`) runs next to the
process that steps the tracker, one core each. OpenBLAS's default pool
would put a second thread on the core the other process needs, so every
open helper holds a pin to one thread: `pin_one` when it starts, before
its fork, so the child inherits the count, and `unpin` when it closes.
Pins nest: the first saves the count and the last `unpin` restores it.

The pin is load-bearing, though no output depends on it. On a 2-vCPU
Xeon VM, over 7 alternating pairs of `perfbench/run.py --workload
vims-track` (seeds 2-8), a copy whose `_functions` returned None (no pin)
read 0.55-0.66 fps, against 1.07-1.28 with the pin.

The count is process-wide: this OpenBLAS's `openblas_set_num_threads_local`
sets it for every thread too. So change it only while no other thread may
be inside a BLAS call. Without a matching OpenBLAS (a different BLAS, or a
system copy under other names), the count is left alone and `threads` is
None; the pins are still counted.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os

import numpy as np

# (get, set) symbol names, bundled scipy-openblas first.
_SYMBOLS = (("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
            ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
            ("openblas_get_num_threads", "openblas_set_num_threads"))

_pins = 0  # pins not yet unpinned
_saved: int | None = None  # the count before the first of them


@functools.cache
def _functions():
    """(get, set) from the OpenBLAS bundled with numpy, or None."""
    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                                  "numpy.libs", "*openblas*"))
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for get_name, set_name in _SYMBOLS:
            get, set_ = getattr(handle, get_name, None), getattr(handle, set_name, None)
            if get is not None and set_ is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                set_.restype, set_.argtypes = None, [ctypes.c_int]
                return get, set_
    return None


def threads() -> int | None:
    """OpenBLAS's current thread count; None if it cannot be found."""
    fns = _functions()
    return None if fns is None else int(fns[0]())


def pin_one() -> None:
    """Set OpenBLAS to one thread until the matching `unpin`."""
    global _pins, _saved
    _pins += 1
    fns = _functions()
    if _pins == 1 and fns is not None:
        _saved = int(fns[0]())
        fns[1](1)


def unpin() -> None:
    """Release one pin; the last restores the count saved by the first."""
    global _pins
    if _pins == 0:
        raise RuntimeError("unpin without a pin")
    _pins -= 1
    fns = _functions()
    if _pins == 0 and fns is not None and _saved is not None:
        fns[1](_saved)
