"""OpenBLAS's thread count, read and set through the copy numpy loaded.

The tracker runs a template fuse on a worker thread next to the frame's own
backbone pass. OpenBLAS's default pool would put its second thread on the
core the worker needs, so the tracker pins BLAS to one thread while a fuse
is in flight and restores it afterwards.

The count is process-wide: this OpenBLAS's `openblas_set_num_threads_local`
sets it for every thread too. So change it only from the thread that steps
the tracker, and never while another thread may be inside a BLAS call.
`restore` returns to the count saved when this module first pinned, so a
tracker dropped mid-fuse cannot leave BLAS pinned past the next restore.
Without a matching OpenBLAS (a different BLAS, or a system copy under
other names), every function here does nothing and `threads` is None.
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

_saved: int | None = None  # the count before the first pin


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
    """Set OpenBLAS to one thread, saving the count on the first pin."""
    global _saved
    fns = _functions()
    if fns is None:
        return
    if _saved is None:
        _saved = int(fns[0]())
    fns[1](1)


def restore() -> None:
    """Set OpenBLAS back to the count saved by the first pin, if any."""
    fns = _functions()
    if fns is not None and _saved is not None:
        fns[1](_saved)
