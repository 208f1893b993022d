"""A forked process that runs each Vim block's backward direction.

A Vim block's two directions share nothing between `in_proj` and their sum:
each runs its own causal conv -> SiLU -> selective scan over the x branch,
one over the tokens in order and one over them reversed. The scans take
most of a backbone pass, and threads cannot overlap them, because the scan
recurrence holds the interpreter lock between ufunc calls. A process can.

`fork_helper` forks one child after the model is built, so the child
shares the weights copy-on-write. Per block, `submit` copies the x branch
into an anonymous shared mmap and sends the block's index over a pipe; the
child runs `backbone.vim_backward` into a second shared buffer while the
parent runs the forward direction; `result` waits for the child's reply
and returns a view of that buffer. The child runs the same function on
the same values as the in-process path, so the two are bit-identical.

Lifetime. The child serves until its request pipe reaches EOF: when the
helper is closed, dropped, or its process exits, however abruptly. Right
after fork the child closes every file descriptor it inherited but stdio
and its own two pipe ends, so it holds open no other helper's pipe and no
file or pipe of the caller's. `close` (also run when the helper is
garbage-collected, and at interpreter exit) closes the pipes and reaps the
child, killing it if it has not exited within _EXIT_WAIT_S. While a helper
is open:
- the backbone's arrays are read-only. The child holds a copy-on-write
  snapshot of them taken at fork, and would not see a later write, so a
  write fails loudly instead. They are writable again once the last helper
  on that backbone closes.
- OpenBLAS runs one thread (`blas.pin_one`), so the parent and the child
  each keep to one core. The pin is taken before the fork, so the child
  inherits it.

Errors. The child answers each request with one byte, _OK or _FAILED.
On _FAILED, `result` reruns the direction in this process on the same
input, still in the shared buffer. That raises the child's error, of the
same type and message; if the error was the child's alone, it gives the
right output instead. A dead child makes `submit` or `result` raise
RuntimeError at once, naming how it ended. An exception in the parent
between `submit` and `result` leaves the reply unread; the next `submit`
reads and drops it first, so no pass ever reads a stale reply.

One thread at a time may use a helper. A process that forks while another
of its threads is inside BLAS may leave the child a lock that thread held;
the tracker forks in `init`, before it starts any thread of its own.
"""

from __future__ import annotations

import gc
import mmap
import os
import select
import signal
import struct
import weakref

import numpy as np

from . import blas
from .backbone import BackboneParams, VimBlockParams, vim_backward
from .model import named_arrays
from .ops import Workspace

# Block index, tokens. One write of fewer than PIPE_BUF bytes, so one read
# takes it whole.
_REQUEST = struct.Struct("=ii")
_OK, _FAILED = b"\0", b"\1"
# How long a closed helper's child may take to exit before it is killed.
_EXIT_WAIT_S = 5.0

# id(params) -> (open helpers on it, the arrays they made read-only).
_frozen: dict[int, tuple[int, list[np.ndarray]]] = {}


def fork_helper(params: BackboneParams, max_tokens: int) -> BackwardHelper | None:
    """A helper for `params` and sequences up to `max_tokens` tokens; None
    where the platform cannot fork."""
    if not hasattr(os, "fork"):
        return None
    return BackwardHelper(params, max_tokens)


def _freeze(params: BackboneParams) -> None:
    users, arrays = _frozen.get(id(params), (0, None))
    if arrays is None:
        arrays = [a for _, a, _ in named_arrays(params) if a.flags.writeable]
        for a in arrays:
            a.flags.writeable = False
    _frozen[id(params)] = (users + 1, arrays)


def _thaw(params: BackboneParams) -> None:
    users, arrays = _frozen.pop(id(params))
    if users > 1:
        _frozen[id(params)] = (users - 1, arrays)
        return
    for a in arrays:
        a.flags.writeable = True


def _exits_within(pid: int, timeout: float) -> bool:
    """Whether child `pid` exits within `timeout` seconds; True at once where
    there is no pidfd to wait on, so the caller then waits without a bound."""
    try:
        fd = os.pidfd_open(pid)
    except (AttributeError, OSError):
        return True
    try:
        return bool(select.select([fd], [], [], timeout)[0])
    finally:
        os.close(fd)


class _Child:
    """The parent's handle on one helper process, shared with its finalizer."""

    def __init__(self, pid: int, fds: tuple[int, int], params: BackboneParams):
        self.pid, self.fds, self.params = pid, fds, params
        self.owner = os.getpid()
        self.exit: str | None = None  # how the child ended, once reaped

    def reap(self, timeout: float | None = None) -> str:
        """Wait for the child, killing it after `timeout` seconds if given;
        returns how it ended."""
        if self.exit is None:
            if timeout is not None and not _exits_within(self.pid, timeout):
                os.kill(self.pid, signal.SIGKILL)
            try:
                code = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
                self.exit = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
            except ChildProcessError:  # reaped elsewhere, e.g. with SIGCHLD ignored
                self.exit = "exited"
        return self.exit

    def stop(self) -> None:
        if os.getpid() != self.owner:  # a forked copy of the owner: not ours to stop
            return
        try:
            for fd in self.fds:
                os.close(fd)  # the child reads EOF and exits
            self.reap(_EXIT_WAIT_S)
        finally:
            blas.unpin()
            _thaw(self.params)


def _close_inherited(*keep: int) -> None:
    """Close every file descriptor but stdio and `keep`."""
    bounds = sorted({0, 1, 2, *keep}) + [os.sysconf("SC_OPEN_MAX")]
    for low, high in zip(bounds, bounds[1:]):
        os.closerange(low + 1, high)


def _serve(blocks: list[VimBlockParams], requests: int, replies: int,
           x: np.ndarray, y: np.ndarray) -> None:
    """The child's loop: one backward direction per request, until EOF."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent decides when to stop
    ws = Workspace()
    while request := os.read(requests, _REQUEST.size):
        index, n = _REQUEST.unpack(request)
        try:
            vim_backward(x[:n], blocks[index], ws, out=y[:n])
            reply = _OK
        except Exception:  # the parent reruns the direction and meets it itself
            reply = _FAILED
        os.write(replies, reply)


class BackwardHelper:
    """One forked child running the backward direction of `params`' blocks
    over sequences of up to `max_tokens` tokens. See the module docstring."""

    def __init__(self, params: BackboneParams, max_tokens: int):
        self._index = {id(block): i for i, block in enumerate(params.blocks)}
        self.dtype = params.blocks[0].in_proj.dtype
        self.max_tokens = max_tokens
        shape = (max_tokens, params.blocks[0].d_inner)
        nbytes = int(np.prod(shape)) * self.dtype.itemsize
        self._x = np.frombuffer(mmap.mmap(-1, nbytes), self.dtype).reshape(shape)
        self._y = np.frombuffer(mmap.mmap(-1, nbytes), self.dtype).reshape(shape)
        requests, request_w = os.pipe()
        reply_r, replies = os.pipe()
        _freeze(params)
        blas.pin_one()  # before the fork, so the child inherits it
        try:
            pid = os.fork()
        except BaseException:
            for fd in (requests, request_w, reply_r, replies):
                os.close(fd)
            blas.unpin()
            _thaw(params)
            raise
        if pid == 0:
            code = 1
            try:
                gc.disable()  # a collection could run finalizers of the parent's objects
                _close_inherited(requests, replies)
                _serve(params.blocks, requests, replies, self._x, self._y)
                code = 0
            finally:
                os._exit(code)
        os.close(requests)
        os.close(replies)
        self.pid = pid
        self._requests, self._replies = request_w, reply_r
        self._child = _Child(pid, (request_w, reply_r), params)
        self._stop = weakref.finalize(self, self._child.stop)
        # (block, tokens) of the request awaiting its reply
        self._pending: tuple[VimBlockParams, int] | None = None

    def close(self) -> None:
        """Stop the child, release the BLAS pin and the backbone's read-only
        flags. Idempotent."""
        self._stop()

    def submit(self, block: VimBlockParams, x: np.ndarray) -> None:
        """Start `block`'s backward direction over x, (tokens, d_inner)."""
        self._check_open()
        if self._pending is not None:
            self._reply()  # left by an interrupted pass; its outcome is moot
        index = self._index.get(id(block))
        if index is None:
            raise ValueError("block is not one of this helper's backbone")
        n = x.shape[0]
        if n > self.max_tokens or x.dtype != self.dtype:
            raise ValueError(f"helper takes up to {self.max_tokens} tokens of {self.dtype}, "
                             f"got {n} of {x.dtype}")
        self._x[:n] = x
        try:
            os.write(self._requests, _REQUEST.pack(index, n))
        except BrokenPipeError:
            raise self._died() from None
        self._pending = block, n

    def result(self) -> np.ndarray:
        """The submitted direction's output, (tokens, d_inner) in reversed
        token order, as `vim_backward` returns it; valid until the next
        submit."""
        self._check_open()
        block, n = self._pending
        if self._reply() == _FAILED:  # raises the child's error, or mends its own
            return vim_backward(self._x[:n], block)
        return self._y[:n]

    def _check_open(self) -> None:
        if not self._stop.alive:
            raise RuntimeError("the backward helper is closed")

    def _reply(self) -> bytes:
        """Read the pending request's reply. One byte: an interrupt either
        takes it whole or leaves it for the next call."""
        reply = os.read(self._replies, 1)
        if not reply:
            raise self._died()
        self._pending = None
        return reply

    def _died(self) -> RuntimeError:
        return RuntimeError(f"backward helper process {self.pid} died ({self._child.reap()})")
