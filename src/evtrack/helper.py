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
after fork the child closes every other live helper's pipe ends, so no
child keeps another's pipe open. `close` (also run when the helper is
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

Errors. A child's exception comes back as an exception of the same type
and message, raised by `result`. A dead child makes `submit` or `result`
raise RuntimeError at once, naming how it ended. An exception in the parent
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
import pickle
import select
import signal
import struct
import weakref

import numpy as np

from . import blas
from .backbone import BackboneParams, VimBlockParams, vim_backward
from .model import named_arrays
from .ops import Workspace

_REQUEST = struct.Struct("=ii")  # block index, tokens
_ERROR_SIZE = struct.Struct("=I")
_OK, _ERROR = b"\0", b"\1"
# How long a closed helper's child may take to exit before it is killed.
_EXIT_WAIT_S = 5.0

# Child pid -> the parent's pipe ends, for every helper not yet closed.
_live: dict[int, tuple[int, int]] = {}
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
        del _live[self.pid]
        try:
            for fd in self.fds:
                os.close(fd)  # the child reads EOF and exits
            self.reap(_EXIT_WAIT_S)
        finally:
            blas.unpin()
            _thaw(self.params)


def _read_exactly(fd: int, n: int) -> bytes | None:
    """n bytes from fd; None at EOF."""
    data = b""
    while len(data) < n:
        chunk = os.read(fd, n - len(data))
        if not chunk:
            return None
        data += chunk
    return data


def _take_reply(inbox: bytearray) -> tuple[bool, BaseException | None]:
    """Take one whole reply off the front of inbox: (True, the child's error
    or None), or (False, None) while no whole reply has arrived."""
    if inbox[:1] == _OK:
        del inbox[:1]
        return True, None
    head = 1 + _ERROR_SIZE.size
    if len(inbox) < head:
        return False, None
    end = head + _ERROR_SIZE.unpack_from(inbox, 1)[0]
    if len(inbox) < end:
        return False, None
    error = pickle.loads(inbox[head:end])
    del inbox[:end]
    return True, error


def _serve(blocks: list[VimBlockParams], requests: int, replies: int,
           x: np.ndarray, y: np.ndarray) -> None:
    """The child's loop: one backward direction per request, until EOF."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent decides when to stop
    ws = Workspace()
    while (request := _read_exactly(requests, _REQUEST.size)) is not None:
        index, n = _REQUEST.unpack(request)
        try:
            vim_backward(x[:n], blocks[index], ws, out=y[:n])
            reply = _OK
        except Exception as exc:
            try:
                payload = pickle.dumps(exc)
            except Exception:
                payload = pickle.dumps(RuntimeError(f"{type(exc).__name__}: {exc}"))
            reply = _ERROR + _ERROR_SIZE.pack(len(payload)) + payload
        while reply:
            reply = reply[os.write(replies, reply):]


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
                for fd in (request_w, reply_r, *(fd for fds in _live.values() for fd in fds)):
                    os.close(fd)
                _serve(params.blocks, requests, replies, self._x, self._y)
                code = 0
            finally:
                os._exit(code)
        os.close(requests)
        os.close(replies)
        self.pid = pid
        self._requests, self._replies = request_w, reply_r
        self._child = _Child(pid, (request_w, reply_r), params)
        _live[pid] = self._child.fds
        self._stop = weakref.finalize(self, self._child.stop)
        self._inbox = bytearray()  # reply bytes read, not yet taken
        self._pending: int | None = None  # tokens of the request awaiting its reply

    def close(self) -> None:
        """Stop the child, release the BLAS pin and the backbone's read-only
        flags. Idempotent."""
        self._stop()

    def submit(self, block: VimBlockParams, x: np.ndarray) -> None:
        """Start `block`'s backward direction over x, (tokens, d_inner)."""
        self._check_open()
        if self._pending is not None:
            self._reply()  # left by an interrupted pass; its error is moot
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
        self._pending = n

    def result(self) -> np.ndarray:
        """The submitted direction's output, (tokens, d_inner) in reversed
        token order, as `vim_backward` returns it; valid until the next
        submit."""
        self._check_open()
        n = self._pending
        error = self._reply()
        if error is not None:
            raise error
        return self._y[:n]

    def _check_open(self) -> None:
        if not self._stop.alive:
            raise RuntimeError("the backward helper is closed")

    def _reply(self) -> BaseException | None:
        """Read the pending reply; returns the child's error, if any. Bytes
        read before an interrupt stay in the inbox for the next call."""
        while True:
            done, error = _take_reply(self._inbox)
            if done:
                self._pending = None
                return error
            chunk = os.read(self._replies, 1 << 16)
            if not chunk:
                raise self._died()
            self._inbox += chunk

    def _died(self) -> RuntimeError:
        return RuntimeError(f"backward helper process {self.pid} died ({self._child.reap()})")
