"""Forked processes that run backbone work next to the stepping process.

Threads cannot overlap backbone work, because the scan recurrence holds the
interpreter lock between ufunc calls. A process can. `fork_helper` forks one
child after the model is built, so the child shares the weights
copy-on-write. Per request, the parent copies the input into an anonymous
shared mmap and sends the request over a pipe; the child writes its output
into a second shared buffer and replies; `result` waits for the reply and
returns a view of the output buffer. There are two kinds of child:

- `BackwardHelper` runs each Vim block's backward direction. A block's two
  directions share nothing between `in_proj` and their sum: each runs its
  own causal conv -> SiLU -> selective scan over the x branch, one over the
  tokens in order and one over them reversed. Per block, `submit` sends the
  x branch and the block's index, and the child runs `backbone.vim_backward`
  while the parent runs the forward direction.
- `PassHelper` runs whole `backbone()` passes (the tracker's deferred
  template fuses) at idle priority. `submit` returns at once the output
  buffer's rows, which hold the pass's output once `result` has returned.
  Right after fork the child sets itself to SCHED_IDLE, so it runs only on
  CPU time that every other runnable process leaves over; where the
  platform has no SCHED_IDLE, or refuses it, the child stays at normal
  priority. On one CPU, or on a host busy with other work, a pass therefore
  waits for idle time, however long that takes. An unprivileged process
  cannot leave SCHED_IDLE again, so the child keeps it for its life.

Each child runs the same function on the same values as the in-process path,
so the two are bit-identical at an equal BLAS thread count. The helper
takes no pin of its own: a child runs at the count in force at its fork.
The caller pins OpenBLAS to one thread first (`pin_one` in `blas`), so that
each process keeps to one core, and pins any in-process reference too; a
tracker holds one pin from `init` to `close`, taken before it forks.

Lifetime. `close` (also run when the helper is garbage-collected, and at
interpreter exit) kills the child with SIGKILL, closes the pipes and reaps
it. EOF matters only when the parent dies without `close`: the child then
reads EOF on its request pipe and exits. For that, right after fork the
child closes every file descriptor it inherited but stdio and its own two
pipe ends, so it holds open no other helper's pipe (a tracker's second
child not its first's) and no file or pipe of the caller's. While a helper
is open, the backbone's arrays are read-only: the child holds a
copy-on-write snapshot of them taken at fork, and would not see a later
write, so a write fails loudly instead. They are writable again once the
last helper on that backbone closes.

Errors. The child answers each request with one byte, _OK or _FAILED.
On _FAILED, `result` runs the request's `_work`, the child's own code, in
this process on the same input, still in the shared buffer, and counts it
in `reruns`. That raises the child's error, of the same type and message;
if the error was the child's alone, it writes the right output instead. A
dead child makes the next request or reply raise RuntimeError at once,
naming how it ended. An exception in the parent between request and reply
leaves the reply unread: a later `result` still reads it, and the next
request reads and drops it first, so no call ever reads a stale reply.

One thread at a time may use a helper. A process that forks while another
of its threads is inside BLAS may leave the child a lock that thread held;
the tracker starts no thread.
"""

from __future__ import annotations

import gc
import mmap
import os
import signal
import struct
import weakref

import numpy as np

from .backbone import BackboneParams, VimBlockParams, backbone, vim_backward
from .model import named_arrays
from .ops import Workspace

_OK, _FAILED = b"\0", b"\1"

# id(params) -> (open helpers on it, the arrays they made read-only).
_frozen: dict[int, tuple[int, list[np.ndarray]]] = {}


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


class _Child:
    """The parent's handle on one helper process, shared with its finalizer."""

    def __init__(self, pid: int, fds: tuple[int, int], params: BackboneParams):
        self.pid, self.fds, self.params = pid, fds, params
        self.owner = os.getpid()
        self.exit: str | None = None  # how the child ended, once reaped

    def reap(self) -> str:
        """Wait for the child; returns how it ended."""
        if self.exit is None:
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
            if self.exit is None:
                try:
                    os.kill(self.pid, signal.SIGKILL)
                except ProcessLookupError:  # reaped elsewhere
                    pass
            for fd in self.fds:
                os.close(fd)
            self.reap()
        finally:
            _thaw(self.params)


def _close_inherited(*keep: int) -> None:
    """Close every file descriptor but stdio and `keep`."""
    bounds = sorted({0, 1, 2, *keep}) + [os.sysconf("SC_OPEN_MAX")]
    for low, high in zip(bounds, bounds[1:]):
        os.closerange(low + 1, high)


def _shared(shape: tuple[int, int], dtype: np.dtype) -> np.ndarray:
    """A zeroed array in an anonymous mmap, shared with children forked later."""
    nbytes = int(np.prod(shape)) * dtype.itemsize
    return np.frombuffer(mmap.mmap(-1, nbytes), dtype).reshape(shape)


class Helper:
    """One forked child serving requests about `params` over sequences of up
    to `max_tokens` tokens: the scaffold both kinds share. A subclass sets
    `name` and `_request` (the request's struct, token count first; one
    write of fewer than PIPE_BUF bytes, so one read takes it whole) and
    defines `_work`, which the child runs per request, and the parent too
    when the child fails. See the module docstring."""

    name: str
    whole_pass = False  # whether `backbone()` hands this helper the whole pass
    _request: struct.Struct

    def __init__(self, params: BackboneParams, max_tokens: int, width_in: int, width_out: int):
        self.params = params
        self.dtype = params.blocks[0].in_proj.dtype
        self.max_tokens = max_tokens
        self.reruns = 0  # requests the child failed and this process reran
        self._pending: tuple | None = None  # the request awaiting its reply
        self._x = _shared((max_tokens, width_in), self.dtype)
        self._y = _shared((max_tokens, width_out), self.dtype)
        requests, request_w = os.pipe()
        reply_r, replies = os.pipe()
        _freeze(params)
        try:
            pid = os.fork()
        except BaseException:
            for fd in (requests, request_w, reply_r, replies):
                os.close(fd)
            _thaw(params)
            raise
        if pid == 0:
            code = 1
            try:
                gc.disable()  # a collection could run finalizers of the parent's objects
                _close_inherited(requests, replies)
                self._enter_child()
                self._serve(requests, replies)
                code = 0
            finally:
                os._exit(code)
        os.close(requests)
        os.close(replies)
        self.pid = pid
        self._requests, self._replies = request_w, reply_r
        self._child = _Child(pid, (request_w, reply_r), params)
        self._stop = weakref.finalize(self, self._child.stop)

    def close(self) -> None:
        """Kill and reap the child and release the backbone's read-only
        flags. Idempotent."""
        self._stop()

    def result(self) -> np.ndarray:
        """Wait for the submitted request; its output, (tokens, width_out),
        a view of the output buffer valid until the next submit."""
        self._check_open()
        request = self._pending
        if self._reply() == _FAILED:  # raises the child's error, or mends its own
            self.reruns += 1
            self._work(Workspace(), *request)
        return self._y[:request[0]]

    def _enter_child(self) -> None:
        """Run once in the child, right after fork."""

    def _work(self, ws: Workspace, n: int, *request) -> None:
        raise NotImplementedError

    def _serve(self, requests: int, replies: int) -> None:
        """The child's loop: one `_work` per request, until EOF."""
        signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent decides when to stop
        ws = Workspace()
        while request := os.read(requests, self._request.size):
            try:
                self._work(ws, *self._request.unpack(request))
                reply = _OK
            except Exception:  # the parent reruns the work and meets it itself
                reply = _FAILED
            os.write(replies, reply)

    def _send(self, x: np.ndarray, *request) -> None:
        """Copy x, (tokens, width_in), to the input buffer; send its length, then `request`."""
        self._check_open()
        if self._pending is not None:
            self._reply()  # left by an interrupted call; its outcome is moot
        n = x.shape[0]
        if n > self.max_tokens or x.dtype != self.dtype:
            raise ValueError(f"{self.name} takes up to {self.max_tokens} tokens of "
                             f"{self.dtype}, got {n} of {x.dtype}")
        self._x[:n] = x
        try:
            os.write(self._requests, self._request.pack(n, *request))
        except BrokenPipeError:
            raise self._died() from None
        self._pending = (n, *request)

    def _check_open(self) -> None:
        if not self._stop.alive:
            raise RuntimeError(f"the {self.name} is closed")

    def _reply(self) -> bytes:
        """Read the pending request's reply. One byte: an interrupt either
        takes it whole or leaves it for the next call."""
        reply = os.read(self._replies, 1)
        if not reply:
            raise self._died()
        self._pending = None
        return reply

    def _died(self) -> RuntimeError:
        return RuntimeError(f"{self.name} process {self.pid} died ({self._child.reap()})")


class BackwardHelper(Helper):
    """A child running the backward direction of `params`' blocks; its
    `result` is in reversed token order, as `vim_backward` returns it."""

    name = "backward helper"
    _request = struct.Struct("=ii")  # tokens, block index

    def __init__(self, params: BackboneParams, max_tokens: int):
        self._index = {id(block): i for i, block in enumerate(params.blocks)}
        d_inner = params.blocks[0].d_inner
        super().__init__(params, max_tokens, d_inner, d_inner)

    def _work(self, ws: Workspace, n: int, index: int) -> None:
        vim_backward(self._x[:n], self.params.blocks[index], ws, out=self._y[:n])

    def submit(self, block: VimBlockParams, x: np.ndarray) -> None:
        """Start `block`'s backward direction over x, (tokens, d_inner)."""
        index = self._index.get(id(block))
        if index is None:
            raise ValueError("block is not one of this helper's backbone")
        self._send(x, index)


class PassHelper(Helper):
    """A child at idle priority running whole backbone passes of `params`."""

    name = "pass helper"
    whole_pass = True
    _request = struct.Struct("=i")  # tokens

    def __init__(self, params: BackboneParams, max_tokens: int):
        super().__init__(params, max_tokens, params.blocks[0].in_proj.shape[0],
                         params.mlp.weight.shape[1])

    def _enter_child(self) -> None:
        if hasattr(os, "SCHED_IDLE"):
            try:
                os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
            except OSError:  # refused: the child stays at normal priority
                pass

    def _work(self, ws: Workspace, n: int) -> None:
        self._y[:n] = backbone(self._x[:n], self.params, ws)

    def submit(self, tokens: np.ndarray, params: BackboneParams) -> np.ndarray:
        """Start `backbone(tokens, params)` in the child; returns the output
        buffer's rows, which hold the pass once `result` returns."""
        if params is not self.params:
            raise ValueError("params are not this helper's backbone")
        self._send(tokens)
        return self._y[:tokens.shape[0]]


def fork_helper(params: BackboneParams, max_tokens: int,
                kind: type[Helper] = BackwardHelper) -> Helper | None:
    """A `kind` helper for `params` and sequences up to `max_tokens` tokens;
    None where the platform cannot fork. Its child runs at the BLAS thread
    count in force now: pin it first (`pin_one` in `blas`) until `close`."""
    if not hasattr(os, "fork"):
        return None
    return kind(params, max_tokens)
