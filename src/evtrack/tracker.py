"""End-to-end tracking loop wiring all modules together.

Per frame: crop the search region at the previous prediction, embed it into
the backbone input, run the backbone, decode the head outputs back to frame
coordinates. Every `update_interval` frames (a tick) the predicted crop's
embedded feature is pushed into short-term memory after the frame is
tracked. `decode_bbox` bounds every predicted box to the frame: its centre
lies on the frame's pixels, and each side in [`head.MIN_BOX_SIDE`, the
frame's side], so the next search crop always overlaps the sensor. The
tracker keeps no counters: a `debug_stream` given to it receives the
memory's records, one `st_push` per tick and one `route` per fuse.

The backbone input is one (2 N_z + N_x, C) array per tracker, laid out at
fixed row offsets: the static template in rows [0, N_z), the dynamic
template in [N_z, 2 N_z) and the search region in the last N_x rows, with
N_z = `n_template_tokens` and N_x = `n_search_tokens` of the config. `init`
writes the static rows once (embedding plus `pos_embed_template`); every
install of a dynamic template, inline or from the worker, copies it into the
dynamic rows on the stepping thread, and those rows are the only copy of the
installed template; each frame embeds its search crop straight into the
search rows and adds `pos_embed_search` in place. The head reads the
backbone output's last N_x rows. The array is a plain attribute rather than
a `Workspace` buffer because the static and dynamic rows must persist
across steps, and a Workspace leaves a buffer's contents undefined between
takes.

The dynamic template (route, then fuse the routed library) is a pure
function of the memory contents: a fuse routes `memory.st[-1]`, the last
pushed feature (the initial one until the first tick), and only `init` and
a tick's push change the memory. So it is generated in `init`, and
afterwards only when a push has happened since the last generation: for the
next tick's frame by default, or for the very next frame with
`regenerate_every_frame`. Every other frame reuses the last template.

By default the fuse runs behind the frames that do not read it. A tick's
push (end of frame t) fixes every input of the next fuse, and nothing reads
its result before the next tick, t + update_interval. So at the start of
frame t + 1 the fuse starts on a worker thread, while frames t + 1 ...
keep the old template; at the start of the next tick the tracker joins the
worker and installs its result, so every frame sees the template it would
see if the fuse ran inline there. A worker's error is raised at that tick
as a template-fuse failure. A fuse needed on the frame where it would start
(`init`, `regenerate_every_frame`, `update_interval` 1) runs inline on the
stepping thread instead. A step that raises joins an in-flight fuse first
and keeps its outcome for the next tick, and `track_frames` joins (by
`close`) before it returns, so a sequence ends by waiting for at most one
fuse. At most one fuse is in flight: pushes happen only at ticks, after
the join.

Each tracker owns two backbone Workspaces: `workspace` for the frame
backbone and inline fuses, `fuse_workspace` for the worker's fuses. They
live as long as the tracker because a workspace built per call would
re-allocate, and re-fault, about 11 MiB of Vim-S scratch on every backbone
pass; each grows only when a longer sequence first arrives (an LT fuse is up
to 1024 tokens), and stepping then allocates nothing large.

A frame that fails raises, and `track_frames` (so the CLI) stops there; no
policy holds the last box in its place. Every `Exception` raised inside a
step, a non-finite activation as much as a worker's fuse error, is raised
again as "frame t: <original message>", of the same type where its
constructor takes a message alone (else RuntimeError), caused by the
original.

`init` forks the tracker's `helper` (module `helper`): a child process
that runs each Vim block's backward direction while the stepping thread
runs the forward one, for the frame backbone and every inline fuse. Its
shared buffers hold the longest sequence the config allows: a frame
(2 N_z + N_x tokens) or a fuse of a full library (max(st, lt capacity)
N_z). The worker's fuses run both directions on the worker thread, as
`backbone()` does without a helper, and so does every pass on a platform
without `os.fork`. The outputs are bit-identical either way.

The model is fixed from `init`. The child was forked with the model
already built, and reads its backbone copy-on-write, so it would never see
a later write. While the helper is open the backbone's arrays are
therefore read-only, and a write raises instead of desyncing the two
processes. OpenBLAS is pinned to one thread for as long, so the two
processes keep to one core each.

`close` joins the worker and stops the helper, which lifts both; the
tracker may still step afterwards, running both directions in this
process. `track_frames` closes its tracker before it returns or raises. A
tracker dropped without `close` stops its helper when it is
garbage-collected, and the process's exit, however abrupt, ends the
child.
"""

from __future__ import annotations

import threading
from typing import IO, Iterable

import numpy as np

from .backbone import backbone
from .config import TrackerConfig
from .events import BBox, EventFrame, EventStream, crop_region, iter_event_frames
from .fusion import generate_dynamic_template
from .head import decode_bbox, head_forward
from .helper import fork_helper
from .memory import MemoryLibrary, TemplateFeature
from .model import ModelParams
from .ops import Workspace
from .tokenizer import patch_embed


class _FuseWorker(threading.Thread):
    """One `generate_dynamic_template` call; keeps its result or its error."""

    def __init__(self, *args):
        # Not a daemon: interpreter exit waits for at most one fuse rather
        # than stopping a thread inside numpy.
        super().__init__(name="evtrack-fuse")
        self._args = args
        self.result: np.ndarray | None = None
        self.error: BaseException | None = None

    def run(self) -> None:
        try:
            self.result = generate_dynamic_template(*self._args)
        except BaseException as exc:  # raised on the stepping thread at install
            self.error = exc


def _reworded(error: BaseException, message: str) -> BaseException:
    """`message` as an exception of error's type, or as a RuntimeError where
    that type's constructor does not take a message alone."""
    try:
        return type(error)(message)
    except Exception:
        return RuntimeError(message)


class Tracker:
    """Single-sequence tracker; mutable state is this instance's alone."""

    def __init__(self, config: TrackerConfig, model: ModelParams,
                 debug_stream: IO[str] | None = None):
        self.config = config
        self.model = model
        self.memory = MemoryLibrary(st_capacity=config.st_capacity,
                                    lt_capacity=config.lt_capacity,
                                    debug_stream=debug_stream)
        self.workspace = Workspace()
        self.fuse_workspace = Workspace()
        self._n_z = config.n_template_tokens
        self._n_x = config.n_search_tokens
        # [static | dynamic | search]; see the module docstring.
        self._tokens = np.empty((2 * self._n_z + self._n_x, config.embed_dim),
                                model.patch_embed.projection.dtype)
        self._dynamic_stale = False  # a push happened since the last fuse started
        self._fuse: _FuseWorker | None = None  # started, not yet installed
        self.helper = None  # forked by init
        self._frame_index = 0
        self._box: BBox | None = None

    # -- helpers -----------------------------------------------------------

    def _template_feature(self, frame: EventFrame, box: BBox, frame_index: int) -> TemplateFeature:
        patch = crop_region(frame, box, self.config.template_context,
                            self.config.template_size)
        tokens = patch_embed(patch, self.model.patch_embed)
        return TemplateFeature(tokens=tokens, frame_index=frame_index)

    def _install(self, dynamic: np.ndarray) -> None:
        self._tokens[self._n_z:2 * self._n_z] = dynamic

    def _regenerate_dynamic(self) -> None:
        self._install(generate_dynamic_template(
            self.memory, self.memory.st[-1], self.model.backbone, self.workspace, self.helper))
        self._dynamic_stale = False

    def _start_fuse(self) -> None:
        self._fuse = _FuseWorker(self.memory, self.memory.st[-1], self.model.backbone,
                                 self.fuse_workspace)
        self._dynamic_stale = False
        self._fuse.start()

    def _install_fuse(self) -> None:
        self.join()
        worker, self._fuse = self._fuse, None
        if worker.error is not None:
            self._dynamic_stale = True  # the next tick's fuse retries, as inline
            error = worker.error
            raise _reworded(error, f"template fuse failed: {error}") from error
        self._install(worker.result)

    def _update_template(self, tick: bool) -> None:
        if self._fuse is not None:
            if tick:
                self._install_fuse()
        elif self._dynamic_stale:
            if tick or self.config.regenerate_every_frame:
                self._regenerate_dynamic()
            else:
                self._start_fuse()

    @property
    def fuse_running(self) -> bool:
        """Whether a worker is still running a fuse."""
        return self._fuse is not None and self._fuse.is_alive()

    def join(self) -> None:
        """Wait for an in-flight fuse.

        The fuse's result or error is kept, and installed or raised at the
        next tick as usual.
        """
        if self._fuse is not None:
            self._fuse.join()

    def close(self) -> None:
        """Join an in-flight fuse and stop the helper process, which releases
        its BLAS pin and the backbone's read-only flags. Idempotent; later
        steps run both directions in this process."""
        self.join()
        if self.helper is not None:
            self.helper.close()
            self.helper = None

    # -- protocol ----------------------------------------------------------

    def init(self, frame: EventFrame, init_box: BBox) -> BBox:
        """Initialize from the first frame; returns the init box unchanged."""
        if not (0 <= init_box.cx < frame.width and 0 <= init_box.cy < frame.height):
            raise ValueError("init box outside frame")
        initial = self._template_feature(frame, init_box, frame_index=0)
        self.memory.init_memory(initial)  # raises on a second init, before any write or fork
        n_z, cfg = self._n_z, self.config
        # The longest sequence: a frame, or a fuse of a full library.
        tokens = max(2 * n_z + self._n_x, max(cfg.st_capacity, cfg.lt_capacity) * n_z)
        self.helper = fork_helper(self.model.backbone, tokens)
        np.add(initial.tokens, self.model.patch_embed.pos_embed_template,
               out=self._tokens[:self._n_z])
        self._regenerate_dynamic()
        self._box = init_box
        return init_box

    def step(self, frame: EventFrame) -> BBox:
        """Track one frame; returns the predicted box in frame coordinates."""
        if self._box is None:
            raise ValueError("tracker not initialized")
        self._frame_index += 1
        t = self._frame_index
        tick = t % self.config.update_interval == 0
        try:
            self._update_template(tick)
            box = self._track(frame)
            if tick:
                self.memory.st_push(self._template_feature(frame, box, frame_index=t))
                self._dynamic_stale = True
        except Exception as exc:
            self.join()
            raise _reworded(exc, f"frame {t}: {exc}") from exc
        except BaseException:
            self.join()
            raise
        self._box = box
        return box

    def _track(self, frame: EventFrame) -> BBox:
        """The box predicted on `frame` with the current dynamic template."""
        cfg = self.config
        search_patch = crop_region(frame, self._box, cfg.search_context, cfg.search_size)
        search = patch_embed(search_patch, self.model.patch_embed,
                             out=self._tokens[-self._n_x:])
        search += self.model.patch_embed.pos_embed_search

        out = backbone(self._tokens, self.model.backbone, self.workspace, self.helper)
        outputs = head_forward(out[-self._n_x:], self.model.head)
        return decode_bbox(outputs, search_patch, frame.width, frame.height)


def track_frames(config: TrackerConfig, model: ModelParams,
                 frames: Iterable[EventFrame], init_box: BBox,
                 debug_stream: IO[str] | None = None) -> list[BBox]:
    """Track over frames, stepping each as it arrives; the first output box
    is init_box. The tracker is closed before this returns or raises."""
    frames = iter(frames)
    first = next(frames, None)
    if first is None:
        return []
    tracker = Tracker(config, model, debug_stream)
    try:
        boxes = [tracker.init(first, init_box)]
        for frame in frames:
            boxes.append(tracker.step(frame))
    finally:
        tracker.close()
    return boxes


def track_sequence(config: TrackerConfig, model: ModelParams,
                   stream: EventStream, init_box: BBox,
                   debug_stream: IO[str] | None = None) -> list[BBox]:
    """Track a stream one stacked window at a time; one box per window.

    Each frame is stacked just before it is tracked and dropped after, so
    memory does not grow with the sequence's length.
    """
    return track_frames(config, model, iter_event_frames(stream, config.window_us),
                        init_box, debug_stream)
