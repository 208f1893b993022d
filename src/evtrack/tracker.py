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
install of a dynamic template, inline or from the pass helper, copies it
into the dynamic rows, and those rows are the only copy of the installed
template; each frame embeds its search crop straight into the search rows
and adds `pos_embed_search` in place. The head reads the
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
frame t + 1 the tracker routes and sends the fuse's backbone pass to its
`pass_helper` (module `helper`), a child process at idle priority, while
frames t + 1 ... keep the old template; at the start of the next tick it
waits for the child's reply and installs the result, so every frame sees
the template it would see if the fuse ran inline there. The child runs
only on CPU time the frames leave idle, so the pass spreads over frames
t + 1 ... t + update_interval - 1 instead of slowing frame t + 1. On one
CPU, or on a host busy with other work, the pass waits for idle time, and
the tick waits for the pass. A fuse's error is raised at that tick as a
template-fuse failure, and the next fuse retries. A fuse needed on the
frame where it would be sent (`init`, `regenerate_every_frame`,
`update_interval` 1) runs inline instead, and so does every fuse at the
tick where the tracker has no pass helper (the platform cannot fork, or
after `close`). A step that raises leaves a sent fuse in the child for the
next tick, an interrupt during the tick's wait included. At most one fuse
is in flight: pushes happen only at ticks, after the install.

The tracker owns one Workspace, `workspace`, for every frame-sized array
a step makes: the search and template crops, the patch embedding's
patches, the frame backbone and its result, the head, inline fuses and
every fuse's input sequence. The stages outside the backbone take the
backbone's own buffers (see `ops.Workspace`), so the workspace of a
vims-track run is 13.6 MiB, of which the backbone needs about 11. It lives as long as
the tracker: glibc maps every allocation of at least its mmap threshold
(128 KiB by default) afresh and faults its pages in, so arrays made per
step would be paid for again on every step. It grows only when a larger
array first arrives (an LT fuse is up to 1024 tokens; a crop's rows
follow its box). A warm step then allocates only per-axis and
per-channel vectors, numpy's iterator buffers and a tick's template
tokens.

A frame that fails raises, and `track_frames` (so the CLI) stops there; no
policy holds the last box in its place. Every `Exception` raised inside a
step, a non-finite activation as much as a deferred fuse's error, is raised
again as "frame t: <original message>", of the same type where its
constructor takes a message alone (else RuntimeError), caused by the
original.

`init` forks two children (module `helper`). The first, `helper`, runs
each Vim block's backward direction while the stepping thread runs the
forward one, for the frame backbone and every inline fuse. Its shared
buffers hold the longest sequence the config allows: a frame (2 N_z + N_x
tokens) or a fuse of a full library (max(st, lt capacity) N_z). The
second, `pass_helper`, runs the deferred fuses whole, and its buffers hold
a fuse of a full library. On a platform without `os.fork` every pass runs
in this process, as `backbone()` does without a helper. The outputs are
bit-identical either way.

From `init` to `close` the tracker holds one BLAS pin (`blas.pin_one`),
forked or not. It is taken before the forks, so both children run at the
one thread it sets: each process keeps to one core, and every pass runs at
the thread count the helpers' outputs are bit-identical at. The model is
fixed from `init`: while the children are open, its backbone is read-only.
Module `helper` says how a child ends and how its errors come back.

`close` drops a fuse in flight, closes both helpers and releases the pin;
the tracker may still step afterwards, running every pass in this process.
`track_frames` closes its tracker before it returns or raises, and a
tracker dropped without `close` is closed when it is garbage-collected.
"""

from __future__ import annotations

import weakref
from typing import IO, Iterable

import numpy as np

from . import blas
from .backbone import backbone
from .config import TrackerConfig
from .events import BBox, EventFrame, EventStream, crop_region, iter_event_frames
from .fusion import generate_dynamic_template
from .head import decode_bbox, head_forward
from .helper import PassHelper, fork_helper
from .memory import MemoryLibrary, TemplateFeature
from .model import ModelParams
from .ops import Workspace
from .tokenizer import patch_embed


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
        self._n_z = config.n_template_tokens
        self._n_x = config.n_search_tokens
        # [static | dynamic | search]; see the module docstring.
        self._tokens = np.empty((2 * self._n_z + self._n_x, config.embed_dim),
                                model.patch_embed.projection.dtype)
        self._dynamic_stale = False  # a push happened since the last fuse started
        self._fuse: np.ndarray | None = None  # sent, not yet installed
        self.helper = self.pass_helper = None  # forked by init
        self._unpin: weakref.finalize | None = None  # releases init's BLAS pin
        self._frame_index = 0
        self._box: BBox | None = None

    # -- helpers -----------------------------------------------------------

    def _template_feature(self, frame: EventFrame, box: BBox, frame_index: int) -> TemplateFeature:
        patch = crop_region(frame, box, self.config.template_context,
                            self.config.template_size, self.workspace)
        tokens = patch_embed(patch, self.model.patch_embed, ws=self.workspace)
        return TemplateFeature(tokens=tokens, frame_index=frame_index)

    def _install(self, dynamic: np.ndarray) -> None:
        self._tokens[self._n_z:2 * self._n_z] = dynamic

    def _fused(self, helper) -> np.ndarray:
        """Route and fuse the memory as it stands, with `helper`."""
        dynamic = generate_dynamic_template(
            self.memory, self.memory.st[-1], self.model.backbone, self.workspace, helper)
        self._dynamic_stale = False
        return dynamic

    def _install_fuse(self) -> None:
        # `_fuse` views the pass helper's output buffer, which holds the
        # template once `result` returns. An interrupt during the wait keeps
        # both, and the next tick waits again.
        try:
            self.pass_helper.result()
        except Exception as error:
            self._fuse, self._dynamic_stale = None, True  # the next fuse retries
            raise _reworded(error, f"template fuse failed: {error}") from error
        dynamic, self._fuse = self._fuse, None
        self._install(dynamic)

    def _update_template(self, tick: bool) -> None:
        if self._fuse is not None:
            if tick:
                self._install_fuse()
        elif self._dynamic_stale:
            if tick or self.config.regenerate_every_frame:
                self._install(self._fused(self.helper))
            elif self.pass_helper is not None:
                self._fuse = self._fused(self.pass_helper)

    def close(self) -> None:
        """Drop a fuse in flight (the next tick fuses inline), close both
        helpers, which lifts the backbone's read-only flags, and release
        init's BLAS pin. Idempotent; later steps run every pass in this
        process."""
        if self._fuse is not None:
            self._fuse, self._dynamic_stale = None, True
        for helper in (self.helper, self.pass_helper):
            if helper is not None:
                helper.close()
        self.helper = self.pass_helper = None
        if self._unpin is not None:
            self._unpin()

    # -- protocol ----------------------------------------------------------

    def init(self, frame: EventFrame, init_box: BBox) -> BBox:
        """Initialize from the first frame; returns the init box unchanged."""
        if not (0 <= init_box.cx < frame.width and 0 <= init_box.cy < frame.height):
            raise ValueError("init box outside frame")
        initial = self._template_feature(frame, init_box, frame_index=0)
        self.memory.init_memory(initial)  # raises on a second init, before any write or fork
        cfg = self.config
        fuse_tokens = max(cfg.st_capacity, cfg.lt_capacity) * self._n_z
        blas.pin_one()  # before the forks: both children run at this count
        self._unpin = weakref.finalize(self, blas.unpin)
        # The longest sequence: a frame, or a fuse of a full library.
        self.helper = fork_helper(self.model.backbone,
                                  max(2 * self._n_z + self._n_x, fuse_tokens))
        self.pass_helper = fork_helper(self.model.backbone, fuse_tokens, PassHelper)
        np.add(initial.tokens, self.model.patch_embed.pos_embed_template,
               out=self._tokens[:self._n_z])
        self._install(self._fused(self.helper))
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
            raise _reworded(exc, f"frame {t}: {exc}") from exc
        self._box = box
        return box

    def _track(self, frame: EventFrame) -> BBox:
        """The box predicted on `frame` with the current dynamic template."""
        cfg = self.config
        ws = self.workspace
        search_patch = crop_region(frame, self._box, cfg.search_context, cfg.search_size, ws)
        search = patch_embed(search_patch, self.model.patch_embed,
                             out=self._tokens[-self._n_x:], ws=ws)
        search += self.model.patch_embed.pos_embed_search

        out = backbone(self._tokens, self.model.backbone, ws, self.helper,
                       ws.take("frame.out", self._tokens.shape, self._tokens.dtype))
        outputs = head_forward(out[-self._n_x:], self.model.head, ws)
        return decode_bbox(outputs, search_patch, frame.width, frame.height)


def track_frames(config: TrackerConfig, model: ModelParams,
                 frames: Iterable[EventFrame], init_box: BBox) -> list[BBox]:
    """Track over frames, stepping each as it arrives; the first output box
    is init_box. The tracker is closed before this returns or raises."""
    frames = iter(frames)
    first = next(frames, None)
    if first is None:
        return []
    tracker = Tracker(config, model)
    try:
        boxes = [tracker.init(first, init_box)]
        for frame in frames:
            boxes.append(tracker.step(frame))
    finally:
        tracker.close()
    return boxes


def track_sequence(config: TrackerConfig, model: ModelParams,
                   stream: EventStream, init_box: BBox) -> list[BBox]:
    """Track a stream one stacked window at a time; one box per window.

    Each frame is stacked just before it is tracked and dropped after, so
    memory does not grow with the sequence's length.
    """
    return track_frames(config, model, iter_event_frames(stream, config.window_us),
                        init_box)
