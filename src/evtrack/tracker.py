"""End-to-end tracking loop wiring all modules together.

Per frame: crop the search region at the previous prediction, tokenize,
assemble [static | dynamic | search], run the backbone, decode the head
outputs back to frame coordinates. Every `update_interval` frames (a tick)
the predicted crop's embedded feature is pushed into short-term memory after
the frame is tracked.

The dynamic template (route, then fuse the routed library) is a pure
function of the memory contents and the last pushed feature, and only
`init` and a tick's push change those. So it is generated in `init`, and
afterwards only when a push has happened since the last generation: at the
start of the next tick's frame by default, or of the very next frame with
`regenerate_every_frame`. Every other frame reuses the last template.

Each tracker owns one backbone Workspace, which the frame backbone and the
fusion stack share. It lives as long as the tracker because a workspace
built per call would re-allocate, and re-fault, about 11 MiB of Vim-S
scratch on every backbone pass; a persistent one is sized by `init`'s fuse
and the first frame, grows only when a longer sequence first arrives (an
LT fuse is up to 1024 tokens), and stepping then allocates nothing large.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import IO, Iterable

import numpy as np

from .backbone import backbone
from .config import TrackerConfig
from .events import BBox, EventFrame, EventStream, crop_region, iter_event_frames
from .fusion import generate_dynamic_template
from .head import decode_bbox, head_forward
from .memory import MemoryLibrary, TemplateFeature
from .model import ModelParams
from .ops import Workspace
from .tokenizer import (DYNAMIC, STATIC, SEARCH, TokenSeq, add_position_embedding,
                        assemble_input, extract_search_tokens, patch_embed)


@dataclass
class TrackerStats:
    memory_updates: int = 0
    template_regenerations: int = 0


class Tracker:
    """Single-sequence tracker; mutable state is this instance's alone."""

    def __init__(self, config: TrackerConfig, model: ModelParams,
                 debug_stream: IO[str] | None = None):
        self.config = config
        self.model = model
        self.memory = MemoryLibrary(st_capacity=config.st_capacity,
                                    lt_capacity=config.lt_capacity,
                                    debug_stream=debug_stream)
        self.stats = TrackerStats()
        self.workspace = Workspace()
        self._static: TokenSeq | None = None
        self._dynamic: np.ndarray | None = None
        self._dynamic_stale = False  # a push happened since the last generation
        self._last_feature: TemplateFeature | None = None
        self._frame_index = 0
        self._box: BBox | None = None

    # -- helpers -----------------------------------------------------------

    def _template_feature(self, frame: EventFrame, box: BBox, frame_index: int) -> TemplateFeature:
        patch = crop_region(frame, box, self.config.template_context,
                            self.config.template_size)
        tokens = patch_embed(patch, self.model.patch_embed, DYNAMIC).tokens
        return TemplateFeature(tokens=tokens, frame_index=frame_index)

    def _regenerate_dynamic(self) -> None:
        self._dynamic = generate_dynamic_template(
            self.memory, self._last_feature, self.model.backbone, self.workspace)
        self._dynamic_stale = False
        self.stats.template_regenerations += 1

    # -- protocol ----------------------------------------------------------

    def init(self, frame: EventFrame, init_box: BBox) -> BBox:
        """Initialize from the first frame; returns the init box unchanged."""
        if not (0 <= init_box.cx < frame.width and 0 <= init_box.cy < frame.height):
            raise ValueError("init box outside frame")
        cfg = self.config
        template_patch = crop_region(frame, init_box, cfg.template_context,
                                     cfg.template_size)
        # One embedding serves both: patch_embed ignores the segment label.
        static = patch_embed(template_patch, self.model.patch_embed, STATIC)
        self._static = add_position_embedding(static, self.model.patch_embed)

        initial = TemplateFeature(tokens=static.tokens, frame_index=0)
        self.memory.init_memory(initial)
        self._last_feature = initial
        self._regenerate_dynamic()
        self._frame_index = 0
        self._box = init_box
        return init_box

    def step(self, frame: EventFrame) -> BBox:
        """Track one frame; returns the predicted box in frame coordinates."""
        if self._box is None:
            raise ValueError("tracker not initialized")
        cfg = self.config
        self._frame_index += 1
        t = self._frame_index
        tick = t % cfg.update_interval == 0

        if (tick or cfg.regenerate_every_frame) and self._dynamic_stale:
            self._regenerate_dynamic()

        search_patch = crop_region(frame, self._box, cfg.search_context, cfg.search_size)
        search = add_position_embedding(
            patch_embed(search_patch, self.model.patch_embed, SEARCH),
            self.model.patch_embed)
        dynamic = TokenSeq.single(self._dynamic, DYNAMIC)
        seq = assemble_input(self._static, dynamic, search)

        out = backbone(seq.tokens, self.model.backbone, self.workspace)
        search_out = extract_search_tokens(seq.with_tokens(out))
        outputs = head_forward(search_out, self.model.head)
        box = decode_bbox(outputs, search_patch)
        # Keep the next search crop anchored on the sensor.
        box = BBox(float(np.clip(box.cx, 0, frame.width - 1)),
                   float(np.clip(box.cy, 0, frame.height - 1)), box.w, box.h)

        if tick:
            feature = self._template_feature(frame, box, frame_index=t)
            self.memory.st_push(feature)
            self.stats.memory_updates += 1
            self._last_feature = feature
            self._dynamic_stale = True

        self._box = box
        return box


def track_frames(config: TrackerConfig, model: ModelParams,
                 frames: Iterable[EventFrame], init_box: BBox,
                 debug_stream: IO[str] | None = None) -> list[BBox]:
    """Track over frames, stepping each as it arrives; the first output box
    is init_box."""
    frames = iter(frames)
    first = next(frames, None)
    if first is None:
        return []
    tracker = Tracker(config, model, debug_stream)
    boxes = [tracker.init(first, init_box)]
    for frame in frames:
        boxes.append(tracker.step(frame))
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
