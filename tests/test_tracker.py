"""Tracker loop: when the dynamic template is regenerated."""

import numpy as np

import evtrack.tracker as tracker_module
from evtrack.events import iter_event_frames, stack_events, synth_stream
from evtrack.fusion import generate_dynamic_template
from evtrack.model import init_model
from evtrack.tracker import Tracker, track_frames, track_sequence

from _utils import SMALL_SYNTH, small_config


def run_counting(monkeypatch, regenerate_every_frame):
    """Track 21 frames; returns the tracker and the frame index of every
    regeneration (0 is init)."""
    cfg = small_config(regenerate_every_frame=regenerate_every_frame)
    model = init_model(cfg)
    stream, gt = synth_stream(SMALL_SYNTH)
    frames = stack_events(stream, cfg.window_us)
    tracker = Tracker(cfg, model)
    calls = []

    def counting(*args, **kwargs):
        calls.append(tracker._frame_index)
        return generate_dynamic_template(*args, **kwargs)

    monkeypatch.setattr(tracker_module, "generate_dynamic_template", counting)
    tracker.init(frames[0], gt[0])
    for frame in frames[1:]:
        tracker.step(frame)
    assert len(frames) == 21
    return tracker, calls


def test_default_mode_regenerates_at_ticks_after_a_push(monkeypatch):
    # Pushes happen at the end of t = 5, 10, 15, 20; the t = 5 tick has no
    # push behind it, so its template is the one init built.
    tracker, calls = run_counting(monkeypatch, regenerate_every_frame=False)
    assert calls == [0, 10, 15, 20]
    assert tracker.stats.template_regenerations == len(calls)
    assert tracker.stats.memory_updates == 4


def test_every_frame_mode_regenerates_on_the_frame_after_a_push(monkeypatch):
    tracker, calls = run_counting(monkeypatch, regenerate_every_frame=True)
    assert calls == [0, 6, 11, 16]
    assert tracker.stats.template_regenerations == len(calls)


def test_kept_template_equals_a_fresh_regeneration():
    # With regenerate_every_frame every frame must see the template a fresh
    # route + fuse of the current memory gives; only a pending push (after a
    # tick, before the next frame) may leave it behind.
    cfg = small_config(regenerate_every_frame=True)
    model = init_model(cfg)
    stream, gt = synth_stream(SMALL_SYNTH)
    frames = stack_events(stream, cfg.window_us)
    tracker = Tracker(cfg, model)
    tracker.init(frames[0], gt[0])
    checked = 0
    for frame in frames[1:]:
        tracker.step(frame)
        if not tracker._dynamic_stale:
            fresh = generate_dynamic_template(tracker.memory, tracker._last_feature,
                                              model.backbone)
            np.testing.assert_array_equal(tracker._dynamic, fresh)
            checked += 1
    assert checked == 16  # 20 steps minus the 4 ticks


def test_track_sequence_equals_tracking_prestacked_frames():
    # The golden configuration; track_sequence stacks each window just
    # before stepping it.
    cfg = small_config(lt_capacity=2, seed=1)
    model = init_model(cfg)
    stream, gt = synth_stream(SMALL_SYNTH)
    streamed = track_sequence(cfg, model, stream, gt[0])
    stacked = track_frames(cfg, model, stack_events(stream, cfg.window_us), gt[0])
    assert len(streamed) == 21
    assert streamed == stacked


def test_track_frames_steps_each_frame_as_it_arrives(monkeypatch):
    cfg = small_config()
    model = init_model(cfg)
    stream, gt = synth_stream(SMALL_SYNTH)
    steps = []
    step = Tracker.step

    def counting(self, frame):
        steps.append(frame)
        return step(self, frame)

    monkeypatch.setattr(Tracker, "step", counting)

    def frames():
        for k, frame in enumerate(iter_event_frames(stream, cfg.window_us)):
            assert len(steps) == max(0, k - 1)  # frames 1 .. k-1 were stepped
            yield frame

    assert len(track_frames(cfg, model, frames(), gt[0])) == 21
    assert len(steps) == 20


def test_tracker_workspace_persists_across_steps():
    cfg = small_config()
    model = init_model(cfg)
    stream, gt = synth_stream(SMALL_SYNTH)
    frames = stack_events(stream, cfg.window_us)
    tracker = Tracker(cfg, model)
    tracker.init(frames[0], gt[0])
    workspace = tracker.workspace
    tracker.step(frames[1])  # a frame is longer than this config's fuse
    size = workspace.nbytes
    for frame in frames[2:]:
        tracker.step(frame)
    assert tracker.workspace is workspace and workspace.nbytes == size
