"""Tracker loop: when and on which thread the dynamic template is
regenerated, the tracker's lifecycle and errors, and BLAS pinning. What each
step computes is checked against the reference loop in test_reference.py."""

import io
import json
import threading
import time

import numpy as np
import pytest

import evtrack.tracker as tracker_module
from evtrack import blas
from evtrack.events import iter_event_frames, stack_events, synth_stream
from evtrack.fusion import generate_dynamic_template
from evtrack.model import init_model
from evtrack.tracker import Tracker, track_frames, track_sequence

from _utils import SMALL_SYNTH, record_installs, small_config


def run_recording(monkeypatch, **overrides):
    """Track 21 frames; returns the frame index at which each fuse started
    and the one from which its template was used (0 is init), per fuse call
    whether it ran on the stepping thread, and the debug stream's ops."""
    cfg = small_config(**overrides)
    model = init_model(cfg)
    stream, gt = synth_stream(SMALL_SYNTH)
    frames = stack_events(stream, cfg.window_us)
    log = io.StringIO()
    tracker = Tracker(cfg, model, log)
    on_main = []

    def recording(*args, **kwargs):
        on_main.append(threading.current_thread() is threading.main_thread())
        return generate_dynamic_template(*args, **kwargs)

    monkeypatch.setattr(tracker_module, "generate_dynamic_template", recording)
    installs = record_installs(monkeypatch)
    tracker.init(frames[0], gt[0])
    starts = [0]
    for t, frame in enumerate(frames[1:], start=1):
        worker, inline = tracker._fuse, on_main.count(True)
        tracker.step(frame)
        if tracker._fuse is not None and tracker._fuse is not worker:
            starts.append(t)  # a worker was started in this step
        elif on_main.count(True) > inline:
            starts.append(t)  # an inline fuse ran in this step
    tracker.join()
    assert len(frames) == 21
    ops = [json.loads(line)["op"] for line in log.getvalue().splitlines()]
    return starts, installs, on_main, ops


def test_default_mode_regenerates_at_ticks_after_a_push(monkeypatch):
    # Pushes happen at the end of t = 5, 10, 15, 20. Each push's fuse starts
    # on a worker at the start of the next frame and is installed at the next
    # tick; the t = 20 push has no frame after it, so no fuse starts.
    starts, installs, on_main, ops = run_recording(monkeypatch)
    assert starts == [0, 6, 11, 16]
    assert installs == [0, 10, 15, 20]
    assert on_main == [True, False, False, False]
    assert ops.count("route") == len(installs)  # one route per fuse
    assert ops.count("st_push") == 4


def test_every_frame_mode_regenerates_on_the_frame_after_a_push(monkeypatch):
    starts, installs, on_main, ops = run_recording(monkeypatch, regenerate_every_frame=True)
    assert starts == installs == [0, 6, 11, 16]
    assert on_main == [True] * 4
    assert ops.count("route") == len(installs)


def test_interval_one_fuses_inline_on_every_frame_after_init(monkeypatch):
    # Every frame is a tick, so each push's template is needed on the very
    # next frame and nothing can run behind it. The first push ends t = 1.
    starts, installs, on_main, _ = run_recording(monkeypatch, update_interval=1)
    assert starts == installs == [0, *range(2, 21)]
    assert on_main == [True] * 20


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
    workspace, fuse_workspace = tracker.workspace, tracker.fuse_workspace
    assert fuse_workspace.nbytes == 0  # init fuses inline
    tracker.step(frames[1])  # a frame is longer than this config's fuse
    size = workspace.nbytes
    for frame in frames[2:7]:
        tracker.step(frame)
    tracker.join()  # the first worker fuse started at t = 6
    fuse_size = fuse_workspace.nbytes
    assert fuse_size > 0
    for frame in frames[7:]:
        tracker.step(frame)
    tracker.join()
    assert tracker.workspace is workspace and workspace.nbytes == size
    assert tracker.fuse_workspace is fuse_workspace and fuse_workspace.nbytes == fuse_size


def _slow_fuse(monkeypatch, seconds=0.2):
    """Make every worker fuse wait `seconds` first; returns the BLAS thread
    counts the worker saw."""
    seen = []

    def slow(*args, **kwargs):
        if threading.current_thread() is not threading.main_thread():
            seen.append(blas.threads())
            time.sleep(seconds)
        return generate_dynamic_template(*args, **kwargs)

    monkeypatch.setattr(tracker_module, "generate_dynamic_template", slow)
    return seen


def test_track_frames_joins_an_in_flight_fuse(monkeypatch):
    # 8 frames: the t = 5 push starts a fuse at t = 6 that no tick installs.
    cfg = small_config()
    model = init_model(cfg)
    stream, gt = synth_stream(SMALL_SYNTH)
    frames = stack_events(stream, cfg.window_us)[:8]
    threads, blas_threads = threading.active_count(), blas.threads()
    seen = _slow_fuse(monkeypatch)
    assert len(track_frames(cfg, model, frames, gt[0])) == 8
    assert threading.active_count() == threads
    assert blas.threads() == blas_threads
    assert len(seen) == 1 and seen[0] in (None, 1)  # BLAS pinned while it ran


def test_step_that_raises_mid_cycle_joins_and_keeps_the_fuse(monkeypatch):
    cfg = small_config()
    model = init_model(cfg)
    stream, gt = synth_stream(SMALL_SYNTH)
    frames = stack_events(stream, cfg.window_us)
    reference = Tracker(cfg, model)
    reference.init(frames[0], gt[0])
    for frame in frames[1:11]:
        reference.step(frame)

    threads, blas_threads = threading.active_count(), blas.threads()
    _slow_fuse(monkeypatch)
    head_forward = tracker_module.head_forward
    tracker = Tracker(cfg, model)

    def failing(*args, **kwargs):
        if tracker._frame_index == 7:
            raise ValueError("head failed")
        return head_forward(*args, **kwargs)

    monkeypatch.setattr(tracker_module, "head_forward", failing)
    tracker.init(frames[0], gt[0])
    for frame in frames[1:7]:
        tracker.step(frame)
    assert tracker.fuse_running
    with pytest.raises(ValueError, match="head failed"):
        tracker.step(frames[7])
    assert not tracker.fuse_running
    assert threading.active_count() == threads
    assert blas.threads() == blas_threads
    for frame in frames[8:11]:
        tracker.step(frame)
    # The fuse started at t = 6 read only memory fixed at t = 5, so the
    # template installed at t = 10 is the undisturbed run's.
    n_z = cfg.n_template_tokens
    np.testing.assert_array_equal(tracker._tokens[n_z:2 * n_z],
                                  reference._tokens[n_z:2 * n_z])


def test_worker_error_raises_at_the_installing_tick(monkeypatch):
    cfg = small_config()
    model = init_model(cfg)
    stream, gt = synth_stream(SMALL_SYNTH)
    frames = stack_events(stream, cfg.window_us)
    threads, blas_threads = threading.active_count(), blas.threads()

    def failing(*args, **kwargs):
        if threading.current_thread() is not threading.main_thread():
            raise FloatingPointError("fuse failed")
        return generate_dynamic_template(*args, **kwargs)

    monkeypatch.setattr(tracker_module, "generate_dynamic_template", failing)
    tracker = Tracker(cfg, model)
    tracker.init(frames[0], gt[0])
    for frame in frames[1:10]:  # the fuse fails during t = 6 .. 9
        tracker.step(frame)
    with pytest.raises(FloatingPointError,
                       match="^frame 10: template fuse failed: fuse failed$") as info:
        tracker.step(frames[10])
    fuse_error = info.value.__cause__
    assert isinstance(fuse_error, FloatingPointError)
    assert str(fuse_error) == "template fuse failed: fuse failed"
    assert str(fuse_error.__cause__) == "fuse failed"
    assert threading.active_count() == threads
    tracker.close()
    assert blas.threads() == blas_threads


def test_non_finite_activation_names_its_frame(monkeypatch):
    cfg = small_config()
    model = init_model(cfg)
    stream, gt = synth_stream(SMALL_SYNTH)
    frames = stack_events(stream, cfg.window_us)
    embed = tracker_module.patch_embed
    tracker = Tracker(cfg, model)

    def poisoned(patch, params, out=None):
        tokens = embed(patch, params, out=out)
        if out is not None and tracker._frame_index == 3:  # frame 3's search tokens
            tokens[0, 0] = np.nan
        return tokens

    monkeypatch.setattr(tracker_module, "patch_embed", poisoned)
    tracker.init(frames[0], gt[0])
    for frame in frames[1:3]:
        tracker.step(frame)
    with pytest.raises(ValueError, match="^frame 3: non-finite input$") as info:
        tracker.step(frames[3])
    assert str(info.value.__cause__) == "non-finite input"


def test_blas_restore_returns_to_the_count_before_the_first_pin(monkeypatch):
    # Pins nest, one per open helper: the last unpin restores the count
    # saved by the first pin. Pins held by other trackers stay held.
    before = blas.threads()
    if before is None:
        pytest.skip("no OpenBLAS thread symbols in this numpy")
    blas.pin_one()
    assert blas.threads() == 1
    blas.pin_one()  # a second pin must not save 1 as the count to restore
    blas.unpin()
    assert blas.threads() == 1  # the first pin is still held
    blas.unpin()
    assert blas.threads() == before
    monkeypatch.setattr(blas, "_pins", 0)
    with pytest.raises(RuntimeError, match="unpin without a pin"):
        blas.unpin()
