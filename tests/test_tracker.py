"""Tracker loop: when the dynamic template is regenerated and whether
inline or deferred to the pass helper, the tracker's lifecycle and errors,
and BLAS pinning. What each step computes is checked against the reference
loop in test_reference.py."""

import io
import json
import tracemalloc

import numpy as np
import pytest

import evtrack.helper as helper_module
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
    whether it was deferred (handed the pass helper), and the debug
    stream's ops."""
    cfg = small_config(**overrides)
    model = init_model(cfg)
    stream, gt = synth_stream(SMALL_SYNTH)
    frames = stack_events(stream, cfg.window_us)
    log = io.StringIO()
    tracker = Tracker(cfg, model, log)
    starts, deferred = [], []

    def recording(lib, incoming, params, ws=None, helper=None):
        starts.append(tracker._frame_index)
        deferred.append(helper is not None and helper is tracker.pass_helper)
        return generate_dynamic_template(lib, incoming, params, ws, helper)

    monkeypatch.setattr(tracker_module, "generate_dynamic_template", recording)
    installs = record_installs(monkeypatch)
    tracker.init(frames[0], gt[0])
    for frame in frames[1:]:
        tracker.step(frame)
    tracker.close()
    assert len(frames) == 21
    ops = [json.loads(line)["op"] for line in log.getvalue().splitlines()]
    return starts, installs, deferred, ops


def test_default_mode_regenerates_at_ticks_after_a_push(monkeypatch):
    # Pushes happen at the end of t = 5, 10, 15, 20. Each push's fuse is
    # sent to the pass helper at the start of the next frame and installed
    # at the next tick; the t = 20 push has no frame after it, so no fuse
    # starts.
    starts, installs, deferred, ops = run_recording(monkeypatch)
    assert starts == [0, 6, 11, 16]
    assert installs == [0, 10, 15, 20]
    assert deferred == [False, True, True, True]
    assert ops.count("route") == len(installs)  # one route per fuse
    assert ops.count("st_push") == 4


def test_every_frame_mode_regenerates_on_the_frame_after_a_push(monkeypatch):
    starts, installs, deferred, ops = run_recording(monkeypatch, regenerate_every_frame=True)
    assert starts == installs == [0, 6, 11, 16]
    assert deferred == [False] * 4
    assert ops.count("route") == len(installs)


def test_interval_one_fuses_inline_on_every_frame_after_init(monkeypatch):
    # Every frame is a tick, so each push's template is needed on the very
    # next frame and nothing can run behind it. The first push ends t = 1.
    starts, installs, deferred, _ = run_recording(monkeypatch, update_interval=1)
    assert starts == installs == [0, *range(2, 21)]
    assert deferred == [False] * 20


def test_without_a_pass_helper_a_stale_template_is_fused_inline_at_the_tick(monkeypatch):
    monkeypatch.setattr(tracker_module, "fork_helper", lambda *args: None)
    starts, installs, deferred, _ = run_recording(monkeypatch)
    assert starts == installs == [0, 10, 15, 20]
    assert deferred == [False] * 4


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
    for frame in frames[2:]:  # deferred fuses are sent at t = 6, 11, 16
        tracker.step(frame)
    tracker.close()
    assert tracker.workspace is workspace and workspace.nbytes == size


def test_warm_steps_allocate_below_the_mmap_threshold():
    # At the small-dense benchmark's model width and crop sizes a search
    # crop alone is 768 KiB. glibc maps every allocation of at least 128
    # KiB (its default mmap threshold) afresh and faults its pages in; a
    # step whose arrays come from the workspace allocates only per-axis
    # vectors, numpy's iterator buffers and a tick's template tokens. Steps
    # 2 to 20 hold four ticks and the deferred fuses sent at t = 6, 11, 16.
    cfg = small_config(embed_dim=32, depth=2, d_state=16, dt_rank=4,
                       template_size=128, search_size=256)
    model = init_model(cfg)
    stream, gt = synth_stream(SMALL_SYNTH)
    frames = stack_events(stream, cfg.window_us)
    tracker = Tracker(cfg, model)
    peaks = []
    try:
        tracker.init(frames[0], gt[0])
        tracker.step(frames[1])  # sizes the workspace
        for frame in frames[2:]:
            tracemalloc.start()
            try:
                start, _ = tracemalloc.get_traced_memory()
                tracemalloc.reset_peak()
                tracker.step(frame)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks.append(peak - start)
    finally:
        tracker.close()
    assert len(peaks) == 19
    assert max(peaks) < 128 * 1024, [p // 1024 for p in peaks]


def test_rejected_second_init_leaves_the_tracker_unchanged():
    cfg = small_config()
    stream, gt = synth_stream(SMALL_SYNTH)
    frames = stack_events(stream, cfg.window_us)
    tracker = Tracker(cfg, init_model(cfg))
    try:
        tracker.init(frames[0], gt[0])

        def members():
            return [id(z) for z in tracker.memory.st_members() + tracker.memory.lt_members()]

        tokens, box, held = tracker._tokens.copy(), tracker._box, members()
        with pytest.raises(ValueError, match="already initialized"):
            tracker.init(frames[12], gt[12])
        np.testing.assert_array_equal(tracker._tokens, tokens)
        assert tracker._box is box and members() == held
    finally:
        tracker.close()


def test_track_frames_drops_an_in_flight_fuse(monkeypatch):
    # 8 frames: the t = 5 push sends a fuse at t = 6 that no tick installs.
    cfg = small_config()
    model = init_model(cfg)
    stream, gt = synth_stream(SMALL_SYNTH)
    frames = stack_events(stream, cfg.window_us)[:8]
    blas_threads = blas.threads()
    seen = []

    def recording(*args, **kwargs):
        seen.append(blas.threads())
        return generate_dynamic_template(*args, **kwargs)

    monkeypatch.setattr(tracker_module, "generate_dynamic_template", recording)
    assert len(track_frames(cfg, model, frames, gt[0])) == 8
    assert blas.threads() == blas_threads
    assert len(seen) == 2 and set(seen) <= {None, 1}  # BLAS pinned at every fuse


def _reference_templates(cfg, model, frames, gt, steps):
    """The dynamic rows after each of an undisturbed tracker's first `steps`
    steps, by frame index."""
    n_z = cfg.n_template_tokens
    tracker = Tracker(cfg, model)
    tracker.init(frames[0], gt[0])
    templates = {}
    for t, frame in enumerate(frames[1:steps + 1], start=1):
        tracker.step(frame)
        templates[t] = tracker._tokens[n_z:2 * n_z].copy()
    tracker.close()
    return templates


def test_step_that_raises_mid_cycle_keeps_the_fuse(monkeypatch):
    cfg = small_config()
    model = init_model(cfg)
    stream, gt = synth_stream(SMALL_SYNTH)
    frames = stack_events(stream, cfg.window_us)
    reference = _reference_templates(cfg, model, frames, gt, 10)
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
    fuse = tracker._fuse
    assert fuse is not None
    with pytest.raises(ValueError, match="head failed"):
        tracker.step(frames[7])
    assert tracker._fuse is fuse
    for frame in frames[8:11]:
        tracker.step(frame)
    # The fuse sent at t = 6 read only memory fixed at t = 5, so the
    # template installed at t = 10 is the undisturbed run's.
    n_z = cfg.n_template_tokens
    np.testing.assert_array_equal(tracker._tokens[n_z:2 * n_z], reference[10])
    tracker.close()


def test_interrupt_during_the_ticks_wait_leaves_the_fuse_for_the_next_tick(monkeypatch):
    cfg = small_config()
    model = init_model(cfg)
    stream, gt = synth_stream(SMALL_SYNTH)
    frames = stack_events(stream, cfg.window_us)
    reference = _reference_templates(cfg, model, frames, gt, 10)
    tracker = Tracker(cfg, model)
    tracker.init(frames[0], gt[0])
    try:
        for frame in frames[1:10]:
            tracker.step(frame)
        if tracker.pass_helper is None:
            pytest.skip("no pass helper where the platform cannot fork")

        def interrupted():
            raise KeyboardInterrupt  # arrives before the reply is read

        monkeypatch.setattr(tracker.pass_helper, "_reply", interrupted)
        with pytest.raises(KeyboardInterrupt):
            tracker.step(frames[10])
        monkeypatch.undo()
        n_z = cfg.n_template_tokens
        for frame in frames[11:16]:
            assert tracker._fuse is not None
            tracker.step(frame)
        # Frame 10 was lost, so no push: the t = 15 tick installs the fuse
        # sent at t = 6, the template the undisturbed run installed at 10.
        assert tracker._fuse is None
        np.testing.assert_array_equal(tracker._tokens[n_z:2 * n_z], reference[10])
    finally:
        tracker.close()


def test_fuse_error_raises_at_the_installing_tick(monkeypatch):
    cfg = small_config()
    model = init_model(cfg)
    stream, gt = synth_stream(SMALL_SYNTH)
    frames = stack_events(stream, cfg.window_us)

    def failing(*args, **kwargs):
        raise FloatingPointError("fuse failed")

    # The pass child keeps the failing pass from its fork, and the parent's
    # rerun of it meets it too; init's inline fuse does not run it.
    monkeypatch.setattr(helper_module, "backbone", failing)
    blas_threads = blas.threads()
    tracker = Tracker(cfg, model)
    tracker.init(frames[0], gt[0])
    if tracker.pass_helper is None:
        tracker.close()
        pytest.skip("no pass helper where the platform cannot fork")
    for frame in frames[1:10]:  # the fuse is sent at t = 6 and fails in the child
        tracker.step(frame)
    with pytest.raises(FloatingPointError,
                       match="^frame 10: template fuse failed: fuse failed$") as info:
        tracker.step(frames[10])
    fuse_error = info.value.__cause__
    assert isinstance(fuse_error, FloatingPointError)
    assert str(fuse_error) == "template fuse failed: fuse failed"
    assert str(fuse_error.__cause__) == "fuse failed"
    assert tracker._fuse is None and tracker._dynamic_stale
    tracker.close()
    assert blas.threads() == blas_threads


def test_one_blas_pin_per_open_tracker_without_fork(monkeypatch):
    # A tracker that could not fork still pins OpenBLAS from init to close,
    # and with no pass helper fuses a stale template inline at the tick.
    cfg = small_config()
    model = init_model(cfg)
    stream, gt = synth_stream(SMALL_SYNTH)
    frames = stack_events(stream, cfg.window_us)
    forked = track_frames(cfg, model, frames, gt[0])
    before = blas.threads()
    monkeypatch.setattr(tracker_module, "fork_helper", lambda *args: None)
    tracker = Tracker(cfg, model)
    boxes = [tracker.init(frames[0], gt[0])]
    assert tracker.helper is None and tracker.pass_helper is None
    assert blas.threads() == (None if before is None else 1)
    for frame in frames[1:]:
        boxes.append(tracker.step(frame))
        assert blas.threads() == (None if before is None else 1)
    tracker.close()
    assert blas.threads() == before
    tracker.close()  # idempotent: the pin is released once
    assert blas.threads() == before
    assert boxes == forked


def test_non_finite_activation_names_its_frame(monkeypatch):
    cfg = small_config()
    model = init_model(cfg)
    stream, gt = synth_stream(SMALL_SYNTH)
    frames = stack_events(stream, cfg.window_us)
    embed = tracker_module.patch_embed
    tracker = Tracker(cfg, model)

    def poisoned(patch, params, out=None, ws=None):
        tokens = embed(patch, params, out=out, ws=ws)
        if out is not None and tracker._frame_index == 3:  # frame 3's search tokens
            tokens[0, 0] = np.nan
        return tokens

    monkeypatch.setattr(tracker_module, "patch_embed", poisoned)
    try:
        tracker.init(frames[0], gt[0])
        for frame in frames[1:3]:
            tracker.step(frame)
        with pytest.raises(ValueError, match="^frame 3: non-finite input$") as info:
            tracker.step(frames[3])
    finally:
        tracker.close()
    assert str(info.value.__cause__) == "non-finite input"


def test_blas_restore_returns_to_the_count_before_the_first_pin():
    # Pins nest, one per open tracker: the last unpin restores the count
    # saved by the first pin.
    assert blas._pins == 0  # no tracker left open, so `before` is unpinned
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
    with pytest.raises(RuntimeError, match="unpin without a pin"):
        blas.unpin()
