"""Degenerate inputs, as hypothesis properties: collapsing and exploding size
maps, empty windows and short streams, and non-finite crop grids.

The properties run under the derandomized tier-1 profile of conftest.py, so
a run draws the same examples each time and a failure reproduces without a
database.
"""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import evtrack.tracker as tracker_module
from evtrack.events import (BBox, EventFrame, EventStream, _bilinear_sample, stack_events,
                            synth_stream)
from evtrack.head import MIN_BOX_SIDE
from evtrack.model import init_model
from evtrack.tracker import Tracker, track_sequence

from _utils import SMALL_SYNTH, small_config

PROPERTY = settings(max_examples=20)
SIDE = 96  # SMALL_SYNTH's square sensor


@pytest.fixture(scope="module")
def golden():
    cfg = small_config(lt_capacity=2, seed=1)
    stream, _ = synth_stream(SMALL_SYNTH)
    return cfg, init_model(cfg), stack_events(stream, cfg.window_us)


def assert_bounded(box, width, height):
    assert all(math.isfinite(v) for v in (box.cx, box.cy, box.w, box.h))
    assert 0 <= box.cx <= width - 1 and 0 <= box.cy <= height - 1
    assert MIN_BOX_SIDE <= box.w <= width and MIN_BOX_SIDE <= box.h <= height


boxes = st.builds(BBox, st.floats(0, SIDE - 1), st.floats(0, SIDE - 1),
                  st.floats(0.01, 4 * SIDE), st.floats(0.01, 4 * SIDE))


@PROPERTY
@given(size=st.sampled_from([0.0, 1.0]), init_box=boxes)
def test_collapsed_or_exploded_size_maps_give_bounded_boxes(golden, size, init_box):
    # Six steps cover a tick's push and the fuse started after it.
    cfg, model, frames = golden
    head_forward = tracker_module.head_forward

    def forcing(search_tokens, params, ws=None):
        out = head_forward(search_tokens, params, ws)
        out.size[:] = size
        return out

    with mock.patch.object(tracker_module, "head_forward", forcing):
        tracker = Tracker(cfg, model)
        try:
            tracker.init(frames[0], init_box)
            for frame in frames[1:7]:
                assert_bounded(tracker.step(frame), SIDE, SIDE)
        finally:
            tracker.close()


@PROPERTY
@given(data=st.data(), n_windows=st.integers(1, 8))
def test_streams_with_empty_windows_track(golden, data, n_windows):
    cfg, model, _ = golden
    window = cfg.window_us
    # The first and last windows hold events and the first event is at 0,
    # so the windows are the n_windows drawn; any window between may be empty.
    busy = sorted({0, n_windows - 1} | set(data.draw(
        st.lists(st.integers(0, n_windows - 1), max_size=n_windows))))
    counts = [data.draw(st.integers(1, 40)) for _ in busy]
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    ts = np.concatenate([k * window + np.sort(rng.integers(0, window, n))
                         for k, n in zip(busy, counts)])
    ts[0] = 0
    n = ts.size
    stream = EventStream(rng.integers(0, SIDE, n), rng.integers(0, SIDE, n), ts,
                         rng.choice([-1, 1], n), SIDE, SIDE)
    init_box = data.draw(boxes)
    got = track_sequence(cfg, model, stream, init_box)
    assert len(got) == n_windows and got[0] == init_box
    for box in got[1:]:
        assert_bounded(box, SIDE, SIDE)


@PROPERTY
@given(span=st.integers(0, 9_999), n=st.integers(1, 30), seed=st.integers(0, 2**32 - 1))
def test_stream_shorter_than_one_window_gives_the_init_box(golden, span, n, seed):
    cfg, model, _ = golden
    rng = np.random.default_rng(seed)
    ts = np.sort(rng.integers(0, span + 1, n))
    stream = EventStream(rng.integers(0, SIDE, n), rng.integers(0, SIDE, n), ts,
                         rng.choice([-1, 1], n), SIDE, SIDE)
    init_box = BBox(40.0, 50.0, 20.0, 10.0)
    assert track_sequence(cfg, model, stream, init_box) == [init_box]


finite = st.floats(-1e300, 1e300)
grids = st.lists(finite, min_size=1, max_size=12).map(np.array)


@settings(PROPERTY, max_examples=100)
@given(gx=grids, gy=grids, bad=st.sampled_from([math.nan, math.inf, -math.inf]),
       axis=st.integers(0, 1), data=st.data())
def test_non_finite_grid_raises(gx, gy, bad, axis, data):
    frame = EventFrame.from_dense(np.ones((3, 5, 7), dtype=np.float32), 0, 1)
    grid = (gx, gy)[axis]
    grid[data.draw(st.integers(0, grid.size - 1))] = bad
    with pytest.raises(ValueError, match="crop grid must be finite"):
        _bilinear_sample(frame, gx, gy)


@settings(PROPERTY, max_examples=100)
@given(gx=grids, gy=grids)
def test_finite_grid_reads_zero_off_the_frame_without_warnings(gx, gy):
    # Samples half a pixel or more outside the 7 x 5 frame read 0, however far.
    frame = EventFrame.from_dense(np.ones((3, 5, 7), dtype=np.float32), 0, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = _bilinear_sample(frame, gx, gy)
    assert np.isfinite(out).all()
    off = ((gy <= -0.5) | (gy >= 5.5))[:, None] | ((gx <= -0.5) | (gx >= 7.5))[None, :]
    assert not out[:, off].any()
