import math
import os
import subprocess
import sys
import tracemalloc
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import evtrack.events
from evtrack.events import (BBox, EventFrame, EventStream, RegionPatch,
                            SynthConfig, crop_region, iter_event_frames, load_boxes_csv,
                            load_events_csv, save_boxes_csv, save_events_csv, stack_events,
                            synth_stream)

from _utils import frame_from_dense


def make_stream(points, w=16, h=16):
    """A stream from (x, y, t, p) tuples."""
    xs, ys, ts, ps = np.array(points, dtype=np.int64).reshape(-1, 4).T
    return EventStream(xs, ys, ts, ps, w, h)


def stack_oracle(stream, window_us):
    """Independent per-event reimplementation of the 3-channel encoding, the
    one stacking oracle: each event is counted, in float64, into window
    (t - first) // window_us, and each normalised frame is cast to float32."""
    if len(stream) == 0:
        return []
    h, w = stream.sensor_height, stream.sensor_width
    first, last = int(stream.ts[0]), int(stream.ts[-1])
    n_frames = (last - first) // window_us + 1
    pos = np.zeros((n_frames, h, w))
    neg = np.zeros((n_frames, h, w))
    tlast = np.full((n_frames, h, w), -1.0)
    for x, y, t, p in zip(stream.xs.tolist(), stream.ys.tolist(),
                          stream.ts.tolist(), stream.ps.tolist()):
        k, offset = divmod(t - first, window_us)
        (pos if p > 0 else neg)[k, y, x] += 1
        tlast[k, y, x] = max(tlast[k, y, x], offset / window_us)
    frames = []
    for k in range(n_frames):
        data = np.zeros((3, h, w))
        if pos[k].max() > 0:
            data[0] = pos[k] / pos[k].max()
        if neg[k].max() > 0:
            data[1] = neg[k] / neg[k].max()
        data[2] = np.where(tlast[k] >= 0, tlast[k], 0.0)
        frames.append(data.astype(np.float32))
    return frames


def random_stream(rng, n, w, h, duration_us, polarities=(-1, 1)):
    return EventStream(rng.integers(0, w, n), rng.integers(0, h, n),
                       np.sort(rng.integers(0, duration_us, n)),
                       rng.choice(np.array(polarities), n), w, h)


class TestStackEvents:
    def test_empty_stream_gives_no_frames(self):
        assert stack_events(make_stream([]), 10_000) == []

    def test_single_event_encoding(self):
        frames = stack_events(make_stream([(3, 4, 0, 1)]), 10_000)
        assert len(frames) == 1
        f = frames[0]
        assert f.data[0][4][3] == 1.0
        assert np.all(f.data[1] == 0)
        assert f.data[2][4][3] == 0.0
        assert f.window_start == 0 and f.window_end == 10_000

    def test_two_events_same_pixel(self):
        # +1 at t=0 and -1 at t=5000 in a 10 ms window
        frames = stack_events(make_stream([(3, 4, 0, 1), (3, 4, 5000, -1)]), 10_000)
        f = frames[0]
        assert f.data[0][4][3] == 1.0
        assert f.data[1][4][3] == 1.0
        assert f.data[2][4][3] == 0.5

    def test_quiet_middle_window_is_zero(self):
        frames = stack_events(make_stream([(0, 0, 0, 1), (5, 5, 25_000, 1)]), 10_000)
        assert len(frames) == 3
        assert np.all(frames[1].data == 0)


def _stack_cases():
    rng = np.random.default_rng(11)
    # 8x6 pixels and 3000 events: every pixel repeats, in both polarities
    yield "repeated_pixels", random_stream(rng, 3000, 8, 6, 40_000)
    yield "dense_346x260", random_stream(rng, 20_000, 346, 260, 30_000)
    # window 0 only ON, window 1 empty, window 2 only OFF
    on = random_stream(rng, 50, 16, 16, 10_000, polarities=(1,))
    off = random_stream(rng, 50, 16, 16, 10_000, polarities=(-1,))
    yield "single_polarity_and_empty_middle", EventStream(
        np.concatenate([on.xs, off.xs]), np.concatenate([on.ys, off.ys]),
        np.concatenate([on.ts, off.ts + 20_000]), np.concatenate([on.ps, off.ps]), 16, 16)
    yield "last_row_and_column", make_stream(
        [(15, 11, 0, 1), (15, 11, 10, -1), (0, 11, 20, 1), (15, 0, 30, -1),
         (15, 11, 40, 1), (7, 11, 9_999, -1)], w=16, h=12)
    yield "one_event", make_stream([(2, 3, 17, -1)])
    # int16 y * 346 overflows from row 95 on: the flat index must be widened
    rows = random_stream(rng, 5000, 346, 165, 30_000)
    yield "rows_95_to_259_of_346x260", EventStream(rows.xs, rows.ys + 95, rows.ts, rows.ps,
                                                   346, 260)
    yield "non_square", random_stream(rng, 500, 31, 7, 30_000)


STACK_CASES = dict(_stack_cases())


class TestStackMatchesUfuncAtOracle:
    """Stacking equals `stack_oracle` bit for bit on named streams. The class
    keeps the name of the `np.add.at` oracle it first checked against."""

    @pytest.mark.parametrize("case", sorted(STACK_CASES))
    def test_bit_identical(self, case):
        stream = STACK_CASES[case]
        frames = stack_events(stream, 10_000)
        expected = stack_oracle(stream, 10_000)
        assert len(frames) == len(expected)
        for f, e in zip(frames, expected):
            assert f.data.dtype == e.dtype
            assert np.array_equal(f.data.view(np.uint32), e.view(np.uint32))

    def test_cases_reach_what_they_name(self):
        frames = stack_events(STACK_CASES["single_polarity_and_empty_middle"], 10_000)
        assert len(frames) == 3
        assert frames[0].data[0].any() and not frames[0].data[1].any()
        assert not frames[1].data.any()
        assert not frames[2].data[0].any() and frames[2].data[1].any()
        (edge,) = stack_events(STACK_CASES["last_row_and_column"], 10_000)
        assert edge.data[0, 11, 15] == 1.0 and edge.data[2, 11, 15] == np.float32(0.004)
        assert edge.data[2, 11, 7] == np.float32(0.9999)


@st.composite
def windowed_streams(draw):
    """(stream, window_us): a few windows on a small sensor, each holding no
    event, one, or several, whose times cluster on the window's first and
    last microsecond, so equal timestamps sit on both sides of an edge;
    pixels repeat, and a window may hold one polarity only."""
    w, h = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    window_us = draw(st.integers(1, 40))
    first = draw(st.integers(0, 10 ** 6))
    xs, ys, ts, ps = [], [], [], []
    for k in range(draw(st.integers(1, 5))):
        start = first + k * window_us
        n = draw(st.one_of(st.sampled_from([0, 1]), st.integers(2, 30)))
        if k == 0:
            n = max(n, 1)  # the first event sets the windows' origin
        times = st.one_of(st.sampled_from([start, start + window_us - 1]),
                          st.integers(start, start + window_us - 1))
        polarities = draw(st.sampled_from([(-1, 1), (1,), (-1,)]))
        ts += sorted(draw(st.lists(times, min_size=n, max_size=n)))
        xs += draw(st.lists(st.integers(0, w - 1), min_size=n, max_size=n))
        ys += draw(st.lists(st.integers(0, h - 1), min_size=n, max_size=n))
        ps += draw(st.lists(st.sampled_from(polarities), min_size=n, max_size=n))
    ts[0] = first  # the windows start at the first event
    return EventStream(xs, ys, ts, ps, w, h), window_us


class TestSortStacking:
    """Each window is stacked with one sort of (pixel << 32 | offset) keys."""

    def test_frames_equal_the_per_event_oracle(self):
        seen = set()

        @settings(max_examples=200)
        @given(case=windowed_streams())
        def check(case):
            stream, window_us = case
            expected = stack_oracle(stream, window_us)
            for frames in (stack_events(stream, window_us),
                           list(iter_event_frames(stream, window_us))):
                assert len(frames) == len(expected)
                for frame, want in zip(frames, expected):
                    assert frame.pixels.dtype == np.int32
                    assert frame.values.dtype == np.float32 and frame.data.dtype == np.float32
                    assert frame.pixels.tolist() == np.flatnonzero(want.any(axis=0)).tolist()
                    assert frame.data.view(np.uint32).tobytes() == want.view(np.uint32).tobytes()
            edges = np.arange(len(expected) + 1) * window_us + int(stream.ts[0])
            sizes = np.diff(np.searchsorted(stream.ts, edges))
            flat = stream.ys.astype(np.int64) * stream.sensor_width + stream.xs
            seen.update(name for name, hit in [
                ("repeated_pixel", len(np.unique(flat)) < len(stream)),
                ("equal_times_across_an_edge", any(
                    (stream.ts == e - 1).sum() > 1 and (stream.ts == e).sum() > 1
                    for e in edges[1:-1].tolist())),
                ("one_event_window", bool((sizes == 1).any())),
                ("empty_window", bool((sizes == 0).any())),
                ("one_polarity_window", any(
                    len(set(stream.ps[lo:hi].tolist())) == 1 and hi - lo > 1
                    for lo, hi in zip(np.searchsorted(stream.ts, edges[:-1]),
                                      np.searchsorted(stream.ts, edges[1:])))),
            ] if hit)

        check()
        assert seen == {"repeated_pixel", "equal_times_across_an_edge", "one_event_window",
                        "empty_window", "one_polarity_window"}

    def test_last_pixel_of_the_largest_sensor(self):
        # 32768 x 32768: the dense oracle would need 12 GiB per frame. The
        # last pixel's flat index, 2**30 - 1, fills the key's high half.
        side = evtrack.events.MAX_SENSOR_SIDE
        last = side - 1
        stream = make_stream([(last, last, 0, 1), (0, 0, 3, -1), (last, last, 5, -1),
                              (last, last, 7, 1)], w=side, h=side)
        (frame,) = stack_events(stream, 10)
        assert frame.pixels.tolist() == [0, 2 ** 30 - 1]
        want = np.array([[0.0, 1.0], [1.0, 1.0], [0.3, 0.7]], dtype=np.float32)
        assert frame.values.tobytes() == want.tobytes()
        corner = np.zeros((3, 2, 2), np.float32)
        corner[:, 1, 1] = want[:, 1]
        assert frame.region(side - 2, side - 2, side, side).tobytes() == corner.tobytes()

    def test_window_beyond_the_offset_bound_raises(self, monkeypatch):
        # The bound is 2**32 events; a stand-in of 3 shows where it applies.
        monkeypatch.setattr(evtrack.events, "_MAX_WINDOW_EVENTS", 3)
        three = make_stream([(1, 1, 0, 1), (2, 1, 1, -1), (1, 1, 2, 1), (3, 3, 10, 1)])
        assert len(stack_events(three, 10)) == 2
        four = make_stream([(1, 1, 0, 1), (2, 1, 1, -1), (1, 1, 2, 1), (3, 3, 9, 1)])
        frames = iter_event_frames(four, 10)
        with pytest.raises(ValueError, match="4 events; stacking takes at most 3 per window"):
            next(frames)

    def test_one_window_on_the_largest_sensor_takes_below_128_bytes_per_event(self):
        # A temporary with one entry per sensor pixel would take about 1 GiB
        # here, 54 kB per event.
        rng = np.random.default_rng(4)
        n, side = 20_000, evtrack.events.MAX_SENSOR_SIDE
        stream = random_stream(rng, n, side, side, 10_000)
        tracemalloc.start()
        try:
            frames = stack_events(stream, 10_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(frames) == 1 and frames[0].pixels.size > 0.99 * n
        assert peak / n < 128


class TestWindowBounds:
    """Window k holds the events with first + k * window_us <= t < first +
    (k + 1) * window_us: an event on an edge opens the next window, and a
    window with no event is kept."""

    def test_frames_use_these_bounds(self):
        # Events exactly on the edges of windows 1 and 3; window 2 is empty.
        stream = make_stream([(1, 1, 5, 1), (2, 2, 15, 1), (3, 3, 35, -1), (4, 4, 36, 1)])
        frames = stack_events(stream, 10)
        assert [f.window_start for f in frames] == [5, 15, 25, 35]
        assert [int((f.data[:2] > 0).sum()) for f in frames] == [1, 1, 0, 2]

    def test_iter_event_frames_is_lazy_and_checks_eagerly(self):
        stream = STACK_CASES["non_square"]
        frames = iter_event_frames(stream, 10_000)
        first = next(frames)
        assert np.array_equal(first.data, stack_events(stream, 10_000)[0].data)
        with pytest.raises(ValueError):
            iter_event_frames(stream, 0)


class TestCropRegion:
    def frame(self, h=32, w=32, seed=0):
        rng = np.random.default_rng(seed)
        return frame_from_dense(rng.random((3, h, w)).astype(np.float32), 0, 1)

    def test_identity_crop(self):
        frame = self.frame()
        # context 1 around a 16x16 box centered at (16, 16): exact sub-image
        patch = crop_region(frame, BBox(16, 16, 16, 16), 1.0, 16)
        np.testing.assert_array_equal(patch.data, frame.data[:, 8:24, 8:24])
        assert patch.resize_factor == 1.0

    def test_corner_padding(self):
        frame = self.frame()
        patch = crop_region(frame, BBox(0, 0, 16, 16), 1.0, 16)
        # quadrants outside the frame are zero
        assert np.all(patch.data[:, :8, :8] == 0)
        assert np.all(patch.data[:, 8:, 8:] != 0)

    def test_crop_arithmetic(self):
        frame = self.frame(128, 128)
        patch = crop_region(frame, BBox(64, 64, 32, 32), 2.0, 128)
        assert patch.crop_side == 64.0
        assert patch.resize_factor == 2.0

    def test_coordinate_roundtrip(self):
        frame = self.frame(64, 64)
        patch = crop_region(frame, BBox(30.3, 27.8, 12.5, 9.0), 2.7, 128)
        ox, oy = patch.crop_origin
        for fx, fy in [(30.3, 27.8), (25.0, 31.0), (0.0, 0.0)]:
            px, py = (fx - ox) * patch.resize_factor, (fy - oy) * patch.resize_factor
            bx, by = patch.patch_to_frame(px, py)
            assert abs(bx - fx) < 0.5 and abs(by - fy) < 0.5

    def test_degenerate_box_rejected(self):
        with pytest.raises(ValueError, match="degenerate box"):
            BBox(5, 5, 0.0, 3.0)

    def test_context_factor_below_one_rejected(self):
        with pytest.raises(ValueError):
            crop_region(self.frame(), BBox(16, 16, 8, 8), 0.5, 16)


def bilinear_2d_oracle(img, gx, gy):
    """The 2-D-broadcast bilinear sampler that the separable one replaced."""
    _, h, w = img.shape
    cx = gx - 0.5
    cy = gy - 0.5
    x0 = np.floor(cx).astype(np.int64)
    y0 = np.floor(cy).astype(np.int64)
    fx = (cx - x0).astype(img.dtype)
    fy = (cy - y0).astype(img.dtype)
    grid_shape = np.broadcast_shapes(gx.shape, gy.shape)
    out = np.zeros((img.shape[0],) + grid_shape, dtype=img.dtype)
    for dy, wy in ((0, 1.0 - fy), (1, fy)):
        for dx, wx in ((0, 1.0 - fx), (1, fx)):
            xi = x0 + dx
            yi = y0 + dy
            valid = (xi >= 0) & (xi < w) & (yi >= 0) & (yi < h)
            xs = np.clip(xi, 0, w - 1)
            ys = np.clip(yi, 0, h - 1)
            out += (wy * wx * valid) * img[:, ys, xs]
    return out


def crop_2d_oracle(frame, box, context_factor, out_size):
    side = context_factor * math.sqrt(box.w * box.h)
    rf = out_size / side
    grid = (np.arange(out_size, dtype=np.float64) + 0.5) / rf
    gx = box.cx - side / 2.0 + grid[None, :]
    gy = box.cy - side / 2.0 + grid[:, None]
    data = bilinear_2d_oracle(frame.data.astype(np.float32), gx, gy)
    return RegionPatch(data=data, resize_factor=rf, crop_center=(box.cx, box.cy))


def _run_recording_warnings(fn, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = fn(*args)
    return result, sorted(str(c.message) for c in caught)


SENSORS = [(240, 180), (346, 260)]
CROP_BOXES = {
    "interior": lambda w, h: BBox(w * 0.45, h * 0.55, 31.3, 23.7),
    "off_top_left": lambda w, h: BBox(3.2, 4.9, 40.0, 30.0),
    "off_top_right": lambda w, h: BBox(w - 2.7, 6.1, 36.5, 28.0),
    "off_bottom_left": lambda w, h: BBox(5.5, h - 1.3, 30.0, 41.0),
    "off_bottom_right": lambda w, h: BBox(w - 0.4, h - 3.6, 33.0, 29.0),
    "fully_off": lambda w, h: BBox(-500.0, h + 700.0, 40.0, 30.0),
    "tiny_1e-30": lambda w, h: BBox(w / 2 + 0.3, h / 2 - 0.2, 1e-30, 1e-30),
    # the box small-dense's seed-1 sequence reached at frame 58 before boxes
    # were bounded: the oracle's int64 cast of the grid overflows and its
    # weights go inf/NaN, while the sampler clips the grid and reads 0
    "exploding_6e18": lambda w, h: BBox(w / 2, h / 2, 6e18, 5e18),
}


class TestCropMatches2DOracle:
    @staticmethod
    def frame(w, h):
        rng = np.random.default_rng(w * h)
        data = rng.random((3, h, w)).astype(np.float32)
        data[rng.random((3, h, w)) < 0.7] = 0.0  # mostly empty, like stacked events
        return frame_from_dense(data, 0, 1)

    @pytest.mark.parametrize("out_size,context", [(128, 2.0), (256, 4.0)])
    @pytest.mark.parametrize("sensor", SENSORS, ids=lambda s: f"{s[0]}x{s[1]}")
    @pytest.mark.parametrize("case", sorted(CROP_BOXES))
    def test_bit_identical(self, case, sensor, out_size, context):
        frame = self.frame(*sensor)
        box = CROP_BOXES[case](*sensor)
        patch, got_warnings = _run_recording_warnings(crop_region, frame, box, context, out_size)
        assert patch.data.shape == (3, out_size, out_size)
        assert patch.data.dtype == np.float32
        if case == "exploding_6e18":
            # Every sample lies far off the frame: all zero, with no cast warning.
            assert not patch.data.any() and got_warnings == []
            return
        expected, want_warnings = _run_recording_warnings(crop_2d_oracle, frame, box, context,
                                                          out_size)
        assert patch.data.tobytes() == expected.data.tobytes()
        assert patch.resize_factor == expected.resize_factor
        assert got_warnings == want_warnings
        if case == "fully_off":
            assert not patch.data.any()

    @pytest.mark.parametrize("side", [math.inf, 1e300])
    @pytest.mark.parametrize("sensor", SENSORS, ids=lambda s: f"{s[0]}x{s[1]}")
    def test_unbounded_box_raises_like_oracle(self, sensor, side):
        frame = self.frame(*sensor)
        box = BBox(sensor[0] / 2, sensor[1] / 2, side, side)
        # The oracle fails only when it builds the patch (resize factor 0);
        # the sampler rejects the non-finite grid first.
        with np.errstate(all="ignore"):
            with pytest.raises(ValueError, match="resize_factor must be positive"):
                crop_2d_oracle(frame, box, 4.0, 256)
            with pytest.raises(ValueError, match="crop grid must be finite"):
                crop_region(frame, box, 4.0, 256)


@st.composite
def event_streams(draw):
    """(stream, window_us): small sensors, times from a narrow range so that
    timestamps repeat and windows go empty, coordinates biased to the first
    and last row and column, and sometimes one polarity only."""
    w, h = draw(st.integers(1, 20)), draw(st.integers(1, 20))
    n = draw(st.integers(1, 50))

    def coords(side):
        return st.lists(st.one_of(st.sampled_from([0, side - 1]), st.integers(0, side - 1)),
                        min_size=n, max_size=n)

    span = draw(st.integers(0, 300))
    ts = sorted(draw(st.lists(st.integers(0, span), min_size=n, max_size=n)))
    polarities = draw(st.sampled_from([(-1, 1), (1,), (-1,)]))
    ps = draw(st.lists(st.sampled_from(polarities), min_size=n, max_size=n))
    stream = EventStream(draw(coords(w)), draw(coords(h)), ts, ps, w, h)
    return stream, draw(st.integers(1, 60))


def edge_boxes(w, h, bw, bh):
    """Boxes across each sensor edge and corner, and one fully off it."""
    return [BBox(0.3, h / 2, bw, bh), BBox(w - 0.2, h / 2, bw, bh),
            BBox(w / 2, 0.1, bw, bh), BBox(w / 2, h - 0.4, bw, bh),
            BBox(-0.7, -0.6, bw, bh), BBox(w + 0.5, h + 0.2, bw, bh),
            BBox(-3.0 * w - bw, h / 2, bw, bh)]


class TestSparseFrames:
    """A frame holds only its window's touched pixels; its dense view and
    its crops equal `stack_oracle`'s frame and its crops bit for bit."""

    def test_frames_and_crops_equal_the_dense_oracle(self):
        seen = set()

        @settings(max_examples=150)
        @given(case=event_streams(), bw=st.floats(0.5, 30.0), bh=st.floats(0.5, 30.0))
        def check(case, bw, bh):
            stream, window_us = case
            frames = stack_events(stream, window_us)
            expected = stack_oracle(stream, window_us)
            assert len(frames) == len(expected)
            w, h = stream.sensor_width, stream.sensor_height
            for frame, dense in zip(frames, expected):
                assert (frame.width, frame.height) == (w, h)
                assert np.array_equal(frame.data.view(np.uint32), dense.view(np.uint32))
                for box in edge_boxes(w, h, bw, bh):
                    got = crop_region(frame, box, 2.0, 16)
                    want = crop_2d_oracle(types.SimpleNamespace(data=dense), box, 2.0, 16)
                    assert got.data.tobytes() == want.data.tobytes()
            seen.update(name for name, hit in [
                ("equal_times", bool((np.diff(stream.ts) == 0).any())),
                ("empty_window", any(f.pixels.size == 0 for f in frames)),
                ("last_row", bool((stream.ys == h - 1).any()) and h > 1),
                ("last_column", bool((stream.xs == w - 1).any()) and w > 1),
                ("one_polarity", len(set(stream.ps.tolist())) == 1 and len(stream) > 1),
            ] if hit)

        check()
        assert seen == {"equal_times", "empty_window", "last_row", "last_column",
                        "one_polarity"}

    @settings(max_examples=100)
    @given(data=st.data(), h=st.integers(1, 9), w=st.integers(1, 9))
    def test_from_dense_round_trips_any_finite_array(self, data, h, w):
        finite = st.floats(width=32, allow_nan=False, allow_infinity=False)
        dense = data.draw(arrays(np.float32, (3, h, w), elements=finite))
        frame = frame_from_dense(dense, 0, 1)
        assert frame.data.view(np.uint32).tobytes() == dense.view(np.uint32).tobytes()
        touched = (dense.view(np.uint32) != 0).any(axis=0).reshape(-1)
        assert frame.pixels.tolist() == np.flatnonzero(touched).tolist()

    def test_negative_zero_is_kept(self):
        dense = np.zeros((3, 2, 3), np.float32)
        dense[1, 1, 2] = -0.0
        frame = frame_from_dense(dense, 0, 1)
        assert frame.pixels.tolist() == [5]
        assert np.signbit(frame.data[1, 1, 2])

    @pytest.mark.parametrize("pixels", [[3, 1], [2, 2], [-1], [12]])
    def test_pixels_must_be_ascending_unique_and_on_the_sensor(self, pixels):
        with pytest.raises(ValueError, match="ascending, unique and on the sensor"):
            EventFrame(pixels, np.zeros((3, len(pixels))), 4, 3, 0, 1)

    def test_region_is_the_dense_frame_cut(self):
        stream = STACK_CASES["non_square"]
        for frame in stack_events(stream, 10_000):
            assert frame.region(3, 1, 29, 6).tobytes() == frame.data[:, 1:6, 3:29].tobytes()
            assert frame.region(5, 2, 5, 7).shape == (3, 5, 0)
        with pytest.raises(ValueError, match="on the sensor"):
            frame.region(0, 0, 32, 7)

    def test_stacking_holds_about_16_bytes_per_touched_pixel(self):
        # 1280 x 720 (EventVOT's sensor): a dense frame would be 10.5 MiB, or
        # about 37 kB per touched pixel at 300 events per window.
        rng = np.random.default_rng(8)
        windows, per_window = 40, 300
        stream = random_stream(rng, windows * per_window, 1280, 720, windows * 10_000)
        tracemalloc.start()
        try:
            frames = stack_events(stream, 10_000)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        touched = sum(f.pixels.size for f in frames)
        assert len(frames) == windows and touched > 0.9 * len(stream)
        assert sum(f.nbytes for f in frames) == 16 * touched
        assert held / touched <= 24
        assert peak / touched <= 32


class TestSynthStream:
    def test_deterministic_bit_exact(self):
        cfg = SynthConfig(duration_us=100_000, seed=7)
        s1, b1 = synth_stream(cfg)
        s2, b2 = synth_stream(cfg)
        np.testing.assert_array_equal(s1.ts, s2.ts)
        np.testing.assert_array_equal(s1.xs, s2.xs)
        np.testing.assert_array_equal(s1.ps, s2.ps)
        assert b1 == b2

    def test_static_target_events_on_boundary(self):
        cfg = SynthConfig(velocity=(0.0, 0.0), noise_per_window=0,
                          duration_us=50_000, seed=3)
        stream, boxes = synth_stream(cfg)
        x1, y1, x2, y2 = boxes[0].corners()
        for x, y in zip(stream.xs.tolist(), stream.ys.tolist()):
            cx, cy = x + 0.5, y + 0.5
            dx = max(x1 - cx, 0.0, cx - x2)
            dy = max(y1 - cy, 0.0, cy - y2)
            on_x = min(abs(cx - x1), abs(cx - x2))
            on_y = min(abs(cy - y1), abs(cy - y2))
            dist = min(max(dx, dy) if (dx > 0 or dy > 0) else 0.0, on_x, on_y)
            assert dist <= 1.0

    def test_linear_speed_exact(self):
        # dyadic start/velocity make the cumulative sums exact in binary fp
        cfg = SynthConfig(velocity=(1.5, -0.25), start_center=(64.25, 90.5),
                          duration_us=100_000, seed=0)
        _, boxes = synth_stream(cfg)
        for a, b in zip(boxes, boxes[1:]):
            assert b.cx - a.cx == 1.5
            assert b.cy - a.cy == -0.25

    def test_zero_duration_rejected(self):
        with pytest.raises(ValueError):
            synth_stream(SynthConfig(duration_us=0))

    def test_ground_truth_one_box_per_window(self):
        cfg = SynthConfig(duration_us=120_000, window_us=10_000)
        _, boxes = synth_stream(cfg)
        assert len(boxes) == 12


class TestFileFormats:
    def test_event_csv_roundtrip(self, tmp_path):
        stream, _ = synth_stream(SynthConfig(duration_us=30_000, seed=1))
        path = tmp_path / "events.csv"
        save_events_csv(stream, path)
        assert path.read_text().splitlines()[0] == "t,x,y,p"
        loaded = load_events_csv(path)
        np.testing.assert_array_equal(loaded.ts, stream.ts)
        np.testing.assert_array_equal(loaded.xs, stream.xs)
        np.testing.assert_array_equal(loaded.ys, stream.ys)
        np.testing.assert_array_equal(loaded.ps, stream.ps)

    def test_boxes_csv_roundtrip_topleft(self, tmp_path):
        boxes = [BBox(10.5, 20.25, 5.0, 8.0), BBox(3.0, 4.0, 1.5, 2.5)]
        path = tmp_path / "gt.csv"
        save_boxes_csv(boxes, path)
        loaded = load_boxes_csv(path)
        for a, b in zip(boxes, loaded):
            assert abs(a.cx - b.cx) < 1e-3 and abs(a.w - b.w) < 1e-3
        # file itself is top-left convention
        x, y, w, h = (float(v) for v in path.read_text().splitlines()[0].split(","))
        assert (x, y) == (10.5 - 2.5, 20.25 - 4.0)


def save_events_per_event_oracle(stream, path):
    """The per-event writer that the chunked one replaced."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("t,x,y,p\n")
        for i in range(len(stream)):
            f.write(f"{stream.ts[i]},{stream.xs[i]},{stream.ys[i]},{stream.ps[i]}\n")


SAVE_CASES = {
    "empty": lambda: make_stream([]),
    "one_event": lambda: make_stream([(3, 4, 0, 1)]),
    "negative_polarity": lambda: make_stream([(0, 15, 7, -1), (15, 0, 7, -1), (1, 1, 9, 1)]),
    "compact_extremes": lambda: EventStream(np.array([0, 32767], np.int16),
                                            np.array([32767, 0], np.int16),
                                            np.array([-2 ** 63, 2 ** 63 - 1]),
                                            np.array([-1, 1], np.int8), 32768, 32768),
    "synthetic": lambda: synth_stream(SynthConfig(duration_us=30_000, seed=1))[0],
}


class TestSaveEventsCsv:
    @pytest.mark.parametrize("case", sorted(SAVE_CASES))
    @pytest.mark.parametrize("chunk", [2, 1 << 16])
    def test_bytes_equal_per_event_writer(self, tmp_path, monkeypatch, case, chunk):
        monkeypatch.setattr(evtrack.events, "_SAVE_CHUNK", chunk)
        stream = SAVE_CASES[case]()
        save_events_csv(stream, tmp_path / "chunked.csv")
        save_events_per_event_oracle(stream, tmp_path / "oracle.csv")
        assert (tmp_path / "chunked.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


class TestCompactStore:
    """A stream holds ts int64, xs/ys int16 and ps int8: 13 bytes per event."""

    @staticmethod
    def assert_compact(stream):
        assert [a.dtype for a in (stream.ts, stream.xs, stream.ys, stream.ps)] == [
            np.int64, np.int16, np.int16, np.int8]
        assert sum(a.nbytes for a in (stream.ts, stream.xs, stream.ys, stream.ps)) == (
            13 * len(stream))

    def test_every_constructor_stores_compact_columns(self, tmp_path):
        stream, _ = synth_stream(SynthConfig(duration_us=30_000, seed=1))
        self.assert_compact(stream)
        self.assert_compact(make_stream([(3, 4, 0, 1), (5, 6, 1, -1)]))
        self.assert_compact(make_stream([]))
        save_events_csv(stream, tmp_path / "events.csv")
        self.assert_compact(load_events_csv(tmp_path / "events.csv"))

    @staticmethod
    def traced_load(tmp_path, n=200_000):
        """(events, tracemalloc current after, tracemalloc peak) of loading an
        n-event CSV; a small load first keeps one-time set-up out of both."""
        rng = np.random.default_rng(5)
        path = tmp_path / "events.csv"
        save_events_csv(random_stream(rng, n, 346, 260, 10 ** 7), path)
        save_events_csv(random_stream(rng, 10, 346, 260, 10 ** 7), tmp_path / "warm.csv")
        load_events_csv(tmp_path / "warm.csv")
        tracemalloc.start()
        try:
            stream = load_events_csv(path)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(stream) == n
        return n, current, peak

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from /proc")
    def test_loading_peaks_below_17_bytes_per_event(self, tmp_path):
        # Resident bytes, read as the rise of a fresh process's VmHWM: the
        # columns' buffer is reserved whole, which tracemalloc counts (26
        # B/event), but its pages fill only as the records shrink. 13 B/event
        # of records and columns, plus up to four partly filled 2 MiB huge
        # pages (2.7 B/event at this size) pass; xs, ys and ps copied out
        # beside the whole records peak at 18.
        rng = np.random.default_rng(5)
        rows = "".join(f"1000000,{x},{y},{p}\n" for x, y, p in zip(
            rng.integers(0, 346, 1 << 16).tolist(), rng.integers(0, 260, 1 << 16).tolist(),
            rng.choice([-1, 1], 1 << 16).tolist()))
        path, warm = tmp_path / "events.csv", tmp_path / "warm.csv"
        with open(path, "w", encoding="utf-8") as f:
            f.write("t,x,y,p\n")
            for _ in range(48):
                f.write(rows)
        warm.write_text("t,x,y,p\n" + rows[:rows.index("\n") + 1], encoding="utf-8")
        # A small load first keeps one-time set-up out of the rise.
        script = (
            "import sys\n"
            "from evtrack.events import load_events_csv\n"
            "def hwm():\n"
            "    with open('/proc/self/status', encoding='ascii') as f:\n"
            "        return next(int(l.split()[1]) for l in f if l.startswith('VmHWM:'))\n"
            "load_events_csv(sys.argv[2])\n"
            "before = hwm()\n"
            "n = len(load_events_csv(sys.argv[1]))\n"
            "print(n, (hwm() - before) * 1024)\n")
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        out = subprocess.run([sys.executable, "-c", script, str(path), str(warm)], env=env,
                             capture_output=True, text=True, timeout=120, check=True)
        n, rise = map(int, out.stdout.split())
        assert n == 48 << 16
        assert rise / n <= 17

    def test_loaded_stream_holds_below_13_5_bytes_per_event(self, tmp_path):
        # The columns' nbytes read 13 per event even if ts were a view of the
        # unshrunk 13-byte records, which would hold 18.
        n, current, _ = self.traced_load(tmp_path)
        assert current / n <= 13.5

    def test_sensor_side_limit(self):
        with pytest.raises(ValueError, match="above 32768 px"):
            EventStream([70000], [0], [0], [1], 80000, 1)
        with pytest.raises(ValueError, match="above 32768 px"):
            EventStream([0], [0], [0], [1], 1, 32769)
        edge = EventStream([32767], [32767], [0], [1], 32768, 32768)
        assert (edge.xs.tolist(), edge.ys.tolist()) == ([32767], [32767])

    def test_non_integer_column_rejected(self):
        # Integral floats too: the dtype decides, not the values.
        for name in ("xs", "ys", "ts", "ps"):
            columns = dict(xs=[1, 2], ys=[0, 3], ts=[0, 10], ps=[1, -1])
            columns[name] = np.array(columns[name], dtype=np.float64)
            with pytest.raises(ValueError, match=f"column {name} must be integer, not float64"):
                EventStream(**columns, sensor_width=4, sensor_height=4)


def loadtxt_columns(path):
    """Reference: each field of loadtxt's packed t,x,y,p records, copied to
    its own contiguous array."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # no rows: "input contained no data"
        records = np.loadtxt(path, delimiter=",", dtype=evtrack.events._CSV_RECORD, ndmin=1,
                             skiprows=1, encoding="utf-8")
    return {name: np.ascontiguousarray(records[name[0]]) for name in ("ts", "xs", "ys", "ps")}


class TestLoadMatchesLoadtxt:
    """The loaded columns equal loadtxt's record fields bit for bit, dtype
    for dtype, and are C-contiguous and aligned."""

    @staticmethod
    def assert_matches(path):
        stream = load_events_csv(path)
        for name, want in loadtxt_columns(path).items():
            got = getattr(stream, name)
            assert got.dtype == want.dtype, name
            assert got.tobytes() == want.tobytes(), name
            assert got.flags.c_contiguous and got.flags.aligned, name
        return stream

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 6, 7, 8, 13, 14, 15, 20, 21, 22, 50, 99])
    def test_row_counts_around_the_packing_chunk(self, tmp_path, monkeypatch, n):
        monkeypatch.setattr(evtrack.events, "_PACK_CHUNK", 7)
        path = tmp_path / "events.csv"
        save_events_csv(random_stream(np.random.default_rng(n), n, 40, 30, 50_000), path)
        stream = self.assert_matches(path)
        oracle = loadtxt_columns(path)
        expected = EventStream(oracle["xs"], oracle["ys"], oracle["ts"], oracle["ps"],
                               stream.sensor_width, stream.sensor_height)
        got, want = stack_events(stream, 10_000), stack_events(expected, 10_000)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a.pixels, b.pixels)
            np.testing.assert_array_equal(a.values, b.values)
            assert (a.window_start, a.window_end) == (b.window_start, b.window_end)

    def test_blank_lines_comments_and_crlf(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_bytes(b"t,x,y,p\r\n0,1,2,1\r\n\r\n# note\r\n5,3,4,-1 # late\r\n\n7,0,0,1\r\n")
        stream = self.assert_matches(path)
        assert stream.ts.tolist() == [0, 5, 7]

    def test_negative_and_near_int64_max_timestamps(self, tmp_path):
        top = np.iinfo(np.int64).max
        low = np.iinfo(np.int64).min
        path = tmp_path / "events.csv"
        path.write_text(f"t,x,y,p\n{low},0,0,1\n-5,1,1,-1\n{top - 1},2,2,1\n{top},3,3,-1\n",
                        encoding="utf-8")
        stream = self.assert_matches(path)
        assert stream.ts.tolist() == [low, -5, top - 1, top]

    def test_under_a_tracer_that_reads_frame_locals(self, tmp_path):
        """A tracer holding the loader's locals makes numpy refuse the
        resize; the load still succeeds, with the same columns."""
        path = tmp_path / "events.csv"
        save_events_csv(random_stream(np.random.default_rng(1), 30, 40, 30, 50_000), path)

        def tracer(frame, event, arg):
            frame.f_locals  # noqa: B018 - the snapshot holds a reference to each local
            return tracer

        previous = sys.gettrace()
        sys.settrace(tracer)
        try:
            stream = self.assert_matches(path)
        finally:
            sys.settrace(previous)
        assert len(stream) == 30


class TestLoadEventsErrors:
    def write(self, tmp_path, text):
        path = tmp_path / "events.csv"
        path.write_text(text, encoding="utf-8")
        return path

    def test_bad_header(self, tmp_path):
        with pytest.raises(ValueError, match="bad event file header"):
            load_events_csv(self.write(tmp_path, "x,y,t,p\n0,1,2,1\n"))

    @pytest.mark.parametrize("row", ["5,1,x,1", "5,1,2", "5,1,2,1,0"])
    def test_malformed_row(self, tmp_path, row):
        with pytest.raises(ValueError):
            load_events_csv(self.write(tmp_path, f"t,x,y,p\n0,1,2,1\n{row}\n"))

    @pytest.mark.parametrize("row, value", [("5,40000,2,1", "40000"), ("5,1,-32769,1", "-32769"),
                                            ("5,1,2,300", "300")])
    def test_value_outside_its_column(self, tmp_path, row, value):
        with pytest.raises(ValueError, match=f"could not convert string '{value}'"):
            load_events_csv(self.write(tmp_path, f"t,x,y,p\n0,1,2,1\n{row}\n"))

    def test_header_only_gives_empty_stream(self, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stream = load_events_csv(self.write(tmp_path, "t,x,y,p\n"))
        assert len(stream) == 0
        assert (stream.sensor_width, stream.sensor_height) == (1, 1)

    def test_bad_polarity(self, tmp_path):
        with pytest.raises(ValueError, match="polarity"):
            load_events_csv(self.write(tmp_path, "t,x,y,p\n0,1,2,1\n5,1,2,0\n"))

    def test_header_row_is_not_data(self, tmp_path):
        stream = load_events_csv(self.write(tmp_path, " t, x, y, p \r\n0,1,2,1\r\n7,3,2,-1\r\n"))
        assert stream.ts.tolist() == [0, 7] and stream.xs.tolist() == [1, 3]
        assert stream.ts.dtype == np.int64
        assert (stream.sensor_width, stream.sensor_height) == (4, 3)


class TestStreamValidation:
    def test_decreasing_timestamps_rejected(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            make_stream([(0, 0, 10, 1), (0, 0, 5, 1)])

    def test_out_of_bounds_rejected(self):
        with pytest.raises(ValueError):
            make_stream([(99, 0, 0, 1)], w=16, h=16)

    # 65539 and 65536 would wrap to 3 and 0 in int16 (and polarity 257 to 1
    # in int8): the checks must run before the columns are narrowed.
    @pytest.mark.parametrize("point, message", [((65539, 0, 0, 1), "x out of"),
                                                ((0, 65536, 0, 1), "y out of")])
    def test_out_of_bounds_before_narrowing_rejected(self, point, message):
        with pytest.raises(ValueError, match=message):
            make_stream([point], w=16, h=16)

    def test_bad_polarity_rejected(self):
        for p in (2, 0, -2, 257):
            with pytest.raises(ValueError, match="polarity"):
                make_stream([(0, 0, 0, 1), (0, 0, 1, p)])

    # With 4-event chunks: the first chunk, across a chunk boundary, inside
    # a later chunk and the last, partial chunk.
    @pytest.mark.parametrize("at", [1, 3, 4, 5, 8, 9])
    def test_checks_reach_every_chunk_and_boundary(self, monkeypatch, at):
        monkeypatch.setattr(evtrack.events, "_PACK_CHUNK", 4)
        points = [(0, 0, 10 * i, 1) for i in range(10)]
        make_stream(points)
        late = list(points)
        late[at] = (0, 0, 10 * at - 11, 1)  # before the event ahead of it
        with pytest.raises(ValueError, match="non-decreasing"):
            make_stream(late)
        flipped = list(points)
        flipped[at] = (0, 0, 10 * at, 0)
        with pytest.raises(ValueError, match="polarity"):
            make_stream(flipped)
