"""Event streams, frame stacking, region cropping, and synthetic test sequences.

An event camera emits asynchronous brightness-change events (x, y, t, polarity).
For tracking we stack them into fixed-duration 3-channel frames:

    channel 0: per-pixel count of positive events, normalized by the window max
    channel 1: per-pixel count of negative events, normalized by the window max
    channel 2: latest-event time at each pixel, normalized to [0, 1) in the window

Pixels that saw no events are 0 in all channels. A frame is sparse: it holds
only the pixels its window's events touched, as ascending flat indices
y*W + x and their three channel values, so its size follows the events, not
the sensor. Each window is stacked with one sort: every event gets an
int64 key, its flat index y*W + x in the high 32 bits and its offset in the
window in the low 32, so the sorted keys group each pixel's events into a
run in time order. One comparison of neighbouring pixels finds the runs,
one `np.add.reduceat` counts each run's positive events, and each run's
last event is its pixel's latest. Every temporary holds one entry per
event or per touched pixel, none one per sensor pixel.

A stream is held in 13 bytes per event: ts int64, xs and ys int16, ps int8,
the four columns back to back in one buffer when loaded from a CSV. The CSV
parser writes packed 13-byte records of those types, so no (N, 4) int64
block is ever built, and the loader moves the records into the columns from
the back, shrinking the records as it goes: a load's resident peak is
loadtxt's own, about 14 bytes per event, and a stream's checks run in
chunks, so no temporary holds an entry per event. int16 coordinates cap a
sensor side at 32768 px, so a flat index is below 2**30, and a window's ys
are widened to int64 before the key is formed, because y * W overflows
int16 from row 95 on a 346-px-wide sensor.

Regions are cropped on a separable grid: the column and row sample positions
are two 1-D grids, so the bilinear weights, indices and validity masks are
built per axis and combined by outer product. A crop scatters only the
frame's pixels inside the rectangle its samples read into a dense patch.
Its grid-sized arrays are buffers of a `Workspace` (`ops`), the tracker's
when it crops, so a warm crop allocates only per-axis vectors.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, asdict
from typing import Iterator, Sequence

import numpy as np

from .config import check_kinds, known_fields
from .ops import Workspace

MAX_SENSOR_SIDE = 32768  # int16 coordinates reach 32767
# Stored dtype of each EventStream column, in the CSV's t,x,y,p order; the
# CSV parser fills one record of these per row.
_COLUMN_DTYPES = {"ts": np.int64, "xs": np.int16, "ys": np.int16, "ps": np.int8}
_CSV_RECORD = np.dtype([(name[0], dtype) for name, dtype in _COLUMN_DTYPES.items()])
# Events per step of the CSV loader's copy and of a stream's checks, so no
# temporary holds one entry per event.
_PACK_CHUNK = 1 << 14


@dataclass(frozen=True)
class EventStream:
    """Time-ordered event arrays plus the sensor geometry they live on.

    Immutable after construction; timestamps must be non-decreasing and all
    coordinates must lie on the sensor. Every column must have an integer
    dtype, else ValueError; it is checked in its own dtype, and only then
    stored compactly: ts int64, xs/ys int16, ps int8, 13 bytes per event.
    Sensor sides above MAX_SENSOR_SIDE (32768 px) are rejected, so a stored
    coordinate never wraps.
    """

    xs: np.ndarray
    ys: np.ndarray
    ts: np.ndarray
    ps: np.ndarray
    sensor_width: int
    sensor_height: int

    def __post_init__(self):
        for name in _COLUMN_DTYPES:
            arr = np.asarray(getattr(self, name))
            if arr.dtype.kind not in "iu":
                raise ValueError(f"event column {name} must be integer, not {arr.dtype}")
            object.__setattr__(self, name, arr)
        n = self.xs.size
        if not (self.ys.size == self.ts.size == self.ps.size == n):
            raise ValueError("event arrays must have equal length")
        if self.sensor_width <= 0 or self.sensor_height <= 0:
            raise ValueError("sensor dimensions must be positive")
        if max(self.sensor_width, self.sensor_height) > MAX_SENSOR_SIDE:
            raise ValueError(f"sensor sides above {MAX_SENSOR_SIDE} px are not supported")
        # Order and polarity are checked _PACK_CHUNK events at a time: a
        # whole-stream comparison would make a bool temporary per event.
        chunks = range(0, n, _PACK_CHUNK)
        for lo in chunks:
            ts = self.ts[lo:lo + _PACK_CHUNK + 1]  # and the next chunk's first
            if (ts[1:] < ts[:-1]).any():
                raise ValueError("timestamps must be non-decreasing")
        if n:
            if self.xs.min() < 0 or self.xs.max() >= self.sensor_width:
                raise ValueError("event x out of sensor bounds")
            if self.ys.min() < 0 or self.ys.max() >= self.sensor_height:
                raise ValueError("event y out of sensor bounds")
        for lo in chunks:
            ps = self.ps[lo:lo + _PACK_CHUNK]
            if not ((ps == 1) | (ps == -1)).all():
                raise ValueError("polarity must be +1 or -1")
        for name, dtype in _COLUMN_DTYPES.items():
            object.__setattr__(self, name, getattr(self, name).astype(dtype, copy=False))

    def __len__(self) -> int:
        return int(self.xs.size)


@dataclass(frozen=True)
class EventFrame:
    """One stacked window [window_start, window_end) microseconds on a
    width x height sensor, holding only the pixels its events touched.

    `pixels` holds their flat indices y * width + x, ascending and unique, as
    int32; `values` holds their three channel values, (3, len(pixels))
    float32. Every other pixel is 0 in every channel. `region` scatters the
    pixels inside a rectangle into a dense array, and `data` is the region
    covering the whole sensor, the dense (3, height, width) frame, built anew
    on every access.
    """

    pixels: np.ndarray
    values: np.ndarray
    width: int
    height: int
    window_start: int
    window_end: int

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise ValueError("frame dimensions must be positive")
        if max(self.width, self.height) > MAX_SENSOR_SIDE:  # so int32 holds every index
            raise ValueError(f"sensor sides above {MAX_SENSOR_SIDE} px are not supported")
        pixels = np.asarray(self.pixels)
        if pixels.ndim != 1 or (pixels.size and pixels.dtype.kind not in "iu"):
            raise ValueError("frame pixels must be a 1-D integer array")
        if pixels.size and (pixels[0] < 0 or pixels[-1] >= self.width * self.height
                            or (pixels[1:] <= pixels[:-1]).any()):
            raise ValueError("frame pixels must be ascending, unique and on the sensor")
        values = np.asarray(self.values, dtype=np.float32)
        if values.shape != (3, pixels.size):
            raise ValueError("frame values must be 3 x len(pixels)")
        object.__setattr__(self, "pixels", pixels.astype(np.int32, copy=False))
        object.__setattr__(self, "values", values)

    def region(self, left: int, top: int, right: int, bottom: int,
               ws: Workspace | None = None) -> np.ndarray:
        """The frame on the sensor rectangle [left, right) x [top, bottom), a
        dense (3, bottom - top, right - left) float32 array, 0 where no event
        was: a view of ws's "conv" buffer (a fresh Workspace if None). Reads
        only the pixels of rows top .. bottom - 1."""
        if not (0 <= left <= right <= self.width and 0 <= top <= bottom <= self.height):
            raise ValueError("region must lie on the sensor")
        ws = Workspace() if ws is None else ws
        out = ws.take("conv", (3, bottom - top, right - left), np.float32)
        out.fill(0)
        lo, hi = np.searchsorted(self.pixels, (top * self.width, bottom * self.width))
        ys, xs = np.divmod(self.pixels[lo:hi], self.width)
        inside = np.flatnonzero((xs >= left) & (xs < right))
        out[:, ys[inside] - top, xs[inside] - left] = self.values[:, lo + inside]
        return out

    @property
    def data(self) -> np.ndarray:
        """The dense (3, height, width) frame: a new array on every access."""
        return self.region(0, 0, self.width, self.height)

    @property
    def nbytes(self) -> int:
        """Bytes the frame's arrays hold: 16 per touched pixel."""
        return self.pixels.nbytes + self.values.nbytes


@dataclass(frozen=True)
class BBox:
    """Axis-aligned box in center form (cx, cy, w, h), pixel units."""

    cx: float
    cy: float
    w: float
    h: float

    def __post_init__(self):
        if not (self.w > 0 and self.h > 0):
            raise ValueError("degenerate box")

    @classmethod
    def from_topleft(cls, x: float, y: float, w: float, h: float) -> "BBox":
        return cls(x + w / 2.0, y + h / 2.0, w, h)

    def to_topleft(self) -> tuple[float, float, float, float]:
        return (self.cx - self.w / 2.0, self.cy - self.h / 2.0, self.w, self.h)

    def corners(self) -> tuple[float, float, float, float]:
        """(x1, y1, x2, y2)."""
        return (self.cx - self.w / 2.0, self.cy - self.h / 2.0,
                self.cx + self.w / 2.0, self.cy + self.h / 2.0)


@dataclass(frozen=True)
class RegionPatch:
    """A square crop resized to a fixed side, with the geometry to map back.

    A patch coordinate u (in [0, out_size), continuous, x or y alike) maps to
    the frame coordinate  crop_origin + u / resize_factor.
    """

    data: np.ndarray
    resize_factor: float
    crop_center: tuple[float, float]

    def __post_init__(self):
        if self.data.ndim != 3 or self.data.shape[0] != 3 or self.data.shape[1] != self.data.shape[2]:
            raise ValueError("patch data must be 3 x S x S")
        if self.resize_factor <= 0:
            raise ValueError("resize_factor must be positive")

    @property
    def out_size(self) -> int:
        return self.data.shape[-1]

    @property
    def crop_side(self) -> float:
        return self.out_size / self.resize_factor

    @property
    def crop_origin(self) -> tuple[float, float]:
        half = self.crop_side / 2.0
        return (self.crop_center[0] - half, self.crop_center[1] - half)

    def patch_to_frame(self, px: float, py: float) -> tuple[float, float]:
        ox, oy = self.crop_origin
        return (ox + px / self.resize_factor, oy + py / self.resize_factor)


def iter_event_frames(stream: EventStream, window_us: int) -> Iterator[EventFrame]:
    """Stack a stream into consecutive fixed-duration 3-channel frames, one
    window at a time.

    Windows tile [first_t, last_t]; an empty stream yields nothing, and an
    empty window gives a frame with no pixels. Each frame holds only its
    window's touched pixels (see `EventFrame`); their values are those of
    the dense encoding, bit for bit.

    A window is stacked with one in-place sort of one int64 key per event,
    (y * width + x) << 32 | the event's offset in the window (see
    `_pixel_runs`), so its temporaries take tens of bytes per event,
    whatever the sensor's size. A window of more than 2**32 events, whose
    offsets would not fit the key's low 32 bits, raises ValueError when
    the first frame is asked for.
    """
    if window_us <= 0:
        raise ValueError("window_us must be positive")
    return _windows(stream, window_us)


def _windows(stream: EventStream, window_us: int) -> Iterator[EventFrame]:
    if len(stream) == 0:
        return
    h, w = stream.sensor_height, stream.sensor_width
    first = int(stream.ts[0])
    last = int(stream.ts[-1])
    n_frames = (last - first) // window_us + 1

    # Events are time sorted, so each window is a contiguous slice; its
    # bounds are the first events at or after each window edge.
    bounds = np.searchsorted(stream.ts, first + np.arange(n_frames + 1) * window_us)
    largest = int(np.diff(bounds).max())
    if largest > _MAX_WINDOW_EVENTS:
        raise ValueError(f"a window holds {largest} events; stacking takes at most "
                         f"{_MAX_WINDOW_EVENTS} per window")
    # Each event's offset in its window, made once for the largest window:
    # a fresh np.arange took a quarter of a 22k-event window's time.
    offsets = np.arange(largest, dtype=np.int64)
    for k in range(n_frames):
        lo, hi = bounds[k], bounds[k + 1]
        start = first + k * window_us
        pixels, positive, length, latest = _pixel_runs(
            stream.xs[lo:hi], stream.ys[lo:hi], stream.ps[lo:hi], w, offsets[:hi - lo])
        values = np.zeros((3, pixels.size), dtype=np.float32)
        for c, counts in enumerate((positive, length - positive)):
            m = counts.max(initial=0)
            if m > 0:
                values[c] = counts / m
        # Latest-event surface: ts is sorted, so a pixel's last event is its
        # latest, and its float32 time is the maximum over the pixel's events.
        values[2] = (stream.ts[lo:hi][latest] - start).astype(np.float64) / window_us
        yield EventFrame(pixels, values, w, h, start, start + window_us)


# A stacking key holds a flat pixel index in its high 32 bits and the
# event's offset in its window in the low 32. The sorted keys are read back
# as their two 32-bit halves; which half comes first in memory follows the
# byte order. A flat index is below 2**30, as sensor sides are at most
# MAX_SENSOR_SIDE; an offset must fit the low half.
_LOW, _HIGH = (0, 1) if sys.byteorder == "little" else (1, 0)
_MAX_WINDOW_EVENTS = 1 << 32


def _pixel_runs(xs: np.ndarray, ys: np.ndarray, ps: np.ndarray, w: int,
                offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One window's touched pixels and what their events add up to, from
    one sort of the keys (y * w + x) << 32 | offset, where `offsets` holds
    0, 1, ..., one int64 per event.

    Sorting groups each pixel's events into a run, ascending by pixel and,
    within a pixel, by offset. Returns the touched pixels (int32,
    ascending), each one's positive-event count and event count (intp), and
    the offset of each one's last event. Every temporary holds one entry
    per event or per touched pixel.
    """
    n = xs.size
    if n == 0:
        return (np.empty(0, dtype=np.intp),) * 4
    # ys is widened first, as int16 y * w overflows from y = 32768 // w.
    key = ys.astype(np.int64)
    key *= w
    key += xs
    key <<= 32
    key += offsets
    key.sort()
    pixel = key.view(np.int32)[_HIGH::2]
    offset = key.view(np.uint32)[_LOW::2]
    run_start = np.empty(n, dtype=bool)
    run_start[0] = True
    np.not_equal(pixel[1:], pixel[:-1], out=run_start[1:])
    starts = np.flatnonzero(run_start)
    ends = np.append(starts[1:], n)
    positive = np.add.reduceat(np.take(ps, offset) > 0, starts, dtype=np.intp)
    return pixel[starts], positive, ends - starts, offset[ends - 1]


def stack_events(stream: EventStream, window_us: int) -> list[EventFrame]:
    """Every frame of `iter_event_frames`, as a list. Each frame holds 16
    bytes per touched pixel (an int32 index and three float32 values), so
    the list grows with the events, not with the sensor."""
    return list(iter_event_frames(stream, window_us))


def _bilinear_sample(frame: EventFrame, gx: np.ndarray, gy: np.ndarray,
                     ws: Workspace | None = None) -> np.ndarray:
    """Sample `frame` on the separable grid gy x gx; off the sensor reads 0.

    gx is the 1-D column grid and gy the 1-D row grid, in edge-based
    coordinates (pixel (i, j) spans [j, j+1) x [i, i+1)); the result is
    (3, len(gy), len(gx)) float32. Indices, weights and validity are built
    per axis; each axis's validity (exactly 0 or 1) is folded into its
    weights, which are >= 0, and each corner's weight is their outer
    product, as the outer products of weights and validity multiplied would
    round. Corners are summed in the (dy, dx) order (0, 0), (0, 1), (1, 0),
    (1, 1); another order rounds the float32 sum differently. The first
    corner is written, not added to zeros: equal for products >= +0, so for
    any frame of non-negative values, as stacked frames are.

    The frame is read through one dense patch: the rectangle of sensor
    pixels the corners fall on, the grid's span plus the 1-px margin of the
    second corner, clipped to the sensor. Validity is taken against the
    sensor, so an off-sensor corner weighs 0 whichever patch pixel its
    clipped index reads, and the result equals sampling the dense frame.

    Every grid-sized array is a buffer of `ws` (a fresh Workspace if None):
    the patch in "conv", the two column gathers in "silu" and "y_fwd", a
    corner's weights and values in the scratch pair, and the result in
    "in_proj", a view valid until ws's next use of that name.

    A non-finite grid raises ValueError. A finite grid is clipped to
    [-1, side + 1] per axis first: every sample beyond that reads 0 wherever
    it lies, and the clip keeps the int64 casts in range.
    """
    h, w = frame.height, frame.width
    if not (np.isfinite(gx).all() and np.isfinite(gy).all()):
        raise ValueError("crop grid must be finite")
    ws = Workspace() if ws is None else ws
    cx = np.clip(gx, -1.0, w + 1.0) - 0.5  # index space: pixel centers at integers
    cy = np.clip(gy, -1.0, h + 1.0) - 0.5
    x0 = np.floor(cx).astype(np.int64)
    y0 = np.floor(cy).astype(np.int64)
    fx = (cx - x0).astype(np.float32)
    fy = (cy - y0).astype(np.float32)
    out = ws.take("in_proj", (3, gy.size, gx.size), np.float32)
    left, right = max(int(x0.min()), 0), min(int(x0.max()) + 2, w)
    top, bottom = max(int(y0.min()), 0), min(int(y0.max()) + 2, h)
    if left >= right or top >= bottom:
        out.fill(0)
        return out  # every corner lies off the sensor
    img = frame.region(left, top, right, bottom, ws)

    # Both column sets are gathered from the patch once, then each one's rows
    # per dy: the values and products of a row-first gather, but each take
    # reads a (3, rows, len(gx)) array, not a (3, len(gy), cols) one per dx.
    # The indices are clipped already, so mode="clip" changes none; it lets
    # take write to `out=` unbuffered.
    columns = []
    for dx, wx, name in ((0, 1.0 - fx, "silu"), (1, fx, "y_fwd")):
        xi = x0 + dx
        cols = ws.take(name, (3, bottom - top, gx.size), np.float32)
        np.take(img, np.clip(xi, left, right - 1) - left, axis=2, out=cols, mode="clip")
        columns.append((wx * ((xi >= 0) & (xi < w)), cols))
    weight = ws.take("scratch.0", (gy.size, gx.size), np.float32)
    corner = ws.take("scratch.1", out.shape, np.float32)
    for dy, wy in ((0, 1.0 - fy), (1, fy)):
        yi = y0 + dy
        wy = wy * ((yi >= 0) & (yi < h))
        yc = np.clip(yi, top, bottom - 1) - top
        for dx, (wx, cols) in enumerate(columns):
            # The outer product without the iterator buffers a broadcast
            # multiply allocates (65 KiB at 256 samples). Exact only as both
            # factors are >= +0: einsum writes +0.0 where a product is -0.0.
            np.einsum("i,j->ij", wy, wx, out=weight)
            np.take(cols, yc, axis=1, out=corner, mode="clip")
            if dy == dx == 0:
                np.multiply(weight, corner, out=out)
            else:
                out += np.multiply(weight, corner, out=corner)
    return out


def crop_region(frame: EventFrame, box: BBox, context_factor: float, out_size: int,
                ws: Workspace | None = None) -> RegionPatch:
    """Crop a context-scaled square around a box and resize it bilinearly.

    The crop side is context_factor * sqrt(w * h); out-of-frame area is
    zero-padded. resize_factor = out_size / crop_side is recorded so patch
    coordinates can be mapped back to frame coordinates. The sample grid is
    separable: columns at x0 + grid, rows at y0 + grid. Only the frame's
    pixels inside the sampled rectangle (the crop's span plus a 1-px margin,
    clipped to the sensor) are read; the patch equals a crop of the dense
    frame bit for bit. Its data is a view of ws's "in_proj" buffer (a
    fresh Workspace if None; see `_bilinear_sample`).
    """
    if context_factor < 1:
        raise ValueError("context_factor must be >= 1")
    if not (box.w * box.h > 0):
        raise ValueError("degenerate box")
    side = context_factor * math.sqrt(box.w * box.h)
    rf = out_size / side
    x0 = box.cx - side / 2.0
    y0 = box.cy - side / 2.0
    grid = (np.arange(out_size, dtype=np.float64) + 0.5) / rf
    data = _bilinear_sample(frame, x0 + grid, y0 + grid, ws)
    return RegionPatch(data=data, resize_factor=rf, crop_center=(box.cx, box.cy))


# ---------------------------------------------------------------------------
# Synthetic sequences
# ---------------------------------------------------------------------------

@dataclass
class SynthConfig:
    """Deterministic moving-rectangle event generator.

    The target's centre starts at `start_center` (the sensor's centre if
    None) and moves `velocity` px per window in a straight line. Events fire
    on the target boundary (rounded to the containing pixel, so within 1 px)
    plus uniform noise; one ground-truth box per stacking window.
    """

    sensor_width: int = 240
    sensor_height: int = 180
    target_width: float = 32.0
    target_height: float = 24.0
    velocity: tuple[float, float] = (2.0, 1.0)  # px per window
    events_per_window: int = 600
    noise_per_window: int = 60
    duration_us: int = 500_000
    window_us: int = 10_000
    start_center: tuple[float, float] | None = None
    seed: int = 0

    def __post_init__(self):
        check_kinds(self)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "SynthConfig":
        """Parse a JSON object; an unknown key or a value of the wrong kind is an error."""
        d = json.loads(text)
        if not isinstance(d, dict):
            raise ValueError("synth config must be a JSON object")
        for name in ("velocity", "start_center"):
            if isinstance(d.get(name), list):
                d[name] = tuple(d[name])
        return cls(**known_fields(cls, d, "synth config"))


def _target_centers(cfg: SynthConfig, n_windows: int) -> np.ndarray:
    if cfg.start_center is not None:
        cx, cy = cfg.start_center
    else:
        cx, cy = cfg.sensor_width / 2.0, cfg.sensor_height / 2.0
    centers = np.empty((n_windows, 2), dtype=np.float64)
    vx, vy = cfg.velocity
    for k in range(n_windows):
        centers[k] = (cx, cy)
        cx, cy = cx + vx, cy + vy  # cumulative so consecutive steps are exact
    return centers


def _perimeter_points(rng: np.random.Generator, center: np.ndarray,
                      w: float, h: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n points sampled uniformly along the rectangle boundary (edge coords)."""
    x1 = center[0] - w / 2.0
    y1 = center[1] - h / 2.0
    per = 2.0 * (w + h)
    s = rng.uniform(0.0, per, size=n)
    fx = np.empty(n)
    fy = np.empty(n)
    top = s < w
    right = (s >= w) & (s < w + h)
    bottom = (s >= w + h) & (s < 2 * w + h)
    left = s >= 2 * w + h
    fx[top], fy[top] = x1 + s[top], y1
    fx[right], fy[right] = x1 + w, y1 + (s[right] - w)
    fx[bottom], fy[bottom] = x1 + w - (s[bottom] - w - h), y1 + h
    fx[left], fy[left] = x1, y1 + h - (s[left] - 2 * w - h)
    return fx, fy


def synth_stream(cfg: SynthConfig) -> tuple[EventStream, list[BBox]]:
    """Generate a synthetic stream and one ground-truth box per window.

    Deterministic for a fixed seed (bit-exact across runs).
    """
    if cfg.duration_us <= 0:
        raise ValueError("duration must be positive")
    n_windows = cfg.duration_us // cfg.window_us
    if n_windows == 0:
        raise ValueError("duration shorter than one stacking window")
    rng = np.random.default_rng(cfg.seed)
    centers = _target_centers(cfg, n_windows)

    xs_all, ys_all, ts_all, ps_all = [], [], [], []
    for k in range(n_windows):
        t0 = k * cfg.window_us
        fx, fy = _perimeter_points(rng, centers[k], cfg.target_width, cfg.target_height,
                                   cfg.events_per_window)
        xs = np.clip(np.floor(fx).astype(np.int64), 0, cfg.sensor_width - 1)
        ys = np.clip(np.floor(fy).astype(np.int64), 0, cfg.sensor_height - 1)
        ts = rng.integers(t0, t0 + cfg.window_us, size=cfg.events_per_window)
        ps = rng.choice(np.array([-1, 1], dtype=np.int64), size=cfg.events_per_window)
        xs_all.append(xs); ys_all.append(ys); ts_all.append(ts); ps_all.append(ps)
        if cfg.noise_per_window > 0:
            xs_all.append(rng.integers(0, cfg.sensor_width, size=cfg.noise_per_window))
            ys_all.append(rng.integers(0, cfg.sensor_height, size=cfg.noise_per_window))
            ts_all.append(rng.integers(t0, t0 + cfg.window_us, size=cfg.noise_per_window))
            ps_all.append(rng.choice(np.array([-1, 1], dtype=np.int64), size=cfg.noise_per_window))

    xs = np.concatenate(xs_all)
    ys = np.concatenate(ys_all)
    ts = np.concatenate(ts_all)
    ps = np.concatenate(ps_all)
    order = np.argsort(ts, kind="stable")
    stream = EventStream(xs[order], ys[order], ts[order], ps[order],
                         cfg.sensor_width, cfg.sensor_height)
    boxes = [BBox(c[0], c[1], cfg.target_width, cfg.target_height) for c in centers]
    return stream, boxes


# ---------------------------------------------------------------------------
# File formats: event CSV (`t,x,y,p` with header) and box files
# (`x,y,w,h` top-left, one line per frame). UTF-8, LF.
# ---------------------------------------------------------------------------

_SAVE_CHUNK = 1 << 16  # rows per write; a chunk's Python ints take about 8 MiB


def save_events_csv(stream: EventStream, path) -> None:
    """Write `t,x,y,p` rows, one %-format call per chunk of rows."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("t,x,y,p\n")
        for lo in range(0, len(stream), _SAVE_CHUNK):
            hi = lo + _SAVE_CHUNK
            rows = np.column_stack((stream.ts[lo:hi], stream.xs[lo:hi],
                                    stream.ys[lo:hi], stream.ps[lo:hi]))
            f.write(("%d,%d,%d,%d\n" * len(rows)) % tuple(rows.ravel().tolist()))


def load_events_csv(path) -> EventStream:
    """Load an event CSV, inferring the sensor size from the largest x and y.

    Rows are parsed straight into packed 13-byte t,x,y,p records, so a value
    outside its column's range (x = 40000, p = 300) fails in the parser with
    "could not convert ...". A file with the header and no rows gives the
    empty stream, with sensor size 1 x 1.

    The stream's four columns are one 13 B/event buffer, reserved whole
    but filled from the back: per `_PACK_CHUNK` rows, the last rows of the
    records are copied into the columns and the records are shrunk to the
    rows before them with `ndarray.resize`. A page of the buffer becomes
    resident only when written, and shrinking a large allocation returns its
    tail pages, so the resident records and columns together stay near
    13 B/event plus one chunk and a partly filled page per column. The load
    then peaks at loadtxt's own parse. tracemalloc, which counts reserved
    bytes, sees both whole buffers at once: 26 B/event.

    `ndarray.resize` keeps its reference check. No view of the records
    outlives the statement that makes it, so only this frame holds them.
    Where something else does (a tracer that reads frame locals), numpy
    refuses, and the rest is copied without shrinking: that load peaks at
    the records and the columns, 26 B/event resident.
    """
    with open(path, "r", encoding="utf-8") as f:
        header = f.readline().strip()
        has_rows = any(line.split("#", 1)[0].strip() for line in f)
    if header.replace(" ", "") != "t,x,y,p":
        raise ValueError(f"bad event file header: {header!r}")
    if not has_rows:  # loadtxt would warn "input contained no data"
        records = np.empty(0, dtype=_CSV_RECORD)
    else:
        # Given the path, loadtxt's parser reads the file itself; handed the
        # open file it would pull the rows through Python line by line.
        records = np.loadtxt(path, delimiter=",", dtype=_CSV_RECORD, ndmin=1, skiprows=1,
                             encoding="utf-8")
    n = records.size
    buffer = np.empty(_CSV_RECORD.itemsize * n, dtype=np.uint8)
    # A field's column starts at n times its offset in a record: ts, xs, ys
    # and ps back to back, each aligned to its itemsize.
    columns = {field: buffer[offset * n:(offset + dtype.itemsize) * n].view(dtype)
               for field, (dtype, offset) in _CSV_RECORD.fields.items()}
    shrink = True
    for hi in range(n, 0, -_PACK_CHUNK):
        lo = max(hi - _PACK_CHUNK, 0)
        for field, column in columns.items():
            column[lo:hi] = records[field][lo:hi]
        if shrink:
            try:
                records.resize(lo)
            except ValueError:  # numpy's reference check: the records are held elsewhere
                shrink = False
    xs, ys = columns["x"], columns["y"]
    return EventStream(xs, ys, columns["t"], columns["p"],
                       int(xs.max(initial=0)) + 1, int(ys.max(initial=0)) + 1)


def save_boxes_csv(boxes: Sequence[BBox], path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for b in boxes:
            x, y, w, h = b.to_topleft()
            f.write(f"{x:.4f},{y:.4f},{w:.4f},{h:.4f}\n")


def load_boxes_csv(path) -> list[BBox]:
    boxes = []
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            values = [float(v) for v in line.split(",")]
            if len(values) != 4 or not all(map(math.isfinite, values)):
                raise ValueError(f"box line {line!r}: expected four finite numbers x,y,w,h")
            boxes.append(BBox.from_topleft(*values))
    return boxes
