"""Shared test helpers: small model builders, an install recorder, frames
from dense arrays, the bitwise scan reference and gradient comparison."""

import numpy as np

from evtrack.config import TrackerConfig
from evtrack.events import EventFrame, SynthConfig
from evtrack.model import init_model
from evtrack.ssm import _coefficients_into, _selection, _state_matrix
from evtrack.tracker import Tracker

SMALL_CONFIG = dict(embed_dim=16, depth=1, d_state=2, dt_rank=2,
                    template_size=32, search_size=64, patch_size=16,
                    lt_capacity=3, st_capacity=2, update_interval=5)

# 21 frames of a small moving target: four update ticks (t = 5, 10, 15, 20)
# at update_interval 5.
SMALL_SYNTH = SynthConfig(sensor_width=96, sensor_height=96, duration_us=210_000,
                          window_us=10_000, events_per_window=150,
                          noise_per_window=10, velocity=(1.0, 0.5), seed=1)


def small_config(**overrides) -> TrackerConfig:
    kw = dict(SMALL_CONFIG)
    kw.update(overrides)
    return TrackerConfig(**kw)


def small_model(**overrides):
    cfg = small_config(**overrides)
    return cfg, init_model(cfg)


def record_installs(monkeypatch) -> list[int]:
    """Wrap `Tracker._install`; the list returned receives the frame index of
    every install of a dynamic template (0 is init)."""
    installs = []
    install = Tracker._install

    def recording(self, dynamic):
        installs.append(self._frame_index)
        install(self, dynamic)

    monkeypatch.setattr(Tracker, "_install", recording)
    return installs


def frame_from_dense(data, window_start: int, window_end: int) -> EventFrame:
    """The frame of a dense (3, H, W) array, converted to float32; every
    pixel whose bits are not all zero in some channel is kept, so the frame's
    `data` returns the array bit for bit (-0.0 included)."""
    data = np.asarray(data, dtype=np.float32)
    _, h, w = data.shape
    flat = data.reshape(3, h * w)
    pixels = np.flatnonzero(flat.view(np.uint32).any(axis=0))
    return EventFrame(pixels, flat[:, pixels], w, h, window_start, window_end)


def unblocked_scan(u, params):
    """Whole-length scan: every token's coefficients at once, then one plain
    recurrence from the zero state; the reference for scan_forward_chunked.
    Same state-major (L, d_state, d_inner) arithmetic, unblocked."""
    _, b_sel, c_sel, _, delta = _selection(u, params)
    a_t, inv_a_t = _state_matrix(params, u.dtype)
    L, d = u.shape
    a_bar = np.empty((L, params.d_state, d), dtype=u.dtype)
    bx = np.empty_like(a_bar)
    _coefficients_into(u, delta, b_sel, a_t, inv_a_t, a_bar, bx)
    hs = np.empty_like(bx)
    h = np.zeros((params.d_state, d), dtype=u.dtype)
    for t in range(L):
        np.multiply(h, a_bar[t], out=h)
        h += bx[t]
        hs[t] = h
    return (c_sel[:, None, :] @ hs)[:, 0] + u * params.d_skip.astype(u.dtype, copy=False)


def assert_grad_close(analytic, fd, rtol=1e-4, atol=1e-7):
    """Elementwise |a - b| <= atol + rtol * max(|a|, |b|)."""
    analytic = np.asarray(analytic, dtype=np.float64)
    fd = np.asarray(fd, dtype=np.float64)
    tol = atol + rtol * np.maximum(np.abs(analytic), np.abs(fd))
    bad = np.abs(analytic - fd) > tol
    assert not bad.any(), (
        f"{int(bad.sum())} gradient entries disagree; worst "
        f"analytic={analytic[bad].ravel()[0]:.6g} fd={fd[bad].ravel()[0]:.6g}")


def central_difference(fn, arr, idx, eps=1e-4):
    orig = arr[idx]
    arr[idx] = orig + eps
    hi = fn()
    arr[idx] = orig - eps
    lo = fn()
    arr[idx] = orig
    return (hi - lo) / (2 * eps)
