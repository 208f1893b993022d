"""Self-contained invariant and oracle suite behind `evtrack selftest`.

Each check re-derives its expected values independently (plain loops,
numpy.corrcoef, extended precision) so a passing run certifies the
implementation against something other than itself. The pytest suite runs
larger versions of the same checks; this one is sized to finish quickly.
"""

from __future__ import annotations

import io
import math
import os
import tempfile
import time
import traceback

import numpy as np

from .backbone import init_backbone
from .config import TrackerConfig
from .events import BBox, SynthConfig, stack_events, synth_stream
from .head import HeadOutputs, decode_bbox, init_head, head_forward
from .losses import LossWeights, combine_losses, giou, iou
from .memory import MemoryLibrary, TemplateFeature, gram_det, pearson
from .metrics import evaluate
from .model import init_model
from .ssm import (_coefficients_into, _seeded_states, _selection, discretize,
                  init_ssm_params, scan_backward, scan_forward_chunked)
from .tracker import Tracker, track_frames
from .weights import load_weights, save_weights
from .events import RegionPatch


def _rand_feature(rng, frame_index=0, shape=(8, 4)):
    return TemplateFeature(tokens=rng.standard_normal(shape), frame_index=frame_index)


def _hadamard(order: int) -> np.ndarray:
    h = np.array([[1.0]])
    while h.shape[0] < order:
        h = np.block([[h, h], [h, -h]])
    return h


def check_zoh_closed_form():
    a_bar, b_bar = discretize(-1.0, 1.0, math.log(2.0))
    assert abs(a_bar - 0.5) < 1e-15 and abs(b_bar - 0.5) < 1e-15
    rng = np.random.default_rng(0)
    a = -np.exp(rng.standard_normal(100))
    b = rng.standard_normal(100)
    d = np.exp(rng.uniform(-3, 1, 100))
    a_bar, b_bar = discretize(a, b, d)
    ref_a = np.exp(d * a)
    ref_b = (np.exp(d * a) - 1.0) / a * b
    assert np.max(np.abs(a_bar - ref_a) / np.abs(ref_a)) < 1e-12
    assert np.max(np.abs(b_bar - ref_b) / np.maximum(np.abs(ref_b), 1e-300)) < 1e-10
    # a -> 0 limit
    _, b0 = discretize(0.0, 3.0, 0.25)
    assert b0 == 0.25 * 3.0


def check_zoh_series_continuity():
    # step across the series/closed-form switch at |delta*a| = 1e-4
    for sign in (-1.0, 1.0):
        lo = discretize(sign * 1.0, 1.0, 1e-4 * (1 - 1e-9))[1]
        hi = discretize(sign * 1.0, 1.0, 1e-4 * (1 + 1e-9))[1]
        assert abs(lo - hi) < 1e-10


def check_prefix_sum_case():
    rng = np.random.default_rng(1)
    u = rng.integers(-5, 6, size=(64, 3)).astype(np.float64)
    hs = np.empty((64, 3, 1))
    _seeded_states(np.ones((64, 3, 1)), u[:, :, None], np.zeros((3, 1)), hs)
    assert np.array_equal(hs[:, :, 0], np.cumsum(u, axis=0))


def check_scan_oracle():
    rng = np.random.default_rng(2)
    params = init_ssm_params(4, 4, 2, rng, np.float64)
    u = rng.standard_normal((64, 4))
    y = scan_forward_chunked(u, params)
    y_ref = _sequential_oracle(u, params)
    rel = np.max(np.abs(y - y_ref)) / np.max(np.abs(y_ref))
    assert rel < 1e-6, rel


def _sequential_oracle(u, params):
    """Plain-python recurrence in extended precision."""
    ld = np.longdouble
    a = -np.exp(params.a_log.astype(ld))
    L, d = u.shape
    r, n = params.dt_rank, params.d_state
    y = np.zeros((L, d), dtype=ld)
    h = np.zeros((d, n), dtype=ld)
    for t in range(L):
        xdbl = u[t].astype(ld) @ params.x_proj.astype(ld)
        pre = xdbl[:r] @ params.dt_proj.astype(ld) + params.dt_bias.astype(ld)
        delta = np.log1p(np.exp(pre))
        b_sel, c_sel = xdbl[r:r + n], xdbl[r + n:]
        da = delta[:, None] * a
        h = np.exp(da) * h + (np.expm1(da) / a) * b_sel[None, :] * u[t].astype(ld)[:, None]
        y[t] = h @ c_sel + params.d_skip.astype(ld) * u[t]
    return y.astype(np.float64)


def _unblocked_scan(u, params):
    """Whole-length scan: every token's coefficients at once, then one plain
    recurrence from the zero state; the reference for scan_forward_chunked.
    Same state-major (L, d_state, d_inner) arithmetic, unblocked."""
    _, b_sel, c_sel, _, delta = _selection(u, params)
    a_t = np.ascontiguousarray(-np.exp(params.a_log.astype(u.dtype, copy=False)).T)
    L, d = u.shape
    a_bar = np.empty((L, params.d_state, d), dtype=u.dtype)
    bx = np.empty_like(a_bar)
    _coefficients_into(u, delta, b_sel, a_t, 1.0 / a_t, a_bar, bx)
    hs = np.empty_like(bx)
    h = np.zeros((params.d_state, d), dtype=u.dtype)
    for t in range(L):
        np.multiply(h, a_bar[t], out=h)
        h += bx[t]
        hs[t] = h
    return (c_sel[:, None, :] @ hs)[:, 0] + u * params.d_skip.astype(u.dtype, copy=False)


def check_chunked_equivalence():
    # At d_inner 64, d_state 16 a block holds 128 float32 / 64 float64
    # tokens, so 700 tokens span five or ten full blocks and a ragged last one.
    rng = np.random.default_rng(3)
    for dtype in (np.float32, np.float64):
        params = init_ssm_params(64, 16, 4, rng, dtype)
        u = rng.standard_normal((700, 64)).astype(dtype)
        assert np.array_equal(scan_forward_chunked(u, params), _unblocked_scan(u, params))


def check_scan_gradients():
    rng = np.random.default_rng(4)
    params = init_ssm_params(3, 4, 2, rng, np.float64)
    u = rng.standard_normal((12, 3))
    w = rng.standard_normal((12, 3))
    du, grads = scan_backward(u, params, w)
    eps = 1e-4
    for i in (0, 5, 11):
        for j in range(3):
            up, um = u.copy(), u.copy()
            up[i, j] += eps
            um[i, j] -= eps
            fd = (np.sum(w * scan_forward_chunked(up, params)) -
                  np.sum(w * scan_forward_chunked(um, params))) / (2 * eps)
            assert abs(fd - du[i, j]) <= 1e-4 * max(1.0, abs(fd)), (i, j, fd, du[i, j])
    arr = params.a_log
    for idx in ((0, 0), (2, 3)):
        orig = arr[idx]
        arr[idx] = orig + eps
        lp = np.sum(w * scan_forward_chunked(u, params))
        arr[idx] = orig - eps
        lm = np.sum(w * scan_forward_chunked(u, params))
        arr[idx] = orig
        fd = (lp - lm) / (2 * eps)
        assert abs(fd - grads["a_log"][idx]) <= 1e-4 * max(1.0, abs(fd))


def check_gram_closed_forms():
    rng = np.random.default_rng(5)
    z = _rand_feature(rng)
    assert abs(gram_det([z] * 4)) < 1e-12
    h = _hadamard(8)
    ortho = [TemplateFeature(tokens=h[i].reshape(4, 2), frame_index=i) for i in (1, 2, 3)]
    assert abs(gram_det(ortho) - 1.0) < 1e-12
    rho = [TemplateFeature(tokens=(h[i] + h[4]).reshape(4, 2), frame_index=i)
           for i in (1, 2, 3)]
    assert abs(gram_det(rho) - 0.5) < 1e-12  # 1 - 3*rho^2 + 2*rho^3 at rho = 0.5


def check_memory_oracles():
    rng = np.random.default_rng(6)
    for trial in range(100):
        lib = MemoryLibrary(st_capacity=3, lt_capacity=5)
        lib.init_memory(_rand_feature(rng, 0))
        lib.lt = [_rand_feature(rng, i) for i in range(5)]
        z = _rand_feature(rng, 99)
        # independent oracle: numpy.corrcoef determinant over each replacement
        feats = [f.flat() for f in lib.lt]
        det0 = np.linalg.det(np.corrcoef(np.stack(feats)))
        best, best_j = -np.inf, -1
        for j in range(5):
            cand = list(feats)
            cand[j] = z.flat()
            det = np.linalg.det(np.corrcoef(np.stack(cand)))
            if det > best:
                best, best_j = det, j
        record = lib.lt_admit(z)
        assert record.accepted == (best > det0), trial
        if record.accepted:
            assert record.replaced_index == best_j
        # routing matches an exhaustive argmax
        incoming = _rand_feature(rng, 100)
        sims_st = [pearson(incoming, m) for m in lib.st_members()]
        sims_lt = [pearson(incoming, m) for m in lib.lt]
        expect = "ST" if max(sims_st) >= max(sims_lt) else "LT"
        assert lib.route(incoming) == expect


def check_pearson_properties():
    rng = np.random.default_rng(7)
    for _ in range(50):
        a = _rand_feature(rng)
        b = _rand_feature(rng)
        assert abs(pearson(a, a) - 1.0) < 1e-12
        assert abs(pearson(a, b) - pearson(b, a)) < 1e-12
        alpha = float(rng.uniform(0.5, 3.0)) * float(rng.choice([-1, 1]))
        beta = float(rng.uniform(-2, 2))
        scaled = TemplateFeature(tokens=alpha * a.tokens + beta, frame_index=0)
        assert abs(pearson(scaled, b) - math.copysign(1, alpha) * pearson(a, b)) < 1e-10


def check_giou_properties():
    rng = np.random.default_rng(8)
    b = BBox(10, 10, 4, 6)
    assert giou(b, b) == 1.0
    assert giou(BBox(0.5, 0.5, 1, 1), BBox(1.5, 0.5, 1, 1)) == 0.0
    for _ in range(200):
        a = BBox(*rng.uniform(2, 20, 2), *rng.uniform(0.5, 10, 2))
        c = BBox(*rng.uniform(2, 20, 2), *rng.uniform(0.5, 10, 2))
        assert giou(a, c) <= iou(a, c) + 1e-12
        dx, dy = rng.uniform(-50, 50, 2)
        s = float(rng.uniform(0.1, 10))
        shifted = lambda bb: BBox(bb.cx + dx, bb.cy + dy, bb.w, bb.h)
        scaled = lambda bb: BBox(bb.cx * s, bb.cy * s, bb.w * s, bb.h * s)
        assert abs(giou(shifted(a), shifted(c)) - giou(a, c)) < 1e-9
        assert abs(giou(scaled(a), scaled(c)) - giou(a, c)) < 1e-9


def check_loss_weighting():
    total = combine_losses(0.1, 0.2, 0.3, LossWeights(5.0, 1.0, 2.0))
    assert abs(total - 1.3) < 1e-15


def check_head_decode():
    score = np.zeros((16, 16))
    score[8, 8] = 1.0
    offset = np.full((2, 16, 16), 0.5)
    size = np.full((2, 16, 16), 0.25)
    out = HeadOutputs(score=score, offset=offset, size=size)
    patch = RegionPatch(data=np.zeros((3, 256, 256), dtype=np.float32),
                        resize_factor=1.0, crop_center=(128.0, 128.0))
    box = decode_bbox(out, patch)
    assert (box.cx, box.cy, box.w, box.h) == (136.0, 136.0, 64.0, 64.0)


def check_weight_roundtrip():
    cfg = TrackerConfig(embed_dim=32, depth=1, d_state=4, dt_rank=2, seed=3)
    model = init_model(cfg)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "w.bin")
        save_weights(path, model)
        model2 = init_model(TrackerConfig(embed_dim=32, depth=1, d_state=4,
                                          dt_rank=2, seed=99))
        load_weights(path, model2)
        assert np.array_equal(model.backbone.blocks[0].in_proj,
                              model2.backbone.blocks[0].in_proj)


def check_tracking_cadence():
    cfg = TrackerConfig(embed_dim=16, depth=1, d_state=2, dt_rank=2,
                        template_size=32, search_size=64, patch_size=16,
                        lt_capacity=3, st_capacity=2, update_interval=5, seed=0)
    model = init_model(cfg)
    synth = SynthConfig(sensor_width=96, sensor_height=96, duration_us=210_000,
                        window_us=10_000, events_per_window=150,
                        noise_per_window=10, velocity=(1.0, 0.5), seed=1)
    stream, gt = synth_stream(synth)
    frames = stack_events(stream, cfg.window_us)
    boxes = track_frames(cfg, model, frames, gt[0])
    assert len(boxes) == len(frames)
    tracker = Tracker(cfg, model)
    tracker.init(frames[0], gt[0])
    for f in frames[1:]:
        tracker.step(f)
    assert tracker.stats.memory_updates == (len(frames) - 1) // cfg.update_interval


def check_metrics_perfect():
    rng = np.random.default_rng(9)
    boxes = [BBox(*rng.uniform(20, 80, 2), *rng.uniform(5, 15, 2)) for _ in range(10)]
    rep = evaluate(boxes, boxes)
    assert rep.sr == 1.0 and rep.pr == 1.0 and rep.npr == 1.0


def _best_of(fn, repeats: int) -> float:
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def check_scan_blocking_no_regression():
    rng = np.random.default_rng(10)
    params = init_ssm_params(384, 16, 24, rng, np.float32)
    u = rng.standard_normal((1024, 384)).astype(np.float32)
    _unblocked_scan(u, params)  # warm up caches and BLAS threads
    t_ref = _best_of(lambda: _unblocked_scan(u, params), 3)
    t_blk = _best_of(lambda: scan_forward_chunked(u, params), 3)
    assert t_ref / t_blk >= 1.0, f"blocked scan slower: {t_ref / t_blk:.2f}x"


CHECKS = [
    ("zoh_closed_form", check_zoh_closed_form),
    ("zoh_series_continuity", check_zoh_series_continuity),
    ("scan_prefix_sum_case", check_prefix_sum_case),
    ("scan_sequential_oracle", check_scan_oracle),
    ("scan_chunked_equivalence", check_chunked_equivalence),
    ("scan_gradients_fd", check_scan_gradients),
    ("gram_closed_forms", check_gram_closed_forms),
    ("memory_admission_routing", check_memory_oracles),
    ("pearson_properties", check_pearson_properties),
    ("giou_properties", check_giou_properties),
    ("loss_weighting", check_loss_weighting),
    ("head_decode", check_head_decode),
    ("weight_roundtrip", check_weight_roundtrip),
    ("tracking_cadence", check_tracking_cadence),
    ("metrics_perfect", check_metrics_perfect),
    ("scan_blocking_no_regression", check_scan_blocking_no_regression),
]


def run_selftest(verbose: bool = True) -> bool:
    ok = True
    for name, fn in CHECKS:
        try:
            fn()
            if verbose:
                print(f"PASS {name}")
        except Exception:
            ok = False
            print(f"FAIL {name}")
            traceback.print_exc()
    return ok
