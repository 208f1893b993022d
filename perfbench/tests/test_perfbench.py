"""Tests of the benchmark's own parts: inputs, output check, spans, wrappers.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import importlib
import json
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, Tracer, layer_metrics, self_times  # noqa: E402

TINY = workloads.Scene(sensor_width=64, sensor_height=48, target_width=12.0,
                       target_height=8.0, orbit_radius=10.0, windows=8,
                       edge_events=50, noise_events=5, window_us=1000)


# -- generator ---------------------------------------------------------------

def test_generator_is_deterministic_per_seed(tmp_path):
    for name, seed in (("a", 3), ("b", 3), ("c", 4)):
        workloads.write_events_csv(TINY, seed, tmp_path / f"{name}.csv")
    a, b, c = ((tmp_path / f"{n}.csv").read_bytes() for n in "abc")
    assert a == b
    assert a != c
    assert workloads.ground_truth(TINY, 3) == workloads.ground_truth(TINY, 3)
    assert workloads.ground_truth(TINY, 3) != workloads.ground_truth(TINY, 4)


def test_generated_stream_matches_scene(tmp_path):
    from evtrack.events import load_events_csv, stack_events
    count = workloads.write_events_csv(TINY, 7, tmp_path / "e.csv")
    stream = load_events_csv(tmp_path / "e.csv")
    assert len(stream) == count == TINY.windows * (TINY.edge_events + TINY.noise_events)
    assert (stream.sensor_width, stream.sensor_height) == (64, 48)
    frames = stack_events(stream, TINY.window_us)
    assert len(frames) == TINY.windows
    assert [f.window_start for f in frames] == [k * TINY.window_us for k in range(TINY.windows)]
    for (cx, cy, w, h) in workloads.ground_truth(TINY, 7):
        assert w / 2 <= cx <= 64 - w / 2 and h / 2 <= cy <= 48 - h / 2


def test_orbit_closes_so_replay_is_seamless():
    c = workloads.centres(TINY, 1)
    step = np.linalg.norm(np.diff(c, axis=0), axis=1)
    wrap = np.linalg.norm(c[0] - c[-1])
    assert wrap == pytest.approx(step.mean())


# -- output check ------------------------------------------------------------

@pytest.mark.parametrize("box, valid", [
    ((32.0, 24.0, 10.0, 10.0), True),
    ((0.0, 0.0, 64.0, 48.0), True),        # centre on the edge pixel, full sensor
    ((63.9, 47.9, 1.0, 1.0), True),
    ((64.0, 24.0, 10.0, 10.0), False),     # centre off the right edge
    ((32.0, -0.1, 10.0, 10.0), False),     # centre above the top
    ((32.0, 24.0, 64.1, 10.0), False),     # wider than the sensor
    ((32.0, 24.0, 10.0, 48.5), False),     # taller than the sensor
    ((math.nan, 24.0, 10.0, 10.0), False),
    ((32.0, 24.0, math.inf, 10.0), False),
])
def test_box_validity_rule(box, valid):
    cx, cy, w, h = box
    assert run.box_valid(SimpleNamespace(cx=cx, cy=cy, w=w, h=h), 64, 48) is valid


def test_frame_count_is_whole_cycles_near_the_seconds():
    assert run.frame_count(40.0, 2.2, 5) == 20      # 3.6 cycles round to 4
    assert run.frame_count(24.0, 0.05, 5) == 480
    assert run.frame_count(24.0, 3.4, 5) == 10      # never fewer than two cycles


def test_tail_keeps_ten_frames_beyond():
    lat = [float(i) for i in range(30)]
    assert run.tail(lat) == (19.0, 100.0 * 20 / 30, 10)
    assert run.tail(lat[:19]) == (18.0, 100.0, 0)


# -- spans -------------------------------------------------------------------

def test_self_time_subtracts_children_once():
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 3.0, 0),
        Span("b", 2.0, 5.0, 0),      # overlaps a: together they cover 1..5
        Span("leaf", 2.5, 4.0, 2),   # grandchild: not subtracted from root
        Span("c", 9.0, 12.0, 0),     # runs past its parent: clipped at 10
        Span("other", 20.0, 21.5, -1),
    ]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 1.5, 1.5, 3.0, 1.5])


def _tiny_tracker():
    from evtrack import BBox, Tracker, init_model, stack_events
    from evtrack.config import TrackerConfig
    from evtrack.events import EventStream
    cfg = TrackerConfig(embed_dim=16, depth=1, d_state=2, dt_rank=2, template_size=32,
                        search_size=64, lt_capacity=3, st_capacity=2, update_interval=2,
                        window_us=TINY.window_us)
    parts = [workloads.window_events(TINY, 0, k, c)
             for k, c in enumerate(workloads.centres(TINY, 0))]
    ts, xs, ys, ps = (np.concatenate(p) for p in zip(*parts))
    frames = stack_events(EventStream(xs, ys, ts, ps, 64, 48), cfg.window_us)
    tracker = Tracker(cfg, init_model(cfg))
    tracker.init(frames[0], BBox(*workloads.ground_truth(TINY, 0)[0]))
    return tracker, frames


def _targets():
    out = {}
    for name, where, attr, _ in Tracer.TARGETS:
        module, _, cls = where.partition(":")
        owner = importlib.import_module(module)
        owner = getattr(owner, cls) if cls else owner
        out[name] = (owner, attr, getattr(owner, attr))
    return out


def test_traced_run_restores_wrappers_and_reports_layers():
    tracker, frames = _tiny_tracker()
    before = _targets()
    with Tracer() as tracer:
        for f in frames[1:]:
            tracker.step(f)
        assert all(getattr(o, a) is not fn for o, a, fn in before.values())
    assert tracer.missing == []
    assert all(getattr(o, a) is fn for o, a, fn in before.values())
    assert all(t >= -1e-9 for t in self_times(tracer.spans))
    setup = {k: 1.0 for k in ("events.load_s", "events.stack_s", "tracker.init_s",
                              "model.init_s", "weights.load_s")}
    metrics = layer_metrics(tracer, setup, 2.0, 1.0, 0.25)
    names = {m["name"] for m in json.loads((BENCH.parent / "BENCHMARK.json").read_text())["per_layer"]}
    assert set(metrics) == names
    assert all(v is not None for v, _ in metrics.values())
    assert metrics["ssm.scan_calls"][0] > 0
    assert metrics["trace.overhead"][0] == 0.5


def test_missing_name_is_reported_and_restore_survives_errors():
    import evtrack.backbone
    original = evtrack.backbone.vim_block
    targets = Tracer.TARGETS + (("ghost", "evtrack.backbone", "no_such_function", None),)
    with pytest.raises(RuntimeError):
        with Tracer(targets) as tracer:
            assert evtrack.backbone.vim_block is not original
            raise RuntimeError("boom")
    assert tracer.missing == ["ghost"]
    assert evtrack.backbone.vim_block is original
    metrics = layer_metrics(tracer, dict.fromkeys(("events.load_s", "events.stack_s",
                                                   "tracker.init_s", "model.init_s",
                                                   "weights.load_s"), 1.0), 1.0, 1.0, 0.0)
    assert metrics["ssm.scan_ms"][0] is None  # no frames were traced
