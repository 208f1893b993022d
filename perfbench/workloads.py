"""Benchmark workloads and the seeded inputs they feed the tracker.

The event CSV and the ground-truth boxes come from this module's own
generator, never from `evtrack.synth_stream`, so a change to the program
cannot change what the benchmark feeds it. Generated files are cached in a
git-ignored directory of the checkout: the config and weights once per
workload, the event CSV once per workload and seed, because writing the
4.4M-event small-dense CSV takes seconds.
"""

from __future__ import annotations

import json
import math
import os
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Bump whenever the generator's output changes, so stale caches are not read.
GENERATOR_VERSION = 1
CACHE_DIR = ".perfbench_cache"
# Event files kept per workload in the cache; small-dense's is 70 MB.
CACHE_KEEP = 4


@dataclass(frozen=True)
class Scene:
    """A rectangle orbiting the sensor centre once every `windows` windows.

    The path is circular because a straight one leaves the sensor, and
    `Tracker.init` raises when re-initialised on an off-sensor box. One orbit
    is one sequence; the benchmark replays it cyclically.
    """

    sensor_width: int
    sensor_height: int
    target_width: float
    target_height: float
    orbit_radius: float
    windows: int
    edge_events: int   # per window, on the target's boundary
    noise_events: int  # per window, uniform over the sensor
    window_us: int = 10_000


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    scene: Scene
    # Nominal seconds per step on a 2-vCPU x86 VM at the commit that added the
    # benchmark. It turns --seconds into a fixed frame count, so a run's work,
    # and with it which frames fail, does not depend on how fast the host is.
    frame_s: float
    config: dict = field(default_factory=dict)  # TrackerConfig fields off default


DAVIS240 = Scene(sensor_width=240, sensor_height=180, target_width=32.0,
                 target_height=24.0, orbit_radius=40.0, windows=50,
                 edge_events=600, noise_events=60)
DAVIS346_DENSE = Scene(sensor_width=346, sensor_height=260, target_width=48.0,
                       target_height=36.0, orbit_radius=60.0, windows=200,
                       edge_events=20_000, noise_events=2_000)
SMALL_MODEL = dict(embed_dim=32, depth=2, d_state=16, dt_rank=4)

WORKLOADS = {w.name: w for w in (
    Workload("vims-track",
             "paper geometry (Vim-S, 384 tokens/frame), default config: the "
             "scan dominates and regeneration runs only on update frames",
             DAVIS240, 2.2),
    Workload("vims-regen",
             "paper geometry with regenerate_every_frame: a 384-token fuse on "
             "every frame, 4 of 5 over an unchanged library",
             DAVIS240, 3.4, {"regenerate_every_frame": True}),
    Workload("small-dense",
             "small model, DAVIS346 sensor, ~22k events/window: admission, "
             "crop, head and CSV load lead; the only scan-carry path",
             DAVIS346_DENSE, 0.05, SMALL_MODEL),
)}


def centres(scene: Scene, seed: int) -> np.ndarray:
    """Target centre per window; the seed picks the orbit's starting angle."""
    phase = np.random.default_rng([seed]).uniform(0.0, 2.0 * math.pi)
    ang = phase + 2.0 * math.pi * np.arange(scene.windows) / scene.windows
    return np.stack([scene.sensor_width / 2.0 + scene.orbit_radius * np.cos(ang),
                     scene.sensor_height / 2.0 + scene.orbit_radius * np.sin(ang)],
                    axis=1)


def ground_truth(scene: Scene, seed: int) -> list[tuple[float, float, float, float]]:
    """One (cx, cy, w, h) box per window, centre form."""
    return [(float(cx), float(cy), scene.target_width, scene.target_height)
            for cx, cy in centres(scene, seed)]


def window_events(scene: Scene, seed: int, k: int, centre: np.ndarray):
    """Events (t, x, y, p) of window k, sorted by time.

    Each window's first event sits at the window start, so `stack_events`,
    which tiles windows from the first timestamp, cuts exactly these windows.
    Window 0 also holds one event at the far sensor corner, so the sensor
    size `load_events_csv` infers from the data is the scene's.
    """
    rng = np.random.default_rng([seed, k])
    w, h = scene.target_width, scene.target_height
    s = rng.uniform(0.0, 2.0 * (w + h), size=scene.edge_events)
    # Walk the perimeter: top, right, bottom, left.
    edge = [s < w, (s >= w) & (s < w + h), (s >= w + h) & (s < 2 * w + h), s >= 2 * w + h]
    fx = np.select(edge, [s, w, 2 * w + h - s, 0.0]) + centre[0] - w / 2.0
    fy = np.select(edge, [0.0, s - w, h, 2 * (w + h) - s]) + centre[1] - h / 2.0
    xs = np.concatenate([np.floor(fx).astype(np.int64),
                         rng.integers(0, scene.sensor_width, scene.noise_events)])
    ys = np.concatenate([np.floor(fy).astype(np.int64),
                         rng.integers(0, scene.sensor_height, scene.noise_events)])
    np.clip(xs, 0, scene.sensor_width - 1, out=xs)
    np.clip(ys, 0, scene.sensor_height - 1, out=ys)
    n = xs.size
    t0 = k * scene.window_us
    ts = rng.integers(t0, t0 + scene.window_us, size=n)
    ts[0] = t0
    if k == 0:
        xs[0], ys[0] = scene.sensor_width - 1, scene.sensor_height - 1
    ps = rng.choice(np.array([-1, 1], dtype=np.int64), size=n)
    order = np.argsort(ts, kind="stable")
    return ts[order], xs[order], ys[order], ps[order]


def write_events_csv(scene: Scene, seed: int, path: Path) -> int:
    """Write the scene's events as `t,x,y,p` CSV, one window at a time."""
    count = 0
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("t,x,y,p\n")
        for k, c in enumerate(centres(scene, seed)):
            ts, xs, ys, ps = window_events(scene, seed, k, c)
            f.write("".join(f"{t},{x},{y},{p}\n" for t, x, y, p in
                            zip(ts.tolist(), xs.tolist(), ys.tolist(), ps.tolist())))
            count += ts.size
    return count


@dataclass(frozen=True)
class Inputs:
    config: Path
    weights: Path
    events: Path
    event_count: int
    sensor: tuple[int, int]  # (width, height)
    boxes: list  # ground truth, one (cx, cy, w, h) per window


def prepare(workload: Workload, seed: int, root: Path) -> Inputs:
    """Return the workload's input files for `seed`, generating them once.

    The seed picks the events and ground truth only. The config and weight
    file are the same for every seed: the weights are the seeded random init
    `init_model` gives for the workload's config at its default seed, as
    `evtrack track` uses without --weights. Files are built in a scratch
    directory and renamed into place, so an interrupted run leaves no
    partial entry.
    """
    from evtrack.config import TrackerConfig
    from evtrack.model import init_model
    from evtrack.weights import save_weights

    base = root / CACHE_DIR / workload.name
    model = base / "model"
    if not (model / "weights.bin").exists():
        config = TrackerConfig(window_us=workload.scene.window_us, **workload.config)
        tmp = _scratch(base)
        (tmp / "config.json").write_text(config.to_json() + "\n", encoding="utf-8")
        save_weights(tmp / "weights.bin", init_model(config))
        shutil.rmtree(model, ignore_errors=True)
        os.replace(tmp, model)
    events = base / f"v{GENERATOR_VERSION}-seed{seed}"
    if not (events / "meta.json").exists():
        tmp = _scratch(base)
        count = write_events_csv(workload.scene, seed, tmp / "events.csv")
        (tmp / "meta.json").write_text(json.dumps({"event_count": count}) + "\n",
                                       encoding="utf-8")
        shutil.rmtree(events, ignore_errors=True)
        os.replace(tmp, events)
        _prune(base, keep=(model, events))
    meta = json.loads((events / "meta.json").read_text(encoding="utf-8"))
    return Inputs(config=model / "config.json", weights=model / "weights.bin",
                  events=events / "events.csv", event_count=meta["event_count"],
                  sensor=(workload.scene.sensor_width, workload.scene.sensor_height),
                  boxes=ground_truth(workload.scene, seed))


def _scratch(base: Path) -> Path:
    tmp = base / f"tmp-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    return tmp


def _prune(base: Path, keep: tuple[Path, ...]) -> None:
    """Drop scratch directories of interrupted runs and all but the newest seeds.

    Runs of one checkout are sequential, so any other scratch directory is stale.
    """
    entries = []
    for d in base.iterdir():
        if d.name.startswith("tmp-"):
            shutil.rmtree(d, ignore_errors=True)
        elif d not in keep:
            entries.append(d)
    entries.sort(key=lambda d: d.stat().st_mtime, reverse=True)
    for d in entries[CACHE_KEEP - 1:]:
        shutil.rmtree(d, ignore_errors=True)

