"""Tracker benchmark: frame-level end-to-end metrics and outside-in layer spans.

Run from the repository root:

    python3 perfbench/run.py --workload vims-track --seed 1 --seconds 20 --trace 0

It drives the public API in the order `evtrack track --weights` does:
load_config -> init_model -> load_weights -> load_events_csv -> stack_events
-> Tracker.init, then Tracker.step on every frame, replaying the sequence
cyclically. It times each step from outside and checks every box. Set-up is
repeated SETUPS times and reported as a median; the last set-up's tracker is
the one measured. A run steps a fixed number of frames: --seconds turns
into whole update cycles (update_interval frames each, at least two) at the
workload's nominal step time. So a seed's run always holds the same frames,
the same mix of plain and update frames and the same failures, however fast
the host.

--trace 0 prints the end-to-end metrics; --trace 1 measures one untraced
phase, then one traced phase of as many frames, and prints the per-layer
metrics. The second-to-last stdout line holds the environment stamp and
diagnostics; the last is the result object. Full results (and, traced, every
span) go to .perfbench_out/. See perfbench/README.md for every metric.

Exit codes: 0 success, 2 bad arguments or no program source in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import glob
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import numpy as np

from workloads import WORKLOADS, Inputs, prepare

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
SETUPS = 3
# A tail percentile needs at least this many frames beyond it.
TAIL_BEYOND = 10


def box_valid(box, width: int, height: int) -> bool:
    """A box passes if it is finite, centred on the sensor and no larger than it."""
    return (all(math.isfinite(v) for v in (box.cx, box.cy, box.w, box.h))
            and 0 <= box.cx < width and 0 <= box.cy < height
            and box.w <= width and box.h <= height)


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, frames beyond it) of the highest percentile that
    has TAIL_BEYOND frames beyond it and is not below the median.

    With fewer than 2 * TAIL_BEYOND frames no such percentile exists, and the
    slowest frame is reported with 0 frames beyond it.
    """
    s = sorted(latencies)
    n = len(s)
    if n < 2 * TAIL_BEYOND:
        return s[-1], 100.0, 0
    return s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


class SetUp:
    """One set-up, timed call by call, in the order `evtrack track` makes them."""

    def __init__(self, inputs: Inputs, api):
        t0 = perf_counter()
        self.config = api.load_config(str(inputs.config))
        self.model = api.init_model(self.config)
        t1 = perf_counter()
        api.load_weights(inputs.weights, self.model)
        t2 = perf_counter()
        stream = api.load_events_csv(inputs.events)
        t3 = perf_counter()
        self.frames = api.stack_events(stream, self.config.window_us)
        t4 = perf_counter()
        self.tracker = api.Tracker(self.config, self.model)
        self.tracker.init(self.frames[0], api.BBox(*inputs.boxes[0]))
        t5 = perf_counter()
        self.times = {"setup_s": t5 - t0, "model.init_s": t1 - t0,
                      "weights.load_s": t2 - t1, "events.load_s": t3 - t2,
                      "events.stack_s": t4 - t3, "tracker.init_s": t5 - t4}
        # The program's loaded stream and stacked frames must be the generated ones.
        width, height = inputs.sensor
        self.inputs_ok = (len(stream) == inputs.event_count
                          and (stream.sensor_width, stream.sensor_height) == inputs.sensor
                          and len(self.frames) == len(inputs.boxes)
                          and self.frames[0].data.shape == (3, height, width))


class Stepper:
    """Steps the set-up's tracker through its frames cyclically, checking each box.

    A step that raises counts as a failed frame; a fresh Tracker is then
    initialised on that frame's ground truth and the run goes on.
    """

    def __init__(self, loaded: SetUp, inputs: Inputs, api):
        self.s = loaded
        self.api = api
        self.gt = inputs.boxes
        self.sensor = inputs.sensor
        self.index = 0        # frame the tracker last saw
        self.since_init = 0   # mirrors the tracker's own frame index
        self.latencies: list[float] = []
        self.update_latencies: list[float] = []
        self.boxes: list[list[float] | None] = []
        self.failed = 0
        self.malformed = 0
        self.errors: dict[str, int] = {}

    def step(self) -> None:
        s = self.s
        self.index = (self.index + 1) % len(s.frames)
        frame = s.frames[self.index]
        self.since_init += 1
        t0 = perf_counter()
        try:
            box = s.tracker.step(frame)
        except Exception as exc:  # a raising frame is counted, and tracking resumes
            box = exc
        latency = perf_counter() - t0
        self.latencies.append(latency)
        if self.since_init % s.config.update_interval == 0:
            self.update_latencies.append(latency)
        if isinstance(box, Exception):
            self.failed += 1
            key = f"{type(box).__name__}: {box}"
            self.errors[key] = self.errors.get(key, 0) + 1
            self.boxes.append(None)
            s.tracker = self.api.Tracker(s.config, s.model)
            s.tracker.init(frame, self.api.BBox(*self.gt[self.index]))
            self.since_init = 0
        elif not isinstance(box, self.api.BBox):
            self.malformed += 1
            self.failed += 1
            self.boxes.append(None)
        else:
            self.failed += not box_valid(box, *self.sensor)
            self.boxes.append([box.cx, box.cy, box.w, box.h])

    def phase(self, frames: int) -> float:
        """Step `frames` frames; returns the elapsed seconds."""
        start = perf_counter()
        for _ in range(frames):
            self.step()
        return perf_counter() - start


def frame_count(seconds: float, frame_s: float, interval: int) -> int:
    """Frames in whole update cycles that take about `seconds` at `frame_s` per step.

    At least two cycles, so the update-frame median and the tail never rest
    on a single update frame.
    """
    return interval * max(2, round(seconds / (frame_s * interval)))


def environment(seed: int) -> dict:
    blas = {}
    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": cfg.get("name"), "version": cfg.get("version")}
    except (TypeError, KeyError):
        pass
    blas["threads"] = _blas_threads()
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {"commit": _git_commit(), "source_sha256": digest.hexdigest(),
            "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "seed": seed}


def _git_commit() -> str | None:
    """HEAD's commit, read from .git without running git; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _blas_threads() -> int | None:
    """OpenBLAS's thread count from the copy numpy loaded; None if not found."""
    import ctypes
    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                                  "numpy.libs", "*openblas*"))
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def reference_deviation(workload: str, seed: int, boxes: list) -> dict:
    """Largest relative deviation from the boxes recorded for this seed.

    A diagnostic, not a gate: boxes are compared frame by frame over the
    recorded prefix, relative to max(|reference|, 1 px).
    """
    try:
        ref = json.loads(REFERENCE.read_text(encoding="utf-8"))[workload][str(seed)]
    except (OSError, KeyError):
        return {"frames": 0, "max_rel_dev": None, "raise_mismatches": 0}
    worst, mismatches = 0.0, 0
    for got, want in zip(boxes, ref):
        if (got is None) != (want is None):
            mismatches += 1
        elif got is not None:
            worst = max(worst, max(abs(g - w) / max(abs(w), 1.0) for g, w in zip(got, want)))
    return {"frames": min(len(boxes), len(ref)), "max_rel_dev": worst,
            "raise_mismatches": mismatches}


def _api() -> SimpleNamespace:
    """The program's names the benchmark calls, imported from src/."""
    sys.path.insert(0, str(ROOT / "src"))
    from evtrack import BBox, Tracker, init_model, load_config, load_weights, stack_events
    from evtrack.events import load_events_csv
    return SimpleNamespace(BBox=BBox, Tracker=Tracker, init_model=init_model,
                           load_config=load_config, load_weights=load_weights,
                           load_events_csv=load_events_csv, stack_events=stack_events)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "evtrack" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'evtrack'}", file=sys.stderr)
        return 2
    api = _api()
    workload = WORKLOADS[args.workload]
    inputs = prepare(workload, args.seed, ROOT)

    setups, inputs_ok = [], True
    for _ in range(SETUPS):
        loaded = None
        gc.collect()
        loaded = SetUp(inputs, api)
        setups.append(loaded.times)
        inputs_ok &= loaded.inputs_ok
    setup = {k: statistics.median(t[k] for t in setups) for k in setups[0]}
    run = Stepper(loaded, inputs, api)
    frames = frame_count(args.seconds, workload.frame_s, loaded.config.update_interval)

    fps = frames / run.phase(frames)
    latencies, updates = list(run.latencies), list(run.update_latencies)
    tail_value, tail_pct, tail_n = tail(latencies)
    metrics = {
        "fps": (fps, "1/s"),
        "frame_ms_p50": (statistics.median(latencies) * 1e3, "ms"),
        "frame_ms_tail": (tail_value * 1e3, "ms"),
        "update_frame_ms_p50": (statistics.median(updates) * 1e3, "ms"),
        "setup_s": (setup["setup_s"], "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    missing: list[str] = []
    if args.trace:
        from tracing import Tracer, layer_metrics
        with Tracer() as tracer:
            traced_fps = frames / run.phase(frames)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"{workload.name}-seed{args.seed}-spans.jsonl")
        missing = tracer.missing
        end_to_end = metrics
        metrics = layer_metrics(tracer, setup, fps, traced_fps,
                                run.failed / len(run.latencies))

    detail = {
        "workload": workload.name, "seconds": args.seconds, "trace": args.trace,
        "environment": environment(args.seed),
        "frames": len(latencies), "update_frames": len(updates),
        "tail": {"percentile": tail_pct, "frames_beyond": tail_n, "samples": len(latencies)},
        "setups": setups, "errors": run.errors, "malformed_boxes": run.malformed,
        "inputs_ok": inputs_ok, "missing_spans": missing,
        "reference": reference_deviation(workload.name, args.seed, run.boxes),
    }
    if args.trace:
        detail["end_to_end_untraced"] = {k: v for k, (v, _) in end_to_end.items()}
    result = {
        "correct": inputs_ok and run.malformed == 0,
        "attempted": len(run.latencies),
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as f:
        json.dump({"detail": detail, "result": result, "boxes": run.boxes,
                   "latencies_s": run.latencies}, f)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
