"""Set-up memory and per-frame page faults of one tracker, in this process.

Run from the repository root:

    python3 tools/memprobe.py --workload vims-track --seed 2 --weights 1 --frames 6

It makes the set-up calls `evtrack track` makes, on a perfbench workload's
inputs: load_config -> init_model -> (load_weights if --weights 1) ->
load_events_csv -> stack_events -> Tracker.init. After each call it records
the resident set (VmRSS) and the peak so far (ru_maxrss), the bytes the
loaded event stream's columns hold, in all and per event, and the bytes the
stacked frames hold, in all and per frame. tracemalloc runs around
`load_events_csv` alone and gives the load's own peak and the bytes still
held after it, per event, so the parse peak shows even where the load does
not set the process's maximum. tracemalloc counts bytes reserved, not
pages written, so next to it stands the rise of the process's peak
resident set (VmHWM) across the load, per event: what the load made
resident beyond every earlier peak, 0 where set-up peaked higher before
it (the Vim-S workloads' 33k events). `stack_events` is timed by wall
clock (`stack_s`); its largest window, the one with the most events, is
then stacked again alone under tracemalloc, whose peak per event of that
window (`stack_peak_bytes_per_event`) is the stacker's temporaries plus
the frame it returns. Once the tracker
has forked its two helper children (the backward-direction helper and the
pass helper that runs the deferred fuses), it also records each child's
peak resident set (VmHWM), which this process's ru_maxrss does not include,
and the part of each child's current resident set that is its own rather
than shared copy-on-write with this process (Private_* of smaps_rollup). It
then steps --frames frames, rounded up to whole update cycles so that the
last step is a tick and no template fuse is in flight when the final stage
is read, and reads, per frame, the wall time and the change in getrusage's
minor faults and system CPU time, and after the step the bytes held by the
tracker's frame workspace and OpenBLAS's thread count. Stepping with and
without a weight load is what separates steady-state stepping from
allocator state left behind by set-up. After the final stage is read it
steps as many frames again under tracemalloc, and gives each step's peak
above its start (`traced_step_peak_bytes`): glibc maps and faults in
afresh every allocation of at least its mmap threshold (128 KiB unless
an earlier free raised it), so a peak below that means the step faulted
no new pages. That second run is separate so tracemalloc's own cost
stays out of the first run's times and faults. The tracker is closed
then; the output gives the wall time of that `close` and, per helper,
how many of its requests the child failed and this process reran
(`reruns`; nonzero means that work ran at in-process speed). One JSON
object goes to stdout.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from evtrack import BBox, Tracker, blas, init_model, load_config, load_weights, stack_events  # noqa: E402
from evtrack.events import EventStream, load_events_csv  # noqa: E402
from workloads import WORKLOADS, prepare  # noqa: E402


def status_mib(field: str, pid: int | str = "self", name: str = "status") -> float:
    """The sum of the kB fields starting with `field` in /proc/<pid>/<name>."""
    with open(f"/proc/{pid}/{name}", encoding="ascii") as f:
        kib = [int(line.split()[1]) for line in f if line.startswith(field)]
    return sum(kib) / 1024 if kib else float("nan")


def helpers_of(tracker) -> dict:
    """The tracker's helpers by kind; empty where the platform could not fork."""
    helpers = {"backward": tracker.helper, "pass": tracker.pass_helper}
    return {kind: h for kind, h in helpers.items() if h is not None}


def helpers_mib(tracker) -> dict[str, tuple[float, float]]:
    """(peak resident, private resident) of each of the tracker's helper
    processes, by kind."""
    return {kind: (status_mib("VmHWM:", h.pid), status_mib("Private_", h.pid, "smaps_rollup"))
            for kind, h in helpers_of(tracker).items()}


def rss_mib() -> float:
    return status_mib("VmRSS:")


def peak_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def largest_window_peak(stream: EventStream, window_us: int) -> tuple[int, int]:
    """(events, tracemalloc peak in bytes) of stacking the stream's window
    with the most events alone. Its events span less than one window, so
    they stack into one frame."""
    first = int(stream.ts[0])
    n_frames = (int(stream.ts[-1]) - first) // window_us + 1
    bounds = np.searchsorted(stream.ts, first + np.arange(n_frames + 1) * window_us)
    k = int(np.argmax(np.diff(bounds)))
    lo, hi = int(bounds[k]), int(bounds[k + 1])
    window = EventStream(stream.xs[lo:hi], stream.ys[lo:hi], stream.ts[lo:hi],
                         stream.ps[lo:hi], stream.sensor_width, stream.sensor_height)
    tracemalloc.start()
    try:
        stack_events(window, window_us)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return hi - lo, peak


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--weights", type=int, choices=(0, 1), default=1)
    parser.add_argument("--frames", type=int, default=6)
    args = parser.parse_args(argv)
    inputs = prepare(WORKLOADS[args.workload], args.seed, ROOT)

    stages = {"start": (rss_mib(), peak_mib())}
    config = load_config(str(inputs.config))
    model = init_model(config)
    stages["init_model"] = (rss_mib(), peak_mib())
    if args.weights:
        load_weights(inputs.weights, model)
        stages["load_weights"] = (rss_mib(), peak_mib())
    hwm_before = status_mib("VmHWM:")
    tracemalloc.start()
    try:
        stream = load_events_csv(inputs.events)
        held, load_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    load_hwm_rise = (status_mib("VmHWM:") - hwm_before) * 2 ** 20
    stages["load_events_csv"] = (rss_mib(), peak_mib())
    stream_bytes = sum(getattr(stream, name).nbytes for name in ("ts", "xs", "ys", "ps"))
    t0 = perf_counter()
    frames = stack_events(stream, config.window_us)
    stack_s = perf_counter() - t0
    stages["stack_events"] = (rss_mib(), peak_mib())
    window_events, window_peak = largest_window_peak(stream, config.window_us)
    frame_bytes = sum(frame.nbytes for frame in frames)
    tracker = Tracker(config, model)
    tracker.init(frames[0], BBox(*inputs.boxes[0]))
    stages["tracker_init"] = (rss_mib(), peak_mib())
    helpers = {"tracker_init": helpers_mib(tracker)}

    cycle = config.update_interval
    steps = -(-args.frames // cycle) * cycle
    per_frame = []
    for k in range(1, steps + 1):
        frame = frames[k % len(frames)]
        before = resource.getrusage(resource.RUSAGE_SELF)
        t0 = perf_counter()
        tracker.step(frame)
        wall = perf_counter() - t0
        after = resource.getrusage(resource.RUSAGE_SELF)
        per_frame.append({"ms": wall * 1e3,
                          "minor_faults": after.ru_minflt - before.ru_minflt,
                          "sys_ms": (after.ru_stime - before.ru_stime) * 1e3,
                          "workspace_bytes": tracker.workspace.nbytes,
                          "blas_threads": blas.threads()})
    stages["stepped"] = (rss_mib(), peak_mib())
    helpers["stepped"] = helpers_mib(tracker)
    step_peaks = []
    tracemalloc.start()
    try:
        for k in range(steps + 1, 2 * steps + 1):
            start, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            tracker.step(frames[k % len(frames)])
            step_peaks.append(tracemalloc.get_traced_memory()[1] - start)
    finally:
        tracemalloc.stop()
    reruns = {kind: h.reruns for kind, h in helpers_of(tracker).items()}
    t0 = perf_counter()
    tracker.close()
    close_ms = (perf_counter() - t0) * 1e3

    def median(key):
        return statistics.median(f[key] for f in per_frame)

    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "weights": bool(args.weights),
        "rss_mib": {k: round(v[0], 2) for k, v in stages.items()},
        "peak_rss_mib": {k: round(v[1], 2) for k, v in stages.items()},
        "helper_peak_rss_mib": {stage: {kind: round(v[0], 2) for kind, v in by_kind.items()}
                                for stage, by_kind in helpers.items()},
        "helper_private_rss_mib": {stage: {kind: round(v[1], 2) for kind, v in by_kind.items()}
                                   for stage, by_kind in helpers.items()},
        "stream_bytes": stream_bytes,
        "stream_bytes_per_event": round(stream_bytes / max(len(stream), 1), 2),
        "load_peak_bytes_per_event": round(load_peak / max(len(stream), 1), 2),
        "stream_held_bytes_per_event": round(held / max(len(stream), 1), 2),
        "load_hwm_rise_bytes_per_event": round(load_hwm_rise / max(len(stream), 1), 2),
        "stack_s": round(stack_s, 4),
        "stack_largest_window_events": window_events,
        "stack_peak_bytes_per_event": round(window_peak / max(window_events, 1), 2),
        "frame_bytes": frame_bytes,
        "frame_bytes_per_frame": round(frame_bytes / max(len(frames), 1), 1),
        "helper_reruns": reruns,
        "close_ms": round(close_ms, 2),
        "frame_median": {"ms": round(median("ms"), 1),
                         "minor_faults": median("minor_faults"),
                         "sys_ms": round(median("sys_ms"), 1)},
        "frames": per_frame,
        "traced_step_peak_bytes": step_peaks,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
