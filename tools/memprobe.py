"""Set-up memory and per-frame page faults of one tracker, in this process.

Run from the repository root:

    python3 tools/memprobe.py --workload vims-track --seed 2 --weights 1 --frames 6

It makes the set-up calls `evtrack track` makes, on a perfbench workload's
inputs: load_config -> init_model -> (load_weights if --weights 1) ->
load_events_csv -> stack_events -> Tracker.init. After each call it records
the resident set (VmRSS) and the peak so far (ru_maxrss), and the bytes the
loaded event stream's columns hold, in all and per event. Once the tracker
has forked its backward-scan helper, it also records the helper's peak
resident set (VmHWM), which this process's ru_maxrss does not include, and
the part of the helper's current resident set that is its own rather than
shared copy-on-write with this process (Private_* of smaps_rollup). It then steps
--frames frames and reads, per frame, the wall time and the change in
getrusage's minor faults and system CPU time, and after the step the bytes
held by the tracker's two workspaces (frame and worker fuse), OpenBLAS's
thread count and whether a template fuse was still running on the worker.
Stepping with and without a weight load is what separates steady-state
stepping from allocator state left behind by set-up. The tracker is joined
before the final stage is read, and closed after. One JSON object goes to
stdout.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from evtrack import BBox, Tracker, blas, init_model, load_config, load_weights, stack_events  # noqa: E402
from evtrack.events import load_events_csv  # noqa: E402
from workloads import WORKLOADS, prepare  # noqa: E402


def status_mib(field: str, pid: int | str = "self", name: str = "status") -> float:
    """The sum of the kB fields starting with `field` in /proc/<pid>/<name>."""
    with open(f"/proc/{pid}/{name}", encoding="ascii") as f:
        kib = [int(line.split()[1]) for line in f if line.startswith(field)]
    return sum(kib) / 1024 if kib else float("nan")


def helper_mib(tracker) -> tuple[float, float]:
    """(peak resident, private resident) of the tracker's helper process."""
    pid = tracker.helper.pid
    return status_mib("VmHWM:", pid), status_mib("Private_", pid, "smaps_rollup")


def rss_mib() -> float:
    return status_mib("VmRSS:")


def peak_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


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
    stream = load_events_csv(inputs.events)
    stages["load_events_csv"] = (rss_mib(), peak_mib())
    stream_bytes = sum(getattr(stream, name).nbytes for name in ("ts", "xs", "ys", "ps"))
    frames = stack_events(stream, config.window_us)
    stages["stack_events"] = (rss_mib(), peak_mib())
    tracker = Tracker(config, model)
    tracker.init(frames[0], BBox(*inputs.boxes[0]))
    stages["tracker_init"] = (rss_mib(), peak_mib())
    helper = {}
    if tracker.helper is not None:
        helper["tracker_init"] = helper_mib(tracker)

    per_frame = []
    for k in range(1, args.frames + 1):
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
                          "fuse_workspace_bytes": tracker.fuse_workspace.nbytes,
                          "blas_threads": blas.threads(),
                          "fuse_in_flight": tracker.fuse_running})
    tracker.join()
    stages["stepped"] = (rss_mib(), peak_mib())
    if tracker.helper is not None:
        helper["stepped"] = helper_mib(tracker)
    tracker.close()

    def median(key):
        return statistics.median(f[key] for f in per_frame)

    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "weights": bool(args.weights),
        "rss_mib": {k: round(v[0], 2) for k, v in stages.items()},
        "peak_rss_mib": {k: round(v[1], 2) for k, v in stages.items()},
        "helper_peak_rss_mib": {k: round(v[0], 2) for k, v in helper.items()},
        "helper_private_rss_mib": {k: round(v[1], 2) for k, v in helper.items()},
        "stream_bytes": stream_bytes,
        "stream_bytes_per_event": round(stream_bytes / max(len(stream), 1), 2),
        "frame_median": {"ms": round(median("ms"), 1),
                         "minor_faults": median("minor_faults"),
                         "sys_ms": round(median("sys_ms"), 1)},
        "frames": per_frame,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
