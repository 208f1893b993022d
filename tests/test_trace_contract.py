"""The names and arguments that the benchmark's traced run reads.

`perfbench/tracing.py` wraps the tracker's layers by name (`Tracer.TARGETS`)
and its observers read call arguments, e.g. `generate_dynamic_template`'s
first argument as the `MemoryLibrary`. A renamed function or a moved argument
breaks `perfbench/run.py --trace 1` without failing any other test, so this
one steps a small tracker under the tracer and checks every layer metric.

Every fuse, the deferred ones included, must call both
`evtrack.tracker.generate_dynamic_template` and `evtrack.fusion.backbone` in
this process, whichever process runs the pass: the tracer counts fuses and
their tokens there. Every fuse of this config routes ST, a full library of
`st_capacity` templates.
"""

import importlib.util
import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from evtrack.events import stack_events, synth_stream
from evtrack.model import init_model
from evtrack.tracker import Tracker

from _utils import SMALL_SYNTH, small_config

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    """perfbench/tracing.py as a module; registered in sys.modules before it
    runs, so that its dataclass can resolve the module's annotations."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_traced_tracker_reports_every_layer():
    tracing = _tracing()
    cfg = small_config()
    stream, gt = synth_stream(SMALL_SYNTH)
    frames = stack_events(stream, cfg.window_us)
    tracker = Tracker(cfg, init_model(cfg))
    try:
        with tracing.Tracer() as tracer:
            tracker.init(frames[0], gt[0])
            for frame in frames[1:]:
                tracker.step(frame)
            # Closed while its layers are still wrapped, so no span of it
            # ends after the tracer has let go.
            tracker.close()
    finally:
        tracker.close()
    assert len(frames) == 21
    assert tracer.missing == []
    assert all(t >= 0 for t in tracing.self_times(tracer.spans))
    setup = dict.fromkeys(("events.load_s", "events.stack_s", "tracker.init_s",
                           "model.init_s", "weights.load_s"), 1.0)
    metrics = tracing.layer_metrics(tracer, setup, 2.0, 1.0, 0.0)
    bad = {name: value for name, (value, _) in metrics.items()
           if not isinstance(value, (int, float)) or not math.isfinite(value)}
    assert not bad, f"layer metrics without a finite value: {bad}"
    # init's inline fuse and the deferred fuses sent at t = 6, 11 and 16
    assert metrics["fusion.regens"][0] == 4 / 20
    assert tracing.summarize(tracer.spans)["fusion.backbone"]["calls"] == 4
    assert metrics["fusion.fuse_tokens"][0] == cfg.st_capacity * cfg.n_template_tokens


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity on this platform")
def test_traced_steps_on_one_cpu_leave_no_span_open():
    # On one CPU the idle-priority pass child runs only while this process
    # waits, so a fuse sent at t = 11 is still in the child when the steps
    # end. Every span must still have ended with the tracer's `with` block,
    # before `close`, and stepping must start no thread.
    script = textwrap.dedent("""
        import json, os, threading
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        from evtrack.events import stack_events, synth_stream
        from evtrack.model import init_model
        from evtrack.tracker import Tracker
        from tracing import Tracer, self_times
        from _utils import SMALL_SYNTH, small_config
        cfg = small_config()
        stream, gt = synth_stream(SMALL_SYNTH)
        frames = stack_events(stream, cfg.window_us)
        tracker = Tracker(cfg, init_model(cfg))
        threads = [threading.active_count()]
        with Tracer() as tracer:
            tracker.init(frames[0], gt[0])
            threads.append(threading.active_count())
            for frame in frames[1:13]:
                tracker.step(frame)
                threads.append(threading.active_count())
        times = self_times(tracer.spans)
        print(json.dumps({"threads": threads, "min_self_time": min(times),
                          "fuses": sum(s.name == "fusion.regen" for s in tracer.spans)}))
        tracker.close()
    """)
    root = TRACING.parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        str(p) for p in (root / "src", root / "tests", root / "perfbench")))
    out = json.loads(subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                                    text=True, timeout=120, check=True).stdout)
    assert out["fuses"] == 3  # init's, and the ones sent at t = 6 and 11
    assert out["min_self_time"] >= 0
    assert set(out["threads"]) == {out["threads"][0]}
