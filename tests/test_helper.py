"""The helper processes (backward direction, and whole passes at idle
priority): bit-identity with the in-process backbone, their lifecycle (no
child outlives its tracker or its process) and their error paths. Every
test runs under a deadline and fails if it leaves a child process behind."""

import gc
import glob
import os
import select
import signal
import subprocess
import sys
import textwrap
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import evtrack.backbone as backbone_module
import evtrack.helper as helper_module
import evtrack.tracker as tracker_module
from evtrack import blas
from evtrack.backbone import backbone, init_backbone, vim_backward
from evtrack.cli import main
from evtrack.config import TrackerConfig
from evtrack.events import stack_events, synth_stream
from evtrack.helper import BackwardHelper, PassHelper, fork_helper
from evtrack.model import init_model
from evtrack.ops import Workspace
from evtrack.ssm import _BLOCK_BYTES
from evtrack.tracker import Tracker, track_frames

from _utils import SMALL_SYNTH, small_config

DEADLINE_S = 60

if not (hasattr(os, "fork") and os.path.isdir("/proc/self")):
    pytest.skip("the helper needs os.fork; the checks read /proc", allow_module_level=True)


def children() -> set[int]:
    """Pids of this process's children, running or not yet reaped."""
    pids = set()
    for path in glob.glob("/proc/[0-9]*/stat"):
        try:
            with open(path, encoding="ascii", errors="replace") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:  # exited while we looked
            continue
        if int(fields[1]) == os.getpid():
            pids.add(int(path.split("/")[2]))
    return pids


def exited(pid: int) -> bool:
    """Whether process `pid` is gone, or a zombie that has run its last code."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii", errors="replace") as f:
            return f.read().rsplit(")", 1)[1].split()[0] in ("Z", "X")
    except OSError:
        return True


@pytest.fixture(autouse=True)
def deadline_and_no_child_left():
    def expired(signum, frame):
        raise TimeoutError(f"test ran past its {DEADLINE_S} s deadline")

    before = children()
    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(DEADLINE_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    gc.collect()
    left = children() - before
    for pid in left:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    assert not left, f"child processes left behind: {sorted(left)}"


@pytest.fixture
def forked(monkeypatch):
    """The pids of every helper trackers fork during the test, two per
    tracker: its backward helper, then its pass helper."""
    pids = []

    def recording(*args):
        helper = fork_helper(*args)
        pids.append(helper.pid)
        return helper

    monkeypatch.setattr(tracker_module, "fork_helper", recording)
    return pids


def small_run():
    cfg = small_config()
    stream, gt = synth_stream(SMALL_SYNTH)
    return cfg, init_model(cfg), stack_events(stream, cfg.window_us), gt


def settled(tracker: Tracker) -> None:
    """Complete one request through the tracker's pass helper. The child
    serves requests only after its set-up right after fork (its priority,
    closing inherited descriptors), so a reply proves that set-up done."""
    tokens = np.zeros((1, tracker.config.embed_dim), np.float32)
    tracker.pass_helper.submit(tokens, tracker.model.backbone)
    tracker.pass_helper.result()


# -- bit-identity -------------------------------------------------------------

def pinned_backbone(tokens, params):
    """The in-process backbone at one BLAS thread, the count every helper
    runs at: bit-identity holds at an equal thread count."""
    blas.pin_one()
    try:
        return backbone(tokens, params)
    finally:
        blas.unpin()


def _compare(params, tokens, kind=BackwardHelper):
    # The helper takes no pin: pin around its life, as the tracker does, so
    # that the child runs at the reference's count.
    blas.pin_one()
    try:
        helper = fork_helper(params, tokens.shape[0], kind)
        try:
            split = backbone(tokens, params, Workspace(), helper)
            if helper.whole_pass:
                helper.result()
        finally:
            helper.close()
    finally:
        blas.unpin()
    np.testing.assert_array_equal(split, pinned_backbone(tokens, params))


def vim_s_params(rng):
    cfg = TrackerConfig()
    return cfg, init_backbone(cfg.embed_dim, cfg.depth, cfg.d_state, cfg.dt_rank,
                              cfg.conv_width, rng)


@settings(max_examples=20)
@given(kind=st.sampled_from([BackwardHelper, PassHelper]),
       embed=st.sampled_from([16, 32]), d_state=st.sampled_from([2, 4, 16]),
       depth=st.integers(1, 2), conv_width=st.sampled_from([2, 4]),
       length=st.sampled_from(["1", "block-1", "block+1", "384", "1024"]),
       seed=st.integers(0, 2 ** 16))
def test_helper_backbone_is_bitwise_the_in_process_backbone(kind, embed, d_state, depth,
                                                             conv_width, length, seed):
    rng = np.random.default_rng(seed)
    params = init_backbone(embed, depth, d_state, 2, conv_width, rng)
    # The scan's token block at this geometry (d_inner = 2 * embed, float32).
    block = _BLOCK_BYTES // (2 * embed * d_state * 4)
    L = {"1": 1, "block-1": block - 1, "block+1": block + 1, "384": 384, "1024": 1024}[length]
    _compare(params, rng.standard_normal((L, embed)).astype(np.float32), kind)


def test_helper_backbone_is_bitwise_the_in_process_backbone_at_vim_s():
    rng = np.random.default_rng(0)
    cfg, params = vim_s_params(rng)
    L = 2 * cfg.n_template_tokens + cfg.n_search_tokens
    assert L == 384
    _compare(params, rng.standard_normal((L, cfg.embed_dim)).astype(np.float32))


@pytest.mark.parametrize("fused", ["st", "lt"])
def test_pass_helper_backbone_is_bitwise_the_in_process_backbone_at_vim_s(fused):
    # A full ST fuse (6 x 64 = 384 tokens) and a full LT fuse (16 x 64).
    rng = np.random.default_rng(0)
    cfg, params = vim_s_params(rng)
    L = {"st": cfg.st_capacity, "lt": cfg.lt_capacity}[fused] * cfg.n_template_tokens
    assert L == {"st": 384, "lt": 1024}[fused]
    _compare(params, rng.standard_normal((L, cfg.embed_dim)).astype(np.float32), PassHelper)


# OpenBLAS's core name as numpy's copy reports it, printed by a subprocess.
CORE_NAME = """
import ctypes, glob, os
import numpy as np
libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs", "*openblas*")
for lib in glob.glob(libs):
    corename = getattr(ctypes.CDLL(lib), "scipy_openblas_get_corename64_", None)
    if corename is not None:
        corename.restype, corename.argtypes = ctypes.c_char_p, []
        print(corename().decode())
"""


def test_one_thread_pin_holds_on_avx2_kernels():
    # OpenBLAS's AVX2 (Haswell) sgemm rounds differently at one and two
    # threads once it threads a shape; the SkylakeX kernels do not, so on
    # such a host a missing pin goes unseen. Rerun the helper's bit-identity
    # property and the tracker's pin check on the Haswell kernels.
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, OPENBLAS_CORETYPE="Haswell",
               PYTHONPATH=os.pathsep.join([str(tests.parent / "src"), str(tests)]))
    core = subprocess.run([sys.executable, "-c", CORE_NAME], env=env, capture_output=True,
                          text=True, timeout=DEADLINE_S / 4, check=True).stdout.split()
    if core[:1] != ["Haswell"]:
        pytest.skip(f"numpy's OpenBLAS does not run the Haswell kernels here ({core})")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         str(tests / "test_helper.py"), str(tests / "test_tracker.py"),
         "-k", "(bitwise and not vim_s) or test_one_blas_pin_per_open_tracker_without_fork"],
        cwd=tests.parent, env=env, capture_output=True, text=True, timeout=DEADLINE_S * 3 / 4)
    assert run.returncode == 0 and "2 passed" in run.stdout, run.stdout[-3000:]


def test_tracker_without_fork_tracks_the_same_boxes(monkeypatch):
    cfg, model, frames, gt = small_run()
    with_helper = track_frames(cfg, model, frames, gt[0])
    monkeypatch.delattr(os, "fork")
    tracker = Tracker(cfg, model)
    try:
        tracker.init(frames[0], gt[0])
        assert tracker.helper is None and tracker.pass_helper is None
        assert [tracker.step(f) for f in frames[1:]] == with_helper[1:]
    finally:
        tracker.close()


# -- lifecycle ----------------------------------------------------------------

def test_track_frames_leaves_no_child_when_it_returns_or_raises(monkeypatch, forked):
    cfg, model, frames, gt = small_run()
    track_frames(cfg, model, frames[:8], gt[0])
    assert len(forked) == 2 and not children() & set(forked)

    head_forward = tracker_module.head_forward
    calls = []

    def failing(*args, **kwargs):
        calls.append(1)
        if len(calls) == 3:
            raise ValueError("head failed")
        return head_forward(*args, **kwargs)

    monkeypatch.setattr(tracker_module, "head_forward", failing)
    with pytest.raises(ValueError, match="^frame 3: head failed$"):
        track_frames(cfg, model, frames, gt[0])
    assert len(forked) == 4 and not children() & set(forked)


def test_closing_the_older_of_two_trackers_first_returns():
    # Closing the older tracker first must return at once, end only its own
    # children, and leave the newer tracker tracking the same boxes.
    cfg, model, frames, gt = small_run()
    solo = track_frames(cfg, model, frames, gt[0])
    older, newer = Tracker(cfg, model), Tracker(cfg, model)
    try:
        older.init(frames[0], gt[0])
        boxes = [newer.init(frames[0], gt[0])]
        pids = [{t.helper.pid, t.pass_helper.pid} for t in (older, newer)]
        start = time.perf_counter()
        older.close()
        assert time.perf_counter() - start < 2.0
        assert not pids[0] & children() and pids[1] <= children()
        boxes += [newer.step(f) for f in frames[1:]]
    finally:
        older.close()
        newer.close()
    assert boxes == solo


def test_child_holds_only_stdio_and_its_own_pipe_ends():
    # A child reads EOF, and exits, when its parent dies without `close`,
    # only if no other process holds its request pipe open: so no child may
    # hold another's pipe ends, nor the caller's.
    cfg, model, frames, gt = small_run()
    read_end, write_end = os.pipe()
    older, newer = Tracker(cfg, model), Tracker(cfg, model)
    try:
        older.init(frames[0], gt[0])
        newer.init(frames[0], gt[0])
        os.close(write_end)
        # The backward helpers served the inits' passes; the pass helpers
        # have served nothing yet.
        settled(older)
        settled(newer)
        # Each pass helper is forked with its backward helper's pipe ends open
        # in the parent, and the newer tracker's children with all four of the
        # older tracker's: none may hold them.
        helpers = older.helper, older.pass_helper, newer.helper, newer.pass_helper
        for helper in helpers:
            fds = {int(fd): os.readlink(f"/proc/{helper.pid}/fd/{fd}")
                   for fd in os.listdir(f"/proc/{helper.pid}/fd")}
            own = {f"pipe:[{os.fstat(fd).st_ino}]" for fd in (helper._requests, helper._replies)}
            assert {0, 1, 2} <= fds.keys() and len(fds) == 5
            assert {fds[fd] for fd in fds.keys() - {0, 1, 2}} == own
        # The caller's write end is closed everywhere, so its reader sees EOF
        # while the tracker is still open.
        assert select.select([read_end], [], [], 2.0)[0] == [read_end]
        assert os.read(read_end, 1) == b""
    finally:
        os.close(read_end)
        older.close()
        newer.close()
    assert [h._child.exit for h in helpers] == ["killed by signal 9"] * 4


def test_rejected_init_after_close_forks_nothing():
    cfg, model, frames, gt = small_run()
    tracker = Tracker(cfg, model)
    threads = blas.threads()
    tracker.init(frames[0], gt[0])
    tracker.step(frames[1])
    tracker.close()
    before = children()
    with pytest.raises(ValueError, match="already initialized"):
        tracker.init(frames[2], gt[2])
    assert tracker.helper is None and tracker.pass_helper is None and children() == before
    assert blas.threads() == threads
    a_log = model.backbone.blocks[0].ssm_bwd.a_log
    a_log[0, 0] = a_log[0, 0]  # writable


def test_init_forks_without_a_warning():
    # Python 3.12+ warns when a process that has threads forks; the tracker
    # starts none.
    cfg, model, frames, gt = small_run()
    tracker = Tracker(cfg, model)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tracker.init(frames[0], gt[0])
    tracker.close()


@pytest.mark.skipif(not hasattr(os, "SCHED_IDLE"), reason="no SCHED_IDLE on this platform")
def test_pass_child_runs_at_idle_priority():
    cfg, model, frames, gt = small_run()
    tracker = Tracker(cfg, model)
    try:
        tracker.init(frames[0], gt[0])
        settled(tracker)
        assert os.sched_getscheduler(tracker.pass_helper.pid) == os.SCHED_IDLE
        assert os.sched_getscheduler(tracker.helper.pid) == os.sched_getscheduler(0)
    finally:
        tracker.close()


def test_init_while_another_trackers_fuse_is_in_flight(monkeypatch):
    # The second tracker forks while the first one's pass child runs a fuse.
    # Its children must come out whole, and neither tracker's boxes may
    # change.
    cfg, model, frames, gt = small_run()
    solo = track_frames(cfg, model, frames, gt[0])
    real = helper_module.backbone
    calls = []

    def slow_first_pass(*args, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            time.sleep(1.0)
        return real(*args, **kwargs)

    first, second = Tracker(cfg, model), Tracker(cfg, model)
    try:
        monkeypatch.setattr(helper_module, "backbone", slow_first_pass)
        boxes = [[first.init(frames[0], gt[0])], []]  # its pass child keeps the slow function
        monkeypatch.undo()
        boxes[0] += [first.step(f) for f in frames[1:7]]  # the t = 5 push's fuse is sent at 6

        def in_flight():
            return not select.select([first.pass_helper._replies], [], [], 0)[0]

        assert in_flight()
        boxes[1].append(second.init(frames[0], gt[0]))
        assert in_flight()
        for frame in frames[1:7]:
            boxes[1].append(second.step(frame))
        for frame in frames[7:]:
            boxes[0].append(first.step(frame))
            boxes[1].append(second.step(frame))
    finally:
        first.close()
        second.close()
    assert boxes == [solo, solo]


def test_dropped_tracker_is_reaped():
    cfg, model, frames, gt = small_run()
    tracker = Tracker(cfg, model)
    tracker.init(frames[0], gt[0])
    pids = {tracker.helper.pid, tracker.pass_helper.pid}
    assert pids <= children()
    del tracker
    gc.collect()
    assert not pids & children()


def test_process_exit_ends_every_child():
    script = textwrap.dedent("""
        import os
        from evtrack.events import stack_events, synth_stream
        from evtrack.model import init_model
        from evtrack.tracker import Tracker
        from _utils import SMALL_SYNTH, small_config
        cfg = small_config()
        model = init_model(cfg)
        stream, gt = synth_stream(SMALL_SYNTH)
        frames = stack_events(stream, cfg.window_us)
        trackers = [Tracker(cfg, model) for _ in range(2)]
        for tracker in trackers:
            tracker.init(frames[0], gt[0])
            tracker.step(frames[1])
        print(*(h.pid for t in trackers for h in (t.helper, t.pass_helper)), flush=True)
        os._exit(0)
    """)
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tests.parent / "src"), str(tests)]))
    # The children hold the output pipe too, so this returns once they exit.
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=DEADLINE_S / 2, check=True).stdout
    pids = [int(p) for p in out.split()]
    assert len(pids) == 4
    stop = time.monotonic() + 5.0
    while not all(map(exited, pids)) and time.monotonic() < stop:
        time.sleep(0.05)
    assert all(map(exited, pids))


def test_evtrack_track_leaves_no_child(tmp_path, forked):
    config, synth = tmp_path / "config.json", tmp_path / "synth.json"
    config.write_text(small_config().to_json())
    synth.write_text(SMALL_SYNTH.to_json())
    events, gt, pred = tmp_path / "events.csv", tmp_path / "gt.csv", tmp_path / "pred.csv"
    assert main(["synth", "--config", str(synth), "--out-events", str(events),
                 "--out-gt", str(gt)]) == 0
    assert main(["track", "--config", str(config), "--events", str(events),
                 "--init-bbox", gt.read_text().splitlines()[0], "--out", str(pred)]) == 0
    assert len(forked) == 2 and not children() & set(forked)


# -- errors -------------------------------------------------------------------

def test_killed_child_fails_the_next_steps_at_once():
    cfg, model, frames, gt = small_run()
    tracker = Tracker(cfg, model)
    tracker.init(frames[0], gt[0])
    for frame in frames[1:3]:
        tracker.step(frame)
    os.kill(tracker.helper.pid, signal.SIGKILL)
    for t in (3, 4):
        start = time.perf_counter()
        with pytest.raises(RuntimeError, match=rf"^frame {t}: backward helper process "
                                               r"\d+ died \(killed by signal 9\)$"):
            tracker.step(frames[t])
        assert time.perf_counter() - start < 2.0
    tracker.close()


def test_killed_pass_child_fails_the_next_tick(monkeypatch):
    cfg, model, frames, gt = small_run()
    real = helper_module.backbone

    def slow(*args, **kwargs):
        time.sleep(10.0)
        return real(*args, **kwargs)

    monkeypatch.setattr(helper_module, "backbone", slow)
    tracker = Tracker(cfg, model)
    try:
        tracker.init(frames[0], gt[0])  # the pass child keeps the slow function
        monkeypatch.undo()
        for frame in frames[1:7]:  # the fuse is sent at 6
            tracker.step(frame)
        os.kill(tracker.pass_helper.pid, signal.SIGKILL)
        for frame in frames[7:10]:  # the frames keep the old template
            tracker.step(frame)
        died = r"pass helper process \d+ died \(killed by signal 9\)$"
        with pytest.raises(RuntimeError, match="^frame 10: template fuse failed: " + died):
            tracker.step(frames[10])
        with pytest.raises(RuntimeError, match="^frame 11: " + died):  # the retry's send
            tracker.step(frames[11])
    finally:
        tracker.close()


def test_close_with_a_fuse_in_flight_kills_the_pass_child(monkeypatch):
    # Close kills both children at once; it must not wait for the pass.
    cfg, model, frames, gt = small_run()
    real = helper_module.backbone

    def slow(*args, **kwargs):
        time.sleep(10.0)
        return real(*args, **kwargs)

    monkeypatch.setattr(helper_module, "backbone", slow)
    tracker = Tracker(cfg, model)
    try:
        tracker.init(frames[0], gt[0])  # the pass child keeps the slow function
        monkeypatch.undo()
        for frame in frames[1:7]:  # the fuse is sent at 6
            tracker.step(frame)
        helpers = tracker.helper, tracker.pass_helper
    finally:
        start = time.perf_counter()
        tracker.close()
        elapsed = time.perf_counter() - start
    assert elapsed < 2.0
    assert [h._child.exit for h in helpers] == ["killed by signal 9"] * 2
    assert not {h.pid for h in helpers} & children()


def test_child_error_comes_back_with_its_type_and_message():
    model = init_model(small_config())
    block = model.backbone.blocks[0]
    helper = fork_helper(model.backbone, 8)
    try:
        x = np.ones((8, block.d_inner), np.float32)
        x[3, 1] = np.nan
        helper.submit(block, x)
        with pytest.raises(ValueError, match="^non-finite input$"):
            helper.result()
        x[3, 1] = 0.5  # the child serves on
        helper.submit(block, x)
        np.testing.assert_array_equal(helper.result(), vim_backward(x, block))
    finally:
        helper.close()


def test_failure_only_the_child_meets_gives_the_in_process_result(monkeypatch):
    model = init_model(small_config())
    block = model.backbone.blocks[0]

    def failing(*args, **kwargs):
        raise RuntimeError("only the child fails")

    monkeypatch.setattr(helper_module, "vim_backward", failing)
    helper = fork_helper(model.backbone, 8)  # the child keeps the failing function
    monkeypatch.undo()
    try:
        rng = np.random.default_rng(0)
        for _ in range(2):  # the child serves on
            x = rng.standard_normal((8, block.d_inner)).astype(np.float32)
            helper.submit(block, x)
            np.testing.assert_array_equal(helper.result(), vim_backward(x, block))
        assert helper.reruns == 2
    finally:
        helper.close()


def test_pass_child_error_comes_back_with_its_type_and_message():
    model = init_model(small_config())
    params = model.backbone
    helper = fork_helper(params, 8, PassHelper)
    try:
        x = np.ones((8, 16), np.float32)
        x[3, 1] = np.nan
        backbone(x, params, None, helper)
        with pytest.raises(ValueError, match="^non-finite input$"):
            helper.result()
        x[3, 1] = 0.5  # the child serves on
        out = backbone(x, params, None, helper)
        helper.result()
        np.testing.assert_array_equal(out, pinned_backbone(x, params))
    finally:
        helper.close()


def test_failure_only_the_pass_child_meets_gives_the_in_process_result(monkeypatch):
    model = init_model(small_config())
    params = model.backbone

    def failing(*args, **kwargs):
        raise RuntimeError("only the child fails")

    monkeypatch.setattr(helper_module, "backbone", failing)
    helper = fork_helper(params, 8, PassHelper)  # the child keeps the failing function
    monkeypatch.undo()
    try:
        rng = np.random.default_rng(0)
        for _ in range(2):  # the child serves on
            x = rng.standard_normal((8, 16)).astype(np.float32)
            out = backbone(x, params, None, helper)
            helper.result()
            np.testing.assert_array_equal(out, pinned_backbone(x, params))
        assert helper.reruns == 2
    finally:
        helper.close()


def test_fuses_only_the_pass_child_fails_leave_the_boxes_unchanged(monkeypatch):
    cfg, model, frames, gt = small_run()
    solo = track_frames(cfg, model, frames, gt[0])
    real = helper_module.backbone
    reruns = []

    def failing(*args, **kwargs):
        raise RuntimeError("only the child fails")

    def rerun(*args, **kwargs):
        reruns.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(helper_module, "backbone", failing)
    tracker = Tracker(cfg, model)
    try:
        boxes = [tracker.init(frames[0], gt[0])]  # the pass child keeps the failing pass
        monkeypatch.setattr(helper_module, "backbone", rerun)
        boxes += [tracker.step(frame) for frame in frames[1:]]
        helper = tracker.pass_helper
    finally:
        tracker.close()
    assert boxes == solo
    # The fuses sent at t = 6, 11 and 16, mended at their ticks.
    assert helper.reruns == len(reruns) == 3


def test_interrupt_between_request_and_reply_leaves_no_stale_reply(monkeypatch):
    model = init_model(small_config())
    params = model.backbone
    rng = np.random.default_rng(0)
    first, second = (rng.standard_normal((48, 16)).astype(np.float32) for _ in range(2))
    helper = fork_helper(params, 48)  # forked first: the child keeps the real scan
    ws = Workspace()
    try:
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(backbone_module, "scan_forward_chunked", interrupted)
        with pytest.raises(KeyboardInterrupt):
            backbone(first, params, ws, helper)  # the child got block 0's request
        monkeypatch.undo()
        np.testing.assert_array_equal(backbone(second, params, ws, helper),
                                      backbone(second, params))
        # One reply per request: nothing is left to read.
        assert select.select([helper._replies], [], [], 0.5)[0] == []
    finally:
        helper.close()


def test_model_write_after_init_fails_until_the_last_tracker_closes():
    cfg, model, frames, gt = small_run()
    a_log = model.backbone.blocks[0].ssm_bwd.a_log
    trackers = [Tracker(cfg, model) for _ in range(2)]
    for tracker in trackers:
        tracker.init(frames[0], gt[0])
    for tracker in trackers:
        with pytest.raises(ValueError, match="read-only"):
            a_log[0, 0] = 0.0
        tracker.close()
    a_log[0, 0] = a_log[0, 0]  # writable again
