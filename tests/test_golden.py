"""Golden end-to-end sequence: boxes, admissions, templates and head maps are pinned.

A fixed small-geometry synthetic stream is tracked in both
`regenerate_every_frame` modes; every box, every long-term admission record,
the dynamic template each frame used, the backbone output's search rows and
the head's score/offset/size maps on every step, and the debug stream's
sequence of operations must match the checked-in CSVs bit for bit (floats
are stored as their shortest round-trip repr, templates, rows and maps as
the SHA-256 of their bytes). At this geometry, with initial weights, the
argmax cell and the decoded size round the dynamic template's influence
away, so the boxes alone would not notice a wrong template or a wrong token
layout; the search rows do on every step, and the float32 head maps on most.
The operation sequence pins the order of routes, pushes and admissions,
which a fuse deferred to the pass helper must not change.
Refactors and performance work keep this test passing unchanged. To
re-record after a deliberate behaviour change:

    PYTHONPATH=src python tests/test_golden.py
"""

import csv
import hashlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

import evtrack.tracker as tracker_module
from evtrack import blas
from evtrack.events import stack_events, synth_stream
from evtrack.model import init_model
from evtrack.tracker import Tracker

from _utils import SMALL_SYNTH, small_config

DATA = Path(__file__).resolve().parent / "data"
BOXES_CSV = DATA / "golden_boxes.csv"
ADMISSIONS_CSV = DATA / "golden_admissions.csv"
TEMPLATES_CSV = DATA / "golden_templates.csv"
OPS_CSV = DATA / "golden_ops.csv"
MAPS_CSV = DATA / "golden_maps.csv"
CSVS = (BOXES_CSV, ADMISSIONS_CSV, TEMPLATES_CSV, OPS_CSV, MAPS_CSV)
MODES = (False, True)  # regenerate_every_frame


def _digest(template: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(template).tobytes()).hexdigest()


def run_sequence(regenerate_every_frame: bool):
    """Track the golden stream; returns (box rows, admission rows, template
    rows, debug-stream operation rows, head-map rows).

    lt_capacity=2 is the only LT size that can leave the all-copies initial
    state in one replacement, so the sequence accepts admissions.
    """
    cfg = small_config(lt_capacity=2, seed=1,
                       regenerate_every_frame=regenerate_every_frame)
    model = init_model(cfg)
    stream, gt = synth_stream(SMALL_SYNTH)
    frames = stack_events(stream, cfg.window_us)
    log = io.StringIO()
    maps = []
    head_forward = tracker_module.head_forward

    def recording(search_tokens, params, ws=None):
        out = head_forward(search_tokens, params, ws)
        maps.append([_digest(m) for m in (search_tokens, out.score, out.offset, out.size)])
        return out

    tracker = Tracker(cfg, model, log)
    dynamic = tracker._tokens[cfg.n_template_tokens:2 * cfg.n_template_tokens]
    tracker_module.head_forward = recording
    try:
        boxes = [tracker.init(frames[0], gt[0])]
        templates = [_digest(dynamic)]
        for frame in frames[1:]:
            boxes.append(tracker.step(frame))
            templates.append(_digest(dynamic))  # the template this step used
    finally:
        tracker_module.head_forward = head_forward
        tracker.close()
    assert len(maps) == len(frames) - 1  # one head pass per step
    mode = int(regenerate_every_frame)
    box_rows = [[mode, t, b.cx, b.cy, b.w, b.h] for t, b in enumerate(boxes)]
    records = [json.loads(line) for line in log.getvalue().splitlines()]
    admission_rows = [[mode, r["frame"], r["accepted"], r["replaced_index"],
                       r["det_before"], r["det_after"]]
                      for r in records if r["op"] == "lt_admit"]
    template_rows = [[mode, t, digest] for t, digest in enumerate(templates)]
    op_rows = [[mode, r["frame"], r["op"], r["routed"]] for r in records]
    map_rows = [[mode, t, *digests] for t, digests in enumerate(maps, start=1)]
    return box_rows, admission_rows, template_rows, op_rows, map_rows


def _fmt(value) -> str:
    return repr(float(value)) if isinstance(value, float) else str(value)


def _read(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.reader(f))[1:]


@pytest.fixture(scope="module")
def runs():
    return {mode: run_sequence(mode) for mode in MODES}


@pytest.mark.parametrize("which, path", list(enumerate(CSVS)),
                         ids=["boxes", "admissions", "templates", "ops", "maps"])
def test_matches_golden_csv(runs, which, path):
    got = [[_fmt(v) for v in row] for mode in MODES for row in runs[mode][which]]
    assert got == _read(path)


def _assert_matches_mode_0(got):
    """run_sequence(False)'s rows equal mode 0's rows of every golden CSV."""
    for which, path in enumerate(CSVS):
        want = [row for row in _read(path) if row[0] == "0"]
        assert [[_fmt(v) for v in row] for row in got[which]] == want


def test_without_blas_thread_symbols_matches_golden_csvs(monkeypatch):
    # Without OpenBLAS's set-threads symbol the tracker skips the pin.
    monkeypatch.setattr(blas, "_functions", lambda: None)
    _assert_matches_mode_0(run_sequence(False))


def test_sequence_covers_ticks_and_accepted_admissions(runs):
    for mode in MODES:
        boxes, admissions, *_ = runs[mode]
        assert len(boxes) - 1 >= 3 * small_config().update_interval
        assert any(accepted for _, _, accepted, *_ in admissions)


def test_untrained_boxes_keep_the_initial_area(runs):
    # The size branch's bias init holds the box's scale: 32 x 24 at init,
    # about 28 x 28 after. Without it each frame doubled the box.
    for mode in MODES:
        boxes = runs[mode][0]
        area = boxes[0][4] * boxes[0][5]
        assert all(area / 1.25 <= w * h <= area * 1.25 for *_, w, h in boxes)


def test_every_search_digest_sees_the_dynamic_template(runs, monkeypatch):
    # With the dynamic rows of the backbone input zeroed, every step's
    # search rows change, so the maps CSV pins the template on every step.
    backbone = tracker_module.backbone
    n_z = small_config().n_template_tokens

    def zeroing(tokens, *args):
        tokens[n_z:2 * n_z] = 0
        return backbone(tokens, *args)

    monkeypatch.setattr(tracker_module, "backbone", zeroing)
    zeroed = run_sequence(False)[4]
    assert len(zeroed) == len(runs[False][4]) == 20
    assert all(got[2] != want[2] for got, want in zip(zeroed, runs[False][4]))


def record() -> None:
    DATA.mkdir(exist_ok=True)
    results = {mode: run_sequence(mode) for mode in MODES}
    for path, header, which in (
            (BOXES_CSV, ["mode", "frame", "cx", "cy", "w", "h"], 0),
            (ADMISSIONS_CSV, ["mode", "frame", "accepted", "replaced_index",
                              "det_before", "det_after"], 1),
            (TEMPLATES_CSV, ["mode", "frame", "sha256"], 2),
            (OPS_CSV, ["mode", "frame", "op", "routed"], 3),
            (MAPS_CSV, ["mode", "frame", "search_sha256", "score_sha256",
                        "offset_sha256", "size_sha256"], 4)):
        with open(path, "w", newline="", encoding="utf-8") as f:
            writer = csv.writer(f, lineterminator="\n")
            writer.writerow(header)
            for mode in MODES:
                writer.writerows([_fmt(v) for v in row] for row in results[mode][which])


if __name__ == "__main__":
    record()
