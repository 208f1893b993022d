"""Golden end-to-end sequence: boxes, admissions, templates and head maps are pinned.

A fixed small-geometry synthetic stream is tracked in the default mode,
`regenerate_every_frame` off; every box, every long-term admission record,
the dynamic template each frame used, the backbone output's search rows and
the head's score/offset/size maps on every step, and the debug stream's
sequence of operations must match the checked-in CSVs bit for bit (floats
are stored as their shortest round-trip repr, templates, rows and maps as
the SHA-256 of their bytes). At this geometry, with initial weights, the
argmax cell and the decoded size round the dynamic template's influence
away, so the boxes alone would not notice a wrong template or a wrong token
layout; the search rows do on every step, and the float32 head maps on most.
The operation sequence pins the order of routes, pushes and admissions,
which a fuse deferred to the pass helper must not change. The other mode
is pinned at this config by `test_reference.py`, whose example runs it
against the reference loop and compares boxes, head inputs and maps,
templates and debug records byte for byte.
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


def _digest(template: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(template).tobytes()).hexdigest()


def run_sequence():
    """Track the golden stream; returns (box rows, admission rows, template
    rows, debug-stream operation rows, head-map rows).

    lt_capacity=2 is the only LT size that can leave the all-copies initial
    state in one replacement, so the sequence accepts admissions.
    """
    cfg = small_config(lt_capacity=2, seed=1)
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
    box_rows = [[t, b.cx, b.cy, b.w, b.h] for t, b in enumerate(boxes)]
    records = [json.loads(line) for line in log.getvalue().splitlines()]
    admission_rows = [[r["frame"], r["accepted"], r["replaced_index"],
                       r["det_before"], r["det_after"]]
                      for r in records if r["op"] == "lt_admit"]
    template_rows = [[t, digest] for t, digest in enumerate(templates)]
    op_rows = [[r["frame"], r["op"], r["routed"]] for r in records]
    map_rows = [[t, *digests] for t, digests in enumerate(maps, start=1)]
    return box_rows, admission_rows, template_rows, op_rows, map_rows


def _fmt(value) -> str:
    return repr(float(value)) if isinstance(value, float) else str(value)


def _read(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.reader(f))[1:]


@pytest.fixture(scope="module")
def run():
    return run_sequence()


@pytest.mark.parametrize("which, path", list(enumerate(CSVS)),
                         ids=["boxes", "admissions", "templates", "ops", "maps"])
def test_matches_golden_csv(run, which, path):
    assert [[_fmt(v) for v in row] for row in run[which]] == _read(path)


def test_without_blas_thread_symbols_matches_golden_csvs(monkeypatch):
    # Without OpenBLAS's set-threads symbol the tracker skips the pin.
    monkeypatch.setattr(blas, "_functions", lambda: None)
    for rows, path in zip(run_sequence(), CSVS):
        assert [[_fmt(v) for v in row] for row in rows] == _read(path)


def test_sequence_covers_ticks_and_accepted_admissions(run):
    boxes, admissions, *_ = run
    assert len(boxes) - 1 >= 3 * small_config().update_interval
    assert any(accepted for _, accepted, *_ in admissions)


def test_untrained_boxes_keep_the_initial_area(run):
    # The size branch's bias init holds the box's scale: 32 x 24 at init,
    # about 28 x 28 after. Without it each frame doubled the box.
    boxes = run[0]
    area = boxes[0][3] * boxes[0][4]
    assert all(area / 1.25 <= w * h <= area * 1.25 for *_, w, h in boxes)


def test_every_search_digest_sees_the_dynamic_template(run, monkeypatch):
    # With the dynamic rows of the backbone input zeroed, every step's
    # search rows change, so the maps CSV pins the template on every step.
    backbone = tracker_module.backbone
    n_z = small_config().n_template_tokens

    def zeroing(tokens, *args):
        tokens[n_z:2 * n_z] = 0
        return backbone(tokens, *args)

    monkeypatch.setattr(tracker_module, "backbone", zeroing)
    zeroed = run_sequence()[4]
    assert len(zeroed) == len(run[4]) == 20
    assert all(got[1] != want[1] for got, want in zip(zeroed, run[4]))


def record() -> None:
    DATA.mkdir(exist_ok=True)
    result = run_sequence()
    for path, header, which in (
            (BOXES_CSV, ["frame", "cx", "cy", "w", "h"], 0),
            (ADMISSIONS_CSV, ["frame", "accepted", "replaced_index",
                              "det_before", "det_after"], 1),
            (TEMPLATES_CSV, ["frame", "sha256"], 2),
            (OPS_CSV, ["frame", "op", "routed"], 3),
            (MAPS_CSV, ["frame", "search_sha256", "score_sha256",
                        "offset_sha256", "size_sha256"], 4)):
        with open(path, "w", newline="", encoding="utf-8") as f:
            writer = csv.writer(f, lineterminator="\n")
            writer.writerow(header)
            writer.writerows([_fmt(v) for v in row] for row in result[which])


if __name__ == "__main__":
    record()
