"""evaluate: SR / PR / NPR on hand-built box sequences with known answers;
the Gaussian score labels."""

import numpy as np
import pytest

from evtrack.events import BBox
from evtrack.metrics import (IOU_THRESHOLDS, PRECISION_THRESHOLD_PX, evaluate,
                             gaussian_heatmap, gaussian_radius, iou)


def test_identical_boxes_score_one():
    rng = np.random.default_rng(9)
    boxes = [BBox(*rng.uniform(20, 80, 2), *rng.uniform(5, 15, 2)) for _ in range(10)]
    rep = evaluate(boxes, boxes)
    assert (rep.sr, rep.pr, rep.npr, rep.frames) == (1.0, 1.0, 1.0, 10)


def test_half_overlap_succeeds_up_to_threshold_one_half():
    # A 1x1 prediction centred in a 2x1 ground truth: IoU 1/2 on every frame,
    # centre error 0.
    gt = [BBox(10.0 + k, 20.0 - k, 2.0, 1.0) for k in range(7)]
    pred = [BBox(g.cx, g.cy, 1.0, 1.0) for g in gt]
    assert all(iou(p, g) == 0.5 for p, g in zip(pred, gt))
    rep = evaluate(pred, gt)
    assert rep.sr == np.mean(IOU_THRESHOLDS <= 0.5)
    assert 0.0 < rep.sr < 1.0
    assert rep.pr == 1.0 and rep.npr == 1.0


def test_precision_counts_an_error_of_exactly_twenty_px():
    gt = BBox(50.0, 50.0, 10.0, 10.0)
    at = BBox(gt.cx + 12.0, gt.cy + 16.0, 10.0, 10.0)  # hypot(12, 16) == 20
    above = BBox(gt.cx + 12.0, gt.cy + 16.001, 10.0, 10.0)
    assert PRECISION_THRESHOLD_PX == 20.0
    assert evaluate([at], [gt]).pr == 1.0
    assert evaluate([above], [gt]).pr == 0.0
    assert evaluate([at, above], [gt, gt]).pr == 0.5


@pytest.mark.parametrize("pred, gt", [
    ([BBox(1, 1, 1, 1)], [BBox(1, 1, 1, 1)] * 2),
    ([BBox(1, 1, 1, 1)] * 2, [BBox(1, 1, 1, 1)]),
    ([], []),
], ids=["short-pred", "short-gt", "empty"])
def test_length_mismatch_and_empty_input_rejected(pred, gt):
    with pytest.raises(ValueError):
        evaluate(pred, gt)


class TestGaussianTarget:
    def test_peak_is_exactly_one(self):
        hm = gaussian_heatmap((16, 16), (7, 9), 2.7)
        assert hm[7, 9] == 1.0
        assert hm.max() == 1.0
        assert np.all(hm >= 0)

    def test_radius_positive_for_typical_boxes(self):
        assert gaussian_radius(4.0, 4.0) > 0
        assert gaussian_radius(1.0, 1.0) >= 0
