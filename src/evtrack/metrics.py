"""Tracking evaluation: success rate, precision, normalized precision.

Standard single-object-tracking conventions:
  SR  = mean success over IoU thresholds 0..1 in steps of 0.05
        (a frame succeeds at threshold tau when IoU >= tau)
  PR  = fraction of frames with center error <= 20 px
  NPR = mean success over thresholds 0..0.5 in steps of 0.025 of the center
        error divided by the ground-truth diagonal sqrt(w^2 + h^2)

The CenterNet-style Gaussian score labels (gaussian_radius, gaussian_heatmap)
live here too. No path reads them yet: ROADMAP item 12 fits the head's
readout in closed form and takes its score labels from them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .events import BBox

PRECISION_THRESHOLD_PX = 20.0
IOU_THRESHOLDS = np.linspace(0.0, 1.0, 21)   # step 0.05, endpoints exact
NORM_THRESHOLDS = np.linspace(0.0, 0.5, 21)  # step 0.025, endpoints exact


def iou(a: BBox, b: BBox) -> float:
    # Areas from corner differences so identical boxes give exactly 1.0.
    ax1, ay1, ax2, ay2 = a.corners()
    bx1, by1, bx2, by2 = b.corners()
    iw = max(0.0, min(ax2, bx2) - max(ax1, bx1))
    ih = max(0.0, min(ay2, by2) - max(ay1, by1))
    inter = iw * ih
    union = (ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter
    return inter / union


@dataclass(frozen=True)
class EvalReport:
    sr: float
    pr: float
    npr: float
    frames: int

    def to_json(self) -> str:
        return json.dumps({"SR": self.sr, "PR": self.pr, "NPR": self.npr,
                           "frames": self.frames})


def evaluate(pred_boxes: Sequence[BBox], gt_boxes: Sequence[BBox]) -> EvalReport:
    """Per-frame tally of SR / PR / NPR over equal-length box sequences."""
    if len(pred_boxes) != len(gt_boxes):
        raise ValueError("prediction/ground-truth length mismatch")
    if len(pred_boxes) == 0:
        raise ValueError("empty evaluation")

    ious = np.array([iou(p, g) for p, g in zip(pred_boxes, gt_boxes)])
    err = np.array([math.hypot(p.cx - g.cx, p.cy - g.cy)
                    for p, g in zip(pred_boxes, gt_boxes)])
    diag = np.array([math.hypot(g.w, g.h) for g in gt_boxes])

    sr = float(np.mean([(ious >= t).mean() for t in IOU_THRESHOLDS]))
    pr = float((err <= PRECISION_THRESHOLD_PX).mean())
    norm_err = err / diag
    npr = float(np.mean([(norm_err <= t).mean() for t in NORM_THRESHOLDS]))
    return EvalReport(sr=sr, pr=pr, npr=npr, frames=len(pred_boxes))


def gaussian_radius(box_h: float, box_w: float, min_overlap: float = 0.3) -> float:
    """Largest center shift (in cells) keeping IoU >= min_overlap."""
    a1 = 1.0
    b1 = box_h + box_w
    c1 = box_w * box_h * (1 - min_overlap) / (1 + min_overlap)
    r1 = (b1 - math.sqrt(b1 ** 2 - 4 * a1 * c1)) / (2 * a1)

    a2 = 4.0
    b2 = 2 * (box_h + box_w)
    c2 = (1 - min_overlap) * box_w * box_h
    r2 = (b2 - math.sqrt(b2 ** 2 - 4 * a2 * c2)) / (2 * a2)

    a3 = 4.0 * min_overlap
    b3 = -2 * min_overlap * (box_h + box_w)
    c3 = (min_overlap - 1) * box_w * box_h
    r3 = (b3 + math.sqrt(b3 ** 2 - 4 * a3 * c3)) / (2 * a3)
    return max(0.0, min(r1, r2, r3))


def gaussian_heatmap(shape: tuple[int, int], center: tuple[int, int], radius: float) -> np.ndarray:
    """Heatmap with an exact 1 at `center` and a Gaussian falloff around it."""
    h, w = shape
    ci, cj = center
    out = np.zeros(shape, dtype=np.float64)
    r = max(0, int(radius))
    sigma = (2 * r + 1) / 6.0
    ii, jj = np.ogrid[-r:r + 1, -r:r + 1]
    patch = np.exp(-(ii ** 2 + jj ** 2) / (2 * sigma ** 2))
    i0, i1 = max(0, ci - r), min(h, ci + r + 1)
    j0, j1 = max(0, cj - r), min(w, cj + r + 1)
    out[i0:i1, j0:j1] = patch[i0 - ci + r:i1 - ci + r, j0 - cj + r:j1 - cj + r]
    out[ci, cj] = 1.0
    return out
