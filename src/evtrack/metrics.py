"""Tracking evaluation: success rate, precision, normalized precision.

Standard single-object-tracking conventions:
  SR  = mean success over IoU thresholds 0..1 in steps of 0.05
        (a frame succeeds at threshold tau when IoU >= tau)
  PR  = fraction of frames with center error <= 20 px
  NPR = mean success over thresholds 0..0.5 in steps of 0.025 of the center
        error divided by the ground-truth diagonal sqrt(w^2 + h^2)
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .events import BBox
from .losses import iou

PRECISION_THRESHOLD_PX = 20.0
IOU_THRESHOLDS = np.linspace(0.0, 1.0, 21)   # step 0.05, endpoints exact
NORM_THRESHOLDS = np.linspace(0.0, 0.5, 21)  # step 0.025, endpoints exact


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
