"""Event-camera single-object tracking with a selective-scan backbone.

Submodules:
    events     event streams, frame stacking, crops, synthetic sequences
    tokenizer  patch embedding (the tracker lays out the token sequence)
    ssm        the discretized selective-scan operator (blocked forward, backward)
    backbone   bidirectional Vim blocks and the residual token backbone
    helper     forked processes for each block's backward direction and deferred fuses
    memory     LT/ST template libraries with Gram-determinant admission
    fusion     dynamic-template generation via the Memory Mamba (the backbone)
    head       convolutional score/offset/size head and box decoding
    losses     focal / L1 / GIoU losses with analytic gradients
    metrics    SR / PR / NPR evaluation
    tracker    the end-to-end tracking loop
    weights    binary weight-file round trips
    cli        command-line interface
"""

from .config import TrackerConfig, load_config
from .events import (BBox, EventFrame, EventStream, RegionPatch, SynthConfig,
                     crop_region, iter_event_frames, stack_events, synth_stream)
from .head import HeadOutputs, decode_bbox, head_forward
from .losses import LossWeights, focal_loss, giou, iou, total_loss
from .memory import MemoryLibrary, TemplateFeature, pearson
from .metrics import EvalReport, evaluate
from .model import ModelParams, count_params, init_model
from .ssm import SSMParams, scan_backward, scan_forward_chunked
from .tokenizer import patch_embed
from .tracker import Tracker, track_frames, track_sequence
from .weights import WeightFileError, load_weights, save_weights

__version__ = "0.1.0"

__all__ = [
    "BBox", "EvalReport", "EventFrame", "EventStream",
    "HeadOutputs", "LossWeights", "MemoryLibrary", "ModelParams", "RegionPatch",
    "SSMParams", "SynthConfig", "TemplateFeature", "Tracker", "TrackerConfig",
    "WeightFileError", "count_params", "crop_region", "decode_bbox", "evaluate",
    "focal_loss", "giou", "head_forward", "init_model", "iou",
    "iter_event_frames", "load_config", "load_weights", "patch_embed", "pearson",
    "save_weights", "scan_backward", "scan_forward_chunked", "stack_events",
    "synth_stream", "total_loss", "track_frames", "track_sequence",
]
