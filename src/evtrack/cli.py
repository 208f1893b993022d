"""Command-line interface.

Subcommands:
    track     run the tracker over an event CSV, write one box per frame
    eval      score predictions against ground truth, write a JSON report
    synth     generate a synthetic event stream and its ground truth
    params    print the learned-parameter count for a configuration

Exit codes: 0 success, 1 runtime failure, 2 bad arguments.
"""

from __future__ import annotations

import argparse
import sys

from .config import load_config
from .events import (BBox, SynthConfig, load_boxes_csv, load_events_csv,
                     save_boxes_csv, save_events_csv, synth_stream)
from .metrics import evaluate
from .model import count_params, init_model
from .tracker import track_sequence
from .weights import load_weights


def _parse_bbox(text: str) -> BBox:
    parts = [float(v) for v in text.split(",")]
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("expected x,y,w,h")
    return BBox.from_topleft(*parts)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="evtrack",
                                     description="Event-camera object tracker")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("track", help="track a sequence from an event CSV")
    p.add_argument("--weights", help="weight file (default: seeded random init)")
    p.add_argument("--events", required=True, help="event CSV (t,x,y,p)")
    p.add_argument("--init-bbox", required=True, type=_parse_bbox,
                   metavar="x,y,w,h", help="first-frame box, top-left convention")
    p.add_argument("--config", help="tracker config JSON")
    p.add_argument("--out", required=True, help="output box CSV (x,y,w,h per frame)")

    p = sub.add_parser("eval", help="evaluate predictions against ground truth")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--report", required=True, help="output JSON report")

    p = sub.add_parser("synth", help="generate a synthetic event sequence")
    p.add_argument("--config", help="SynthConfig JSON (defaults if omitted)")
    p.add_argument("--out-events", required=True)
    p.add_argument("--out-gt", required=True)

    p = sub.add_parser("params", help="print the learned-parameter count")
    p.add_argument("--config", help="tracker config JSON")
    return parser


def _cmd_track(args) -> int:
    config = load_config(args.config)
    model = init_model(config)
    if args.weights:
        load_weights(args.weights, model)
    stream = load_events_csv(args.events)
    if len(stream) == 0:
        raise ValueError(f"{args.events}: the recording holds no events")
    boxes = track_sequence(config, model, stream, args.init_bbox)
    save_boxes_csv(boxes, args.out)
    print(f"tracked {len(boxes)} frames -> {args.out}")
    return 0


def _cmd_eval(args) -> int:
    pred = load_boxes_csv(args.pred)
    gt = load_boxes_csv(args.gt)
    report = evaluate(pred, gt)
    with open(args.report, "w", encoding="utf-8") as f:
        f.write(report.to_json() + "\n")
    print(report.to_json())
    return 0


def _cmd_synth(args) -> int:
    if args.config:
        with open(args.config, "r", encoding="utf-8") as f:
            cfg = SynthConfig.from_json(f.read())
    else:
        cfg = SynthConfig()
    stream, boxes = synth_stream(cfg)
    save_events_csv(stream, args.out_events)
    save_boxes_csv(boxes, args.out_gt)
    print(f"wrote {len(stream)} events over {len(boxes)} windows")
    return 0


def _cmd_params(args) -> int:
    config = load_config(args.config)
    model = init_model(config)
    print(count_params(model))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "track":
            return _cmd_track(args)
        if args.command == "eval":
            return _cmd_eval(args)
        if args.command == "synth":
            return _cmd_synth(args)
        if args.command == "params":
            return _cmd_params(args)
        return 2
    except Exception as exc:  # runtime failures exit 1, not a traceback
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
