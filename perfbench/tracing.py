"""Outside-in layer spans for the traced benchmark run.

The tracer replaces the names the tracker's layers call each other through
(module globals such as `evtrack.tracker.backbone`, methods such as
`MemoryLibrary.lt_admit`) with timing wrappers, keeps every span in memory,
and restores the originals on exit. A name that no longer exists is recorded
as missing, and the metrics that need it read as missing, not as a crash.
"""

from __future__ import annotations

import functools
import importlib
import json
from dataclasses import dataclass
from time import perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in Tracer.spans, -1 at top level


def _tokens(tracer, args, result):
    return args[0].shape[0]


class Tracer:
    """Context manager that wraps TARGETS while it is active."""

    # (span name, "module" or "module:Class", attribute, observer). An
    # observer sees (tracer, args, result) after each call and returns a
    # number added to the span name's counter.
    TARGETS = (
        ("tracker.init", "evtrack.tracker:Tracker", "init", None),
        ("tracker.step", "evtrack.tracker:Tracker", "step", None),
        ("events.crop", "evtrack.tracker", "crop_region", None),
        ("tokenizer.embed", "evtrack.tracker", "patch_embed", None),
        ("backbone.frame", "evtrack.tracker", "backbone", None),
        ("head.forward", "evtrack.tracker", "head_forward", None),
        ("head.decode", "evtrack.tracker", "decode_bbox", None),
        ("fusion.regen", "evtrack.tracker", "generate_dynamic_template",
         lambda tr, args, result: tr.regen_useful(args[0])),
        ("fusion.backbone", "evtrack.fusion", "backbone", _tokens),
        ("memory.route", "evtrack.memory:MemoryLibrary", "route",
         lambda tr, args, result: tr.routed(result)),
        ("memory.admit", "evtrack.memory:MemoryLibrary", "lt_admit",
         lambda tr, args, result: int(result.accepted)),
        ("memory.push", "evtrack.memory:MemoryLibrary", "st_push", None),
        ("backbone.block", "evtrack.backbone", "vim_block", None),
        ("backbone.conv", "evtrack.backbone", "causal_conv", None),
        ("backbone.norm", "evtrack.backbone", "layer_norm", None),
        ("ssm.scan", "evtrack.backbone", "scan_forward_chunked", _tokens),
    )

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._last_route: str | None = None
        self._last_regen: tuple | None = None

    # -- observers ---------------------------------------------------------

    def routed(self, library: str) -> int:
        """Remember the routing for regen_useful; count routes to LT."""
        self._last_route = library
        return int(library == "LT")

    def regen_useful(self, memory) -> int:
        """1 if the routed library or its members changed since the last regeneration.

        Members are compared by identity; holding them keeps their ids unique.
        """
        lib = memory.st_members() if self._last_route == "ST" else memory.lt_members()
        key = (self._last_route, lib)
        last, self._last_regen = self._last_regen, key
        return int(last is None or last[0] != key[0] or len(last[1]) != len(lib)
                   or any(a is not b for a, b in zip(last[1], lib)))

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name, fn, observe):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1)
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                tracer._stack.pop()
            if observe is not None:
                tracer.counters[name] = tracer.counters.get(name, 0) + observe(tracer, args, result)
            return result
        return wrapper

    def __enter__(self) -> "Tracer":
        for name, where, attr, observe in self.targets:
            module, _, cls = where.partition(":")
            try:
                owner = importlib.import_module(module)
                if cls:
                    owner = getattr(owner, cls)
                original = owner.__dict__[attr] if cls else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(name)
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, observe))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def write(self, path) -> None:
        """One JSON array [name, start_s, end_s, parent] per line."""
        with open(path, "w", encoding="utf-8") as f:
            for s in self.spans:
                f.write(json.dumps([s.name, s.start, s.end, s.parent]) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for s, kids in zip(spans, children):
        covered, reach = 0.0, s.start
        for lo, hi in sorted((spans[k].start, spans[k].end) for k in kids):
            lo, hi = max(lo, reach), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.end - s.start - covered)
    return out


def summarize(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: call count, total and self seconds."""
    out: dict[str, dict[str, float]] = {}
    for s, own in zip(spans, self_times(spans)):
        agg = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["total_s"] += s.end - s.start
        agg["self_s"] += own
    return out


def layer_metrics(tracer: Tracer, setup: dict[str, float], untraced_fps: float,
                  traced_fps: float, failed_share: float) -> dict[str, tuple[float | None, str]]:
    """Per-layer metrics as {name: (value, or None if missing, unit)}.

    "Per frame" times divide the traced phase's busy time in a layer by the
    frames it tracked, so they add up towards frame latency. `setup` holds
    the benchmark's own medians of its set-up calls, in seconds;
    `failed_share` is the run's failed frames over frames stepped.
    """
    agg = summarize(tracer.spans)
    missing = set(tracer.missing)

    def calls(name):
        return agg.get(name, {}).get("calls", 0)

    def busy(name, field="total_s"):
        return agg.get(name, {}).get(field, 0.0)

    def ratio(num, den, *needs):
        return num / den if den and not missing.intersection(needs) else None

    frames = calls("tracker.step")
    counter = tracer.counters.get
    return {
        "ssm.scan_ms": (ratio(busy("ssm.scan") * 1e3, frames, "ssm.scan"), "ms/frame"),
        "ssm.scan_calls": (ratio(calls("ssm.scan"), frames, "ssm.scan"), "count/frame"),
        "ssm.scan_us_per_token": (ratio(busy("ssm.scan") * 1e6, counter("ssm.scan", 0),
                                        "ssm.scan"), "us/token"),
        "backbone.frame_ms": (ratio(busy("backbone.frame") * 1e3, calls("backbone.frame"),
                                    "backbone.frame"), "ms"),
        "backbone.block_self_ms": (ratio(busy("backbone.block", "self_s") * 1e3, frames,
                                         "backbone.block", "backbone.conv", "ssm.scan",
                                         "backbone.norm"), "ms/frame"),
        "backbone.conv_ms": (ratio(busy("backbone.conv") * 1e3, frames, "backbone.conv"),
                             "ms/frame"),
        "backbone.norm_ms": (ratio(busy("backbone.norm") * 1e3, frames, "backbone.norm"),
                             "ms/frame"),
        "fusion.regen_ms": (ratio(busy("fusion.regen") * 1e3, calls("fusion.regen"),
                                  "fusion.regen"), "ms"),
        "fusion.regens": (ratio(calls("fusion.regen"), frames, "fusion.regen"), "count/frame"),
        "fusion.fuse_tokens": (ratio(counter("fusion.backbone", 0), calls("fusion.backbone"),
                                     "fusion.backbone"), "tokens"),
        "fusion.lt_route_share": (ratio(counter("memory.route", 0), calls("memory.route"),
                                        "memory.route"), "ratio"),
        "fusion.regen_useful_ratio": (ratio(counter("fusion.regen", 0), calls("fusion.regen"),
                                            "fusion.regen", "memory.route"), "ratio"),
        "memory.admit_ms": (ratio(busy("memory.admit") * 1e3, calls("memory.admit"),
                                  "memory.admit"), "ms"),
        "memory.route_ms": (ratio(busy("memory.route") * 1e3, calls("memory.route"),
                                  "memory.route"), "ms"),
        "memory.admit_offers": (ratio(calls("memory.admit"), frames, "memory.admit"),
                                "count/frame"),
        "memory.admit_accept_ratio": (ratio(counter("memory.admit", 0), calls("memory.admit"),
                                            "memory.admit"), "ratio"),
        "events.crop_ms": (ratio(busy("events.crop") * 1e3, frames, "events.crop"), "ms/frame"),
        "events.load_s": (setup["events.load_s"], "s"),
        "events.stack_s": (setup["events.stack_s"], "s"),
        "tokenizer.embed_ms": (ratio(busy("tokenizer.embed") * 1e3, frames, "tokenizer.embed"),
                               "ms/frame"),
        "head.ms": (ratio(busy("head.forward") * 1e3, frames, "head.forward"), "ms/frame"),
        "head.decode_ms": (ratio(busy("head.decode") * 1e3, frames, "head.decode"), "ms/frame"),
        "tracker.init_ms": (setup["tracker.init_s"] * 1e3, "ms"),
        "tracker.failed_frame_share": (failed_share, "ratio"),
        "tracker.step_self_ms": (ratio(busy("tracker.step", "self_s") * 1e3, frames,
                                       "tracker.step", "events.crop", "tokenizer.embed",
                                       "backbone.frame", "head.forward", "head.decode",
                                       "fusion.regen", "memory.push"), "ms/frame"),
        "model.init_s": (setup["model.init_s"], "s"),
        "weights.load_s": (setup["weights.load_s"], "s"),
        "trace.overhead": (traced_fps / untraced_fps, "ratio"),
    }
