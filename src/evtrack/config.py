"""Tracker configuration (JSON-serializable, field names mirror the file)."""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, asdict, fields

# Field annotation, less a trailing " | None", -> (value check, what it
# requires). JSON true/false are bools, which Python also counts as ints, so
# the int check excludes them.
_KINDS = {
    "int": (lambda v: isinstance(v, int) and not isinstance(v, bool), "an int"),
    "float": (lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool)
              and math.isfinite(v), "a finite real number"),
    "bool": (lambda v: isinstance(v, bool), "a bool"),
    "tuple[float, float]": (lambda v: isinstance(v, tuple) and len(v) == 2
                            and all(map(_KINDS["float"][0], v)), "a pair of finite real numbers"),
}


def check_kinds(config) -> None:
    """Raise ValueError naming the first field not of its annotated kind."""
    for f in fields(config):
        accepts, kind = _KINDS[f.type.removesuffix(" | None")]
        value = getattr(config, f.name)
        if not (accepts(value) or value is None and f.type.endswith(" | None")):
            raise ValueError(f"{f.name} must be {kind}, got {value!r}")


def known_fields(cls, d: dict, what: str) -> dict:
    """`d`, once every key is checked to name a field of the dataclass `cls`."""
    unknown = sorted(set(d) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"unknown {what} keys: {', '.join(unknown)}")
    return d


@dataclass
class TrackerConfig:
    # Backbone geometry (defaults are the Vim-S scale: ~29.3 M parameters)
    patch_size: int = 16
    embed_dim: int = 384
    depth: int = 24
    d_state: int = 16
    dt_rank: int = 24
    conv_width: int = 4
    # Crops
    template_size: int = 128
    search_size: int = 256
    template_context: float = 2.0
    search_context: float = 4.0
    # Template memory
    lt_capacity: int = 16
    st_capacity: int = 6
    update_interval: int = 5
    # Event stacking and determinism
    window_us: int = 10_000
    seed: int = 0
    regenerate_every_frame: bool = False

    def __post_init__(self):
        check_kinds(self)
        positive = ("patch_size", "embed_dim", "depth", "d_state", "dt_rank",
                    "conv_width", "template_size", "search_size", "lt_capacity",
                    "st_capacity", "update_interval", "window_us")
        for name in positive:
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.template_context < 1 or self.search_context < 1:
            raise ValueError("context factors must be >= 1")
        for side in (self.template_size, self.search_size):
            if side % self.patch_size:
                raise ValueError("crop sides must be divisible by patch_size")

    @property
    def n_template_tokens(self) -> int:
        return (self.template_size // self.patch_size) ** 2

    @property
    def n_search_tokens(self) -> int:
        return (self.search_size // self.patch_size) ** 2

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "TrackerConfig":
        """Parse a JSON object. Unknown keys are an error. Older files' legacy
        keys are dropped: "memory_mode": "shared" (the one mode kept) and the
        loss weights, whatever their value (`losses.total_loss` takes its own
        `LossWeights`)."""
        d = json.loads(text)
        if not isinstance(d, dict):
            raise ValueError("tracker config must be a JSON object")
        for legacy in ("lambda_l1", "lambda_focal", "lambda_giou"):
            d.pop(legacy, None)
        mode = d.pop("memory_mode", "shared")
        if mode != "shared":
            raise ValueError(f"memory_mode {mode!r} was removed: the fusion "
                             "stack is always the backbone's own parameters")
        return cls(**known_fields(cls, d, "config"))


def load_config(path: str | None) -> TrackerConfig:
    """Load a config file, or the defaults when `path` is None. The file is
    the only source of the values: no environment variable overrides them."""
    if path is None:
        return TrackerConfig()
    with open(path, "r", encoding="utf-8") as f:
        return TrackerConfig.from_json(f.read())
