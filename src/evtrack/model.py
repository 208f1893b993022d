"""Whole-model parameter container, initialization, and parameter counting."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .backbone import BackboneParams, init_backbone
from .config import TrackerConfig
from .head import HeadParams, init_head
from .tokenizer import PatchEmbedParams, init_patch_embed

# Array fields that are running statistics rather than learned parameters.
BUFFER_FIELDS = frozenset({"bn_mean", "bn_var"})


@dataclass
class ModelParams:
    patch_embed: PatchEmbedParams
    backbone: BackboneParams  # also the Memory Mamba of `fusion`
    head: HeadParams


def init_model(config: TrackerConfig) -> ModelParams:
    """Deterministic random initialization from config.seed."""
    rng = np.random.default_rng(config.seed)
    patch_embed = init_patch_embed(config.patch_size, config.embed_dim,
                                   config.template_size, config.search_size, rng)
    net = init_backbone(config.embed_dim, config.depth, config.d_state,
                        config.dt_rank, config.conv_width, rng)
    head = init_head(config.embed_dim, config.search_context, rng)
    return ModelParams(patch_embed=patch_embed, backbone=net, head=head)


def named_arrays(params, prefix: str = "") -> Iterator[tuple[str, np.ndarray, bool]]:
    """Yield (name, array, learned) for every array in a params tree.

    Walks dataclasses, lists, and tuples; names are dotted paths. Arrays whose
    field name is in BUFFER_FIELDS are flagged as not learned.
    """
    if isinstance(params, np.ndarray):
        leaf = prefix.rsplit(".", 1)[-1]
        yield prefix, params, leaf not in BUFFER_FIELDS
    elif dataclasses.is_dataclass(params):
        for f in dataclasses.fields(params):
            name = f"{prefix}.{f.name}" if prefix else f.name
            yield from named_arrays(getattr(params, f.name), name)
    elif isinstance(params, (list, tuple)):
        for i, item in enumerate(params):
            yield from named_arrays(item, f"{prefix}.{i}")
    # scalars, strings and None carry no parameters


def count_params(params) -> int:
    """Exact number of learned scalar values in a parameter tree."""
    return sum(int(a.size) for _, a, learned in named_arrays(params) if learned)
