"""Dynamic-template generation: fuse a memory library with the Memory Mamba.

The selected library's templates are concatenated chronologically into one
long token sequence and run through the Memory Mamba; the trailing N_z
tokens become the fused dynamic template. The Memory Mamba is the vision
backbone itself: the same `BackboneParams`, not a copy, so fusion adds no
parameters.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .backbone import BackboneParams, backbone
from .helper import Helper
from .memory import MemoryLibrary, TemplateFeature
from .ops import Workspace


def fuse(templates: Sequence[TemplateFeature], params: BackboneParams,
         ws: Workspace | None = None, helper: Helper | None = None) -> np.ndarray:
    """Fuse m templates (oldest first) into one N_z x C dynamic template.

    The concatenated (m * N_z) x C sequence runs through the backbone in
    `ws` (a fresh Workspace if None), with `helper` if given; the final N_z
    rows are returned, which with a pass helper hold the template once its
    `result` returns (see `backbone`). No positional embedding is added.
    """
    if len(templates) == 0:
        raise ValueError("cannot fuse an empty template sequence")
    ws = Workspace() if ws is None else ws
    n_z = templates[0].tokens.shape[0]
    shape = (sum(z.tokens.shape[0] for z in templates), templates[0].tokens.shape[1])
    dtype = np.result_type(*(z.tokens for z in templates))
    seq = np.concatenate([z.tokens for z in templates], axis=0,
                         out=ws.take("fuse.seq", shape, dtype))
    out = backbone(seq, params, ws, helper)
    return out[-n_z:]


def generate_dynamic_template(lib: MemoryLibrary, incoming: TemplateFeature,
                              params: BackboneParams,
                              ws: Workspace | None = None,
                              helper: Helper | None = None) -> np.ndarray:
    """Route by similarity, then fuse the winning library's members.

    ST members fuse in FIFO order, LT members in ascending frame order.
    """
    routed = lib.route(incoming)
    members = lib.st_members() if routed == "ST" else lib.lt_members()
    return fuse(members, params, ws, helper)
