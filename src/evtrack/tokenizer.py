"""Patch embedding.

A region patch is cut into non-overlapping P x P patches in row-major order;
each patch is flattened channel-major and linearly projected to the embedding
dimension. `PatchEmbedParams` also holds the positional tables of the static
template and the search region; the tracker adds them where it lays out the
backbone input (see `tracker`), and dynamic-template tokens get none.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .events import RegionPatch
from .ops import Workspace


@dataclass
class PatchEmbedParams:
    """Linear patch projection plus positional embeddings.

    projection: (3*P*P) x C, bias: C
    pos_embed_template: N_z x C, pos_embed_search: N_x x C
    """

    projection: np.ndarray
    bias: np.ndarray
    pos_embed_template: np.ndarray
    pos_embed_search: np.ndarray
    patch_size: int

    def __post_init__(self):
        if self.projection.shape[0] != 3 * self.patch_size ** 2:
            raise ValueError("projection rows must equal 3*P*P")
        if self.bias.shape != (self.projection.shape[1],):
            raise ValueError("bias must match embedding dimension")


def init_patch_embed(patch_size: int, embed_dim: int, template_size: int,
                     search_size: int, rng: np.random.Generator) -> PatchEmbedParams:
    n_z = (template_size // patch_size) ** 2
    n_x = (search_size // patch_size) ** 2
    scale = 0.02
    projection = rng.standard_normal((3 * patch_size ** 2, embed_dim)) * scale
    return PatchEmbedParams(
        projection=projection.astype(np.float32),
        bias=np.zeros(embed_dim, dtype=np.float32),
        pos_embed_template=(rng.standard_normal((n_z, embed_dim)) * scale).astype(np.float32),
        pos_embed_search=(rng.standard_normal((n_x, embed_dim)) * scale).astype(np.float32),
        patch_size=patch_size,
    )


def patchify(data: np.ndarray, patch_size: int, out: np.ndarray | None = None) -> np.ndarray:
    """(3, S, S) -> (n_patches, 3*P*P); row-major patches, channel-major
    flattening. The result goes to `out`, a C-contiguous (n_patches, 3*P*P)
    array (a fresh one if None)."""
    c, s, s2 = data.shape
    p = patch_size
    if s != s2 or s % p != 0:
        raise ValueError("patch side must divide the image side")
    g = s // p
    if out is None:
        out = np.empty((g * g, c * p * p), dtype=data.dtype)
    # (c, gy, p, gx, p) -> (gy, gx, c, p, p): channel-major within each patch
    np.copyto(out.reshape(g, g, c, p, p), data.reshape(c, g, p, g, p).transpose(1, 3, 0, 2, 4))
    return out


def patch_embed(patch: RegionPatch, params: PatchEmbedParams,
                out: np.ndarray | None = None, ws: Workspace | None = None) -> np.ndarray:
    """Embed a region patch into an (n_patches, C) token matrix.

    Token i corresponds to grid cell (i // g, i % g) with g = side / P.
    No positional embedding is added here. With `out`, an (n_patches, C)
    array, the tokens are written into it and it is returned; else they are
    a fresh array. The patches are flattened into ws's "scratch.0" (a fresh
    Workspace if None).
    """
    ws = Workspace() if ws is None else ws
    p = params.patch_size
    c, s, _ = patch.data.shape
    flat = patchify(patch.data, p,
                    out=ws.take("scratch.0", ((s // p) ** 2, c * p * p), patch.data.dtype))
    tokens = np.matmul(flat.astype(params.projection.dtype, copy=False), params.projection,
                       out=out)
    tokens += params.bias
    return tokens
