"""Bidirectional Vim blocks and the residual token backbone.

Each block: pre-norm -> in_proj -> split into branch x and gate z; the branch
runs a causal depthwise convolution, SiLU, and a selective scan in both the
forward and the reversed direction (independent parameters per direction);
the summed scans are gated by SiLU(z), projected back to the embedding
dimension, and added to the residual. The stack ends with a per-token
normalization and a single linear projection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ops import layer_norm, silu
from .ssm import SSMParams, init_ssm_params, scan_forward_chunked


@dataclass
class NormParams:
    scale: np.ndarray
    shift: np.ndarray


@dataclass
class LinearParams:
    weight: np.ndarray
    bias: np.ndarray


@dataclass
class ConvParams:
    """Depthwise causal 1-D convolution; weight (d_inner, k), bias (d_inner,).

    weight[:, -1] multiplies the current timestep, earlier taps look back.
    """

    weight: np.ndarray
    bias: np.ndarray


@dataclass
class VimBlockParams:
    pre_norm: NormParams
    in_proj: np.ndarray   # C x 2*d_inner
    conv_fwd: ConvParams
    conv_bwd: ConvParams
    ssm_fwd: SSMParams
    ssm_bwd: SSMParams
    out_proj: np.ndarray  # d_inner x C

    @property
    def embed_dim(self) -> int:
        return self.in_proj.shape[0]

    @property
    def d_inner(self) -> int:
        return self.out_proj.shape[0]


@dataclass
class BackboneParams:
    """L residual blocks plus the final Norm + linear projection.

    final_norm/mlp may both be None for an identity final stage.
    """

    blocks: list[VimBlockParams]
    final_norm: NormParams | None
    mlp: LinearParams | None

    @property
    def depth(self) -> int:
        return len(self.blocks)


def init_vim_block(embed_dim: int, d_state: int, dt_rank: int, conv_width: int,
                   rng: np.random.Generator, dtype=np.float32) -> VimBlockParams:
    d_inner = 2 * embed_dim
    scale = 0.02

    def conv():
        return ConvParams(weight=(rng.standard_normal((d_inner, conv_width)) * scale).astype(dtype),
                          bias=np.zeros(d_inner, dtype=dtype))

    return VimBlockParams(
        pre_norm=NormParams(np.ones(embed_dim, dtype=dtype), np.zeros(embed_dim, dtype=dtype)),
        in_proj=(rng.standard_normal((embed_dim, 2 * d_inner)) * scale).astype(dtype),
        conv_fwd=conv(),
        conv_bwd=conv(),
        ssm_fwd=init_ssm_params(d_inner, d_state, dt_rank, rng, dtype),
        ssm_bwd=init_ssm_params(d_inner, d_state, dt_rank, rng, dtype),
        out_proj=(rng.standard_normal((d_inner, embed_dim)) * scale).astype(dtype),
    )


def init_backbone(embed_dim: int, depth: int, d_state: int, dt_rank: int,
                  conv_width: int, rng: np.random.Generator, dtype=np.float32) -> BackboneParams:
    blocks = [init_vim_block(embed_dim, d_state, dt_rank, conv_width, rng, dtype)
              for _ in range(depth)]
    return BackboneParams(
        blocks=blocks,
        final_norm=NormParams(np.ones(embed_dim, dtype=dtype), np.zeros(embed_dim, dtype=dtype)),
        mlp=LinearParams(weight=(rng.standard_normal((embed_dim, embed_dim)) * 0.02).astype(dtype),
                         bias=np.zeros(embed_dim, dtype=dtype)),
    )


def causal_conv(x: np.ndarray, conv: ConvParams) -> np.ndarray:
    """Depthwise causal convolution over the token axis of (m, d_inner).

    Tap products are added first to last through one scratch buffer, so the
    sum rounds exactly as adding each product to a zero accumulator would.
    """
    m, d = x.shape
    k = conv.weight.shape[1]
    taps = np.ascontiguousarray(conv.weight.T)  # (k, d_inner)
    xp = np.vstack([np.zeros((k - 1, d), dtype=x.dtype), x])
    out = np.multiply(xp[:m], taps[0], out=np.empty_like(x))
    scratch = np.empty_like(x)
    for j in range(1, k):
        out += np.multiply(xp[j:j + m], taps[j], out=scratch)
    out += conv.bias
    return out


def vim_block(tokens: np.ndarray, params: VimBlockParams) -> np.ndarray:
    """One bidirectional block with its residual connection."""
    if not np.all(np.isfinite(tokens)):
        raise ValueError("non-finite input")
    h = layer_norm(tokens, params.pre_norm.scale, params.pre_norm.shift)
    xz = h @ params.in_proj
    d_inner = params.d_inner
    x, z = xz[:, :d_inner], xz[:, d_inner:]

    y_fwd = scan_forward_chunked(silu(causal_conv(x, params.conv_fwd)), params.ssm_fwd)
    xr = np.ascontiguousarray(x[::-1])
    y_bwd = scan_forward_chunked(silu(causal_conv(xr, params.conv_bwd)), params.ssm_bwd)
    y = (y_fwd + y_bwd[::-1]) * silu(z)
    return tokens + y @ params.out_proj


def backbone(tokens: np.ndarray, params: BackboneParams) -> np.ndarray:
    """Apply all residual blocks, then the final Norm + linear projection."""
    for block in params.blocks:
        tokens = vim_block(tokens, block)
    if params.final_norm is not None:
        tokens = layer_norm(tokens, params.final_norm.scale, params.final_norm.shift)
    if params.mlp is not None:
        tokens = tokens @ params.mlp.weight + params.mlp.bias
    return tokens
