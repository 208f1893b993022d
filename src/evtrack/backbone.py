"""Bidirectional Vim blocks and the residual token backbone.

Each block: pre-norm -> in_proj -> split into branch x and gate z; the branch
runs a causal depthwise convolution, SiLU, and a selective scan in both the
forward and the reversed direction (independent parameters per direction);
the summed scans are gated by SiLU(z), projected back to the embedding
dimension, and added to the residual. The stack ends with a per-token
normalization and a single linear projection.

Every (L, .) intermediate of a block, its convolutions and its scans lives
in a Workspace (`ops.Workspace`, which `ssm` shares): the in_proj output,
the conv output (which then takes the backward scan's output), SiLU, the
forward scan's output, two shared scratch buffers (norm output, padded
conv input, conv taps, the scan's pre-activation and delta), the scan's
selection and block arrays, and two ping-pong token buffers. All blocks and
both directions reuse it: about 11 MiB at Vim-S and 384 tokens. The caller
owns the workspace, and a tracker keeps one for its lifetime, for the frame
backbone and inline fuses (see `tracker`): a workspace built per call would
be allocated and page-faulted again on every pass. A workspace serves one
thread at a time. Calls without one (tests) get a workspace of their own,
so there is one code path.

A block's backward direction is `vim_backward`. `vim_block` runs it in this
process after the forward direction, or, given a `helper.BackwardHelper`,
has the helper's forked process run it at the same time as the forward
one. Given a `helper.PassHelper`, `backbone()` instead sends the whole pass
to that helper's process and returns without waiting. The tracker passes
its backward helper to its frame and inline-fuse passes, and its pass
helper to the fuses it defers to the next tick; `backbone()` without a
helper is the in-process spec both helpers are tested against bit for bit,
at an equal BLAS thread count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .ops import Workspace, layer_norm, silu
from .ssm import SSMParams, init_ssm_params, scan_forward_chunked

if TYPE_CHECKING:
    from .helper import BackwardHelper, Helper


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
    def d_inner(self) -> int:
        return self.out_proj.shape[0]


@dataclass
class BackboneParams:
    """L residual blocks plus the final Norm + linear projection.

    `fusion` runs the same parameters as its Memory Mamba.
    """

    blocks: list[VimBlockParams]
    final_norm: NormParams
    mlp: LinearParams


def init_vim_block(embed_dim: int, d_state: int, dt_rank: int, conv_width: int,
                   rng: np.random.Generator) -> VimBlockParams:
    d_inner = 2 * embed_dim
    scale = 0.02

    def conv():
        weight = rng.standard_normal((d_inner, conv_width)) * scale
        return ConvParams(weight=weight.astype(np.float32),
                          bias=np.zeros(d_inner, dtype=np.float32))

    return VimBlockParams(
        pre_norm=NormParams(np.ones(embed_dim, dtype=np.float32),
                            np.zeros(embed_dim, dtype=np.float32)),
        in_proj=(rng.standard_normal((embed_dim, 2 * d_inner)) * scale).astype(np.float32),
        conv_fwd=conv(),
        conv_bwd=conv(),
        ssm_fwd=init_ssm_params(d_inner, d_state, dt_rank, rng),
        ssm_bwd=init_ssm_params(d_inner, d_state, dt_rank, rng),
        out_proj=(rng.standard_normal((d_inner, embed_dim)) * scale).astype(np.float32),
    )


def init_backbone(embed_dim: int, depth: int, d_state: int, dt_rank: int,
                  conv_width: int, rng: np.random.Generator) -> BackboneParams:
    blocks = [init_vim_block(embed_dim, d_state, dt_rank, conv_width, rng)
              for _ in range(depth)]
    mlp_weight = rng.standard_normal((embed_dim, embed_dim)) * 0.02
    return BackboneParams(
        blocks=blocks,
        final_norm=NormParams(np.ones(embed_dim, dtype=np.float32),
                              np.zeros(embed_dim, dtype=np.float32)),
        mlp=LinearParams(weight=mlp_weight.astype(np.float32),
                         bias=np.zeros(embed_dim, dtype=np.float32)),
    )


def causal_conv(x: np.ndarray, conv: ConvParams, ws: Workspace | None = None,
                out: np.ndarray | None = None) -> np.ndarray:
    """Depthwise causal convolution over the token axis of (m, d_inner).

    Tap products are added first to last through one scratch buffer, so the
    sum rounds exactly as adding each product to a zero accumulator would.
    The padded input and the scratch come from `ws` (a fresh Workspace if
    None); the result goes to `out` (a fresh array if None). x may be any
    view, reversed ones included.
    """
    ws = Workspace() if ws is None else ws
    m, d = x.shape
    k = conv.weight.shape[1]
    taps = np.ascontiguousarray(conv.weight.T)  # (k, d_inner)
    xp = ws.take("scratch.0", (m + k - 1, d), x.dtype)
    xp[:k - 1] = 0
    xp[k - 1:] = x
    out = np.multiply(xp[:m], taps[0], out=np.empty_like(x) if out is None else out)
    scratch = ws.take("scratch.1", (m, d), x.dtype)
    for j in range(1, k):
        out += np.multiply(xp[j:j + m], taps[j], out=scratch)
    out += conv.bias
    return out


def _direction(x: np.ndarray, conv: ConvParams, ssm: SSMParams, ws: Workspace,
               out: np.ndarray | None = None) -> np.ndarray:
    """One direction of a block over x, (L, d_inner), in x's token order:
    causal conv -> SiLU -> selective scan. Takes ws's conv and SiLU
    buffers; the result goes to `out`, or if None to the conv buffer, which
    the scan no longer needs."""
    c = ws.take("conv", x.shape, x.dtype)
    act = silu(causal_conv(x, conv, ws, out=c), out=ws.take("silu", x.shape, x.dtype))
    return scan_forward_chunked(act, ssm, ws, out=c if out is None else out)


def vim_backward(x: np.ndarray, params: VimBlockParams, ws: Workspace | None = None,
                 out: np.ndarray | None = None) -> np.ndarray:
    """A block's backward direction over its x branch, (L, d_inner): the
    direction with the block's `_bwd` parameters over the reversed tokens.
    The result is in reversed token order.

    Scratch comes from `ws` (a fresh Workspace if None), whose conv and SiLU
    buffers this takes. The result goes to `out`, or if None to the conv
    buffer.
    """
    ws = Workspace() if ws is None else ws
    return _direction(x[::-1], params.conv_bwd, params.ssm_bwd, ws, out)


def vim_block(tokens: np.ndarray, params: VimBlockParams, ws: Workspace | None = None,
              out: np.ndarray | None = None,
              helper: BackwardHelper | None = None) -> np.ndarray:
    """One bidirectional block with its residual connection.

    Every (L, .) intermediate lives in `ws` (a fresh Workspace if None), and
    both directions reuse the same conv, SiLU and scan scratch. The result
    goes to `out` (a fresh array if None), which may not alias tokens.

    With a `helper`, its process runs the backward direction while this one
    runs the forward direction; the result is bit-identical.
    """
    ws = Workspace() if ws is None else ws
    L = tokens.shape[0]
    if not np.isfinite(tokens, out=ws.take("finite", tokens.shape, bool)).all():
        raise ValueError("non-finite input")
    scale, shift = params.pre_norm.scale, params.pre_norm.shift
    h = layer_norm(tokens, scale, shift,
                   out=ws.take("scratch.0", tokens.shape, np.result_type(tokens, scale, shift)))
    xz = np.matmul(h, params.in_proj, out=ws.take(
        "in_proj", (L, params.in_proj.shape[1]), np.result_type(h, params.in_proj)))
    d_inner = params.d_inner
    x, z = xz[:, :d_inner], xz[:, d_inner:]

    if helper is not None:
        helper.submit(params, x)
    y_fwd = _direction(x, params.conv_fwd, params.ssm_fwd, ws,
                       out=ws.take("y_fwd", x.shape, x.dtype))
    y_bwd = vim_backward(x, params, ws) if helper is None else helper.result()
    # y = (y_fwd + y_bwd[::-1]) * silu(z), accumulated in y_fwd.
    y = np.add(y_fwd, y_bwd[::-1], out=y_fwd)
    y *= silu(z, out=ws.take("silu", x.shape, x.dtype))
    if out is None:
        out = np.empty(tokens.shape, dtype=np.result_type(tokens, y, params.out_proj))
    # tokens + y @ out_proj
    np.matmul(y, params.out_proj, out=out)
    return np.add(tokens, out, out=out)


def backbone(tokens: np.ndarray, params: BackboneParams,
             ws: Workspace | None = None,
             helper: Helper | None = None,
             out: np.ndarray | None = None) -> np.ndarray:
    """Apply all residual blocks, then the final Norm + linear projection.

    Blocks run in `ws` (a fresh Workspace if None), passing tokens between
    two ping-pong buffers, and with a backward `helper` (see `vim_block`) if
    given; the result goes to `out` (a fresh array if None). A pass helper
    runs the whole pass in its process instead, and `ws` and `out` go
    unused: the result is then the helper's output buffer, valid once
    `helper.result()` returns, until the helper's next submit.
    """
    if helper is not None and helper.whole_pass:
        return helper.submit(tokens, params)
    ws = Workspace() if ws is None else ws
    for i, block in enumerate(params.blocks):
        buf = ws.take(f"tokens.{i % 2}", tokens.shape,
                      np.result_type(tokens, block.pre_norm.scale, block.out_proj))
        tokens = vim_block(tokens, block, ws, out=buf, helper=helper)
    norm = params.final_norm
    tokens = layer_norm(tokens, norm.scale, norm.shift, out=ws.take(
        "scratch.0", tokens.shape, np.result_type(tokens, norm.scale, norm.shift)))
    out = np.matmul(tokens, params.mlp.weight, out=out)
    out += params.mlp.bias
    return out
