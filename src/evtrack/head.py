"""Fully convolutional tracking head and box decoding.

Search tokens are reshaped row-major into a C x H_s x W_s map and fed to
three branches (score, offset, size). Each branch halves the channel count
through Conv-BN-ReLU stages (C -> C/2 -> C/4 -> C/8) and ends in a plain
3x3 convolution to its output width (1, 2, 2); all stages preserve the
spatial resolution. Score and the two regression maps pass through a
sigmoid, keeping score in (0,1), offsets in [0,1) per cell, and sizes in
[0,1] of the search side.

The size branch's final bias starts at logit(1/search_context). The search
side is search_context x sqrt(w h), so a size map of 1/search_context
decodes to a box of the previous box's scale: an untrained head holds the
box's area instead of multiplying it by the same factor on every frame.
Loaded weights keep their own bias.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .events import BBox, RegionPatch
from .ops import Workspace, sigmoid

BN_EPS = 1e-5
MIN_BOX_SIDE = 1.0  # px


@dataclass
class ConvBNParams:
    conv_w: np.ndarray   # (out, in, 3, 3)
    bn_scale: np.ndarray
    bn_shift: np.ndarray
    bn_mean: np.ndarray  # running statistics (buffers, not learned)
    bn_var: np.ndarray


@dataclass
class HeadBranchParams:
    stages: list[ConvBNParams]
    final_w: np.ndarray  # (out, in, 3, 3)
    final_b: np.ndarray


@dataclass
class HeadParams:
    score: HeadBranchParams
    offset: HeadBranchParams
    size: HeadBranchParams


@dataclass
class HeadOutputs:
    score: np.ndarray   # (H_s, W_s) in (0, 1)
    offset: np.ndarray  # (2, H_s, W_s) as (x, y), in [0, 1)
    size: np.ndarray    # (2, H_s, W_s) as (w, h), in (0, 1]

    @property
    def map_size(self) -> int:
        return self.score.shape[0]


def _init_branch(embed_dim: int, out_channels: int, rng: np.random.Generator) -> HeadBranchParams:
    stages = []
    c_in = embed_dim
    for _ in range(3):
        c_out = c_in // 2
        stages.append(ConvBNParams(
            conv_w=(rng.standard_normal((c_out, c_in, 3, 3)) * 0.05).astype(np.float32),
            bn_scale=np.ones(c_out, dtype=np.float32),
            bn_shift=np.zeros(c_out, dtype=np.float32),
            bn_mean=np.zeros(c_out, dtype=np.float32),
            bn_var=np.ones(c_out, dtype=np.float32),
        ))
        c_in = c_out
    return HeadBranchParams(
        stages=stages,
        final_w=(rng.standard_normal((out_channels, c_in, 3, 3)) * 0.05).astype(np.float32),
        final_b=np.zeros(out_channels, dtype=np.float32),
    )


def init_head(embed_dim: int, search_context: float, rng: np.random.Generator) -> HeadParams:
    params = HeadParams(
        score=_init_branch(embed_dim, 1, rng),
        offset=_init_branch(embed_dim, 2, rng),
        size=_init_branch(embed_dim, 2, rng),
    )
    # logit(1/search_context); at search_context 1 a finite bias whose
    # sigmoid is 1 - 1e-6 stands in for logit(1) = inf.
    params.size.final_b[:] = -math.log(max(search_context - 1.0, 1e-6))
    return params


def _im2col(x: np.ndarray, kh: int, kw: int, out: np.ndarray | None = None,
            padded: np.ndarray | None = None) -> np.ndarray:
    """Zero-padded "same" patches of x (C_in, H, W) as (H*W, C_in*kh*kw),
    columns ordered (channel, dy, dx) like a flattened conv weight.

    x is padded channel-last into `padded`, an (H + kh - 1, W + kw - 1,
    C_in) array, then each of the kh*kw offsets is one strided copy into
    `out`, a C-contiguous (H*W, C_in*kh*kw) array viewed as (H, W, C_in,
    kh, kw); either is a fresh array if None."""
    c_in, h, wd = x.shape
    if padded is None:
        padded = np.empty((h + kh - 1, wd + kw - 1, c_in), dtype=x.dtype)
    if out is None:
        out = np.empty((h * wd, c_in * kh * kw), dtype=x.dtype)
    padded.fill(0)
    padded[kh // 2:kh // 2 + h, kw // 2:kw // 2 + wd] = x.transpose(1, 2, 0)
    cols = out.reshape(h, wd, c_in, kh, kw)
    for dy in range(kh):
        for dx in range(kw):
            cols[:, :, :, dy, dx] = padded[dy:dy + h, dx:dx + wd]
    return out


def _conv_cols(cols: np.ndarray, w: np.ndarray, h: int, wd: int,
               out: np.ndarray | None = None) -> np.ndarray:
    """Convolution from im2col columns: (H*W, C_in*kh*kw) -> (C_out, H, W),
    the transposed view of the (H*W, C_out) product, written to `out` (a
    fresh array if None)."""
    c_out = w.shape[0]
    out = np.matmul(cols, w.reshape(c_out, -1).T, out=out)
    return out.T.reshape(c_out, h, wd)


def conv2d_same(x: np.ndarray, w: np.ndarray, ws: Workspace | None = None,
                out: np.ndarray | None = None) -> np.ndarray:
    """Stride-1 convolution with zero "same" padding; x (C_in, H, W) -> (C_out, H, W).

    The padded map and the columns are ws's scratch pair (a fresh Workspace
    if None); the product goes to `out`, an (H*W, C_out) array (a fresh one
    if None), of which the result is a view. x is copied into the padded
    map before `out` is written, so `out` may share x's memory.
    """
    c_in, h, wd = x.shape
    _, c_in2, kh, kw = w.shape
    if c_in != c_in2:
        raise ValueError("channel mismatch")
    ws = Workspace() if ws is None else ws
    cols = _im2col(x, kh, kw, out=ws.take("scratch.1", (h * wd, c_in * kh * kw), x.dtype),
                   padded=ws.take("scratch.0", (h + kh - 1, wd + kw - 1, c_in), x.dtype))
    return _conv_cols(cols, w, h, wd, out)


def _batch_norm(x: np.ndarray, p: ConvBNParams, out: np.ndarray | None = None) -> np.ndarray:
    """(x - mean) / sqrt(var + eps) * scale + shift per channel, into `out`
    (a fresh array if None), which may be x."""
    inv = 1.0 / np.sqrt(p.bn_var + BN_EPS)
    out = np.subtract(x, p.bn_mean[:, None, None], out=out)
    np.multiply(out, inv[:, None, None], out=out)
    np.multiply(out, p.bn_scale[:, None, None], out=out)
    return np.add(out, p.bn_shift[:, None, None], out=out)


def _bn_relu(x: np.ndarray, p: ConvBNParams) -> np.ndarray:
    """Batch norm then ReLU, in place on x."""
    return np.maximum(_batch_norm(x, p, out=x), 0.0, out=x)


def _branch_forward(first_cols: np.ndarray, side: int, branch: HeadBranchParams,
                    ws: Workspace, name: str) -> np.ndarray:
    """One branch on a side x side map given as its first stage's im2col.

    Each stage's output is ws's "conv" buffer, normalized in place; the
    branch's output, after its bias and sigmoid, is ws's `name` buffer.
    """
    first, *rest = branch.stages

    def product(w, x, buffer="conv"):
        return ws.take(buffer, (side * side, w.shape[0]), np.result_type(x, w))

    x = _bn_relu(_conv_cols(first_cols, first.conv_w, side, side,
                            product(first.conv_w, first_cols)), first)
    for stage in rest:
        x = _bn_relu(conv2d_same(x, stage.conv_w, ws, product(stage.conv_w, x)), stage)
    x = conv2d_same(x, branch.final_w, ws, product(branch.final_w, x, name))
    np.add(x, branch.final_b[:, None, None], out=x)
    return sigmoid(x, out=x)


def tokens_to_map(search_tokens: np.ndarray) -> np.ndarray:
    """Row-major token matrix (N_x, C) -> feature map (C, H_s, W_s)."""
    n, c = search_tokens.shape
    side = math.isqrt(n)
    if side * side != n:
        raise ValueError("search token count must be a perfect square")
    return search_tokens.reshape(side, side, c).transpose(2, 0, 1)


def head_forward(search_tokens: np.ndarray, params: HeadParams,
                 ws: Workspace | None = None) -> HeadOutputs:
    """All three branches; they share the first stage's im2col of the map.

    Every map-sized array is a buffer of `ws` (a fresh Workspace if None):
    the shared im2col in "in_proj", each stage's columns and padded map in
    the scratch pair and its output in "conv", and the outputs in
    "head.score", "head.offset" and "head.size", views valid until ws's
    next use of those names.
    """
    ws = Workspace() if ws is None else ws
    fmap = tokens_to_map(search_tokens)
    c, side, _ = fmap.shape
    kh, kw = params.score.stages[0].conv_w.shape[2:]
    cols = _im2col(fmap, kh, kw,
                   out=ws.take("in_proj", (side * side, c * kh * kw), fmap.dtype),
                   padded=ws.take("scratch.0", (side + kh - 1, side + kw - 1, c), fmap.dtype))
    return HeadOutputs(
        score=_branch_forward(cols, side, params.score, ws, "head.score")[0],
        offset=_branch_forward(cols, side, params.offset, ws, "head.offset"),
        size=_branch_forward(cols, side, params.size, ws, "head.size"),
    )


def decode_bbox(out: HeadOutputs, search_patch: RegionPatch,
                width: int, height: int) -> BBox:
    """Decode the head maps into a box on a width x height frame.

    The score argmax (row-major first on ties) picks the cell; the offset
    refines the center inside the cell, sizes are fractions of the search
    side, and the crop geometry maps everything back to frame coordinates.
    The box is then bounded to the frame, as OSTrack's `clip_box` does: the
    center is clipped onto [0, width - 1] x [0, height - 1] and the sides
    onto [MIN_BOX_SIDE, width] and [MIN_BOX_SIDE, height], so neither a
    collapsing nor an exploding size map leaves the next crop off the frame.
    """
    side = out.map_size
    cell_px = search_patch.out_size // side
    flat = int(np.argmax(out.score))  # row-major argmax; ties -> first
    i, j = divmod(flat, side)
    px = (j + float(out.offset[0, i, j])) * cell_px
    py = (i + float(out.offset[1, i, j])) * cell_px
    w_patch = float(out.size[0, i, j]) * search_patch.out_size
    h_patch = float(out.size[1, i, j]) * search_patch.out_size
    cx, cy = search_patch.patch_to_frame(px, py)
    rf = search_patch.resize_factor
    return BBox(float(np.clip(cx, 0, width - 1)), float(np.clip(cy, 0, height - 1)),
                float(np.clip(w_patch / rf, MIN_BOX_SIDE, width)),
                float(np.clip(h_patch / rf, MIN_BOX_SIDE, height)))
