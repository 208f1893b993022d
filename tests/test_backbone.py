import tracemalloc

import numpy as np
import pytest

from evtrack import ssm
from evtrack.backbone import (ConvParams, LinearParams, causal_conv, init_backbone,
                              init_vim_block, vim_block, backbone)
from evtrack.config import TrackerConfig
from evtrack.model import count_params, init_model
from evtrack.ops import Workspace, layer_norm, sigmoid, silu, softplus
from evtrack.ssm import scan_forward_chunked

from _utils import unblocked_scan

RNG = np.random.default_rng(0)


def block(dim=8, seed=0):
    return init_vim_block(dim, 4, 2, 4, np.random.default_rng(seed))


def test_zero_out_proj_makes_block_identity():
    b = block()
    b.out_proj[:] = 0.0
    tokens = RNG.standard_normal((10, 8)).astype(np.float32)
    np.testing.assert_array_equal(vim_block(tokens, b), tokens)


def test_backbone_reduces_to_final_stage_with_zero_out_proj():
    params = init_backbone(8, 3, 4, 2, 4, np.random.default_rng(1))
    for blk in params.blocks:
        blk.out_proj[:] = 0.0
    tokens = RNG.standard_normal((6, 8)).astype(np.float32)
    expected = layer_norm(tokens, params.final_norm.scale, params.final_norm.shift)
    expected = expected @ params.mlp.weight + params.mlp.bias
    np.testing.assert_allclose(backbone(tokens, params), expected, rtol=1e-6)


def test_single_token_block():
    b = block()
    tokens = RNG.standard_normal((1, 8)).astype(np.float32)
    out = vim_block(tokens, b)
    assert out.shape == (1, 8)
    assert np.all(np.isfinite(out))
    # with one token the causal convolution reduces to its last tap + bias
    x = RNG.standard_normal((1, 16)).astype(np.float32)
    np.testing.assert_allclose(causal_conv(x, b.conv_fwd),
                               x * b.conv_fwd.weight[:, -1] + b.conv_fwd.bias,
                               rtol=1e-6)


def test_direction_swap_equivariance():
    b = block(seed=3)
    swapped = init_vim_block(8, 4, 2, 4, np.random.default_rng(99))
    swapped.pre_norm = b.pre_norm
    swapped.in_proj = b.in_proj
    swapped.out_proj = b.out_proj
    swapped.conv_fwd, swapped.conv_bwd = b.conv_bwd, b.conv_fwd
    swapped.ssm_fwd, swapped.ssm_bwd = b.ssm_bwd, b.ssm_fwd
    tokens = RNG.standard_normal((12, 8)).astype(np.float64)
    forward = vim_block(tokens, b)
    reversed_out = vim_block(tokens[::-1].copy(), swapped)
    np.testing.assert_allclose(reversed_out, forward[::-1], rtol=1e-9, atol=1e-12)


def test_finite_for_constant_tokens():
    # constant rows exercise the normalization epsilon (zero variance)
    b = block()
    tokens = np.ones((4, 8), dtype=np.float32)
    assert np.all(np.isfinite(vim_block(tokens, b)))


def test_per_layer_parameter_count():
    blk = init_vim_block(384, 16, 24, 4, np.random.default_rng(0))
    per_layer = count_params(blk)
    assert per_layer == 1_043_712
    assert abs(per_layer - 1.044e6) / 1.044e6 < 0.02


def test_parameter_count_affine_in_depth():
    counts = {}
    for depth in (1, 2, 5):
        params = init_backbone(384, depth, 16, 24, 4, np.random.default_rng(0))
        counts[depth] = count_params(params)
    slope = counts[2] - counts[1]
    assert counts[5] == counts[1] + 4 * slope
    assert slope == 1_043_712


def test_depth_difference_matches_published_totals():
    cfg8 = TrackerConfig(depth=8)
    cfg16 = TrackerConfig(depth=16)
    diff = count_params(init_model(cfg16)) - count_params(init_model(cfg8))
    assert abs(diff - (20.96e6 - 12.60e6)) / 8.36e6 < 0.02


def test_default_model_total_parameters():
    total = count_params(init_model(TrackerConfig()))
    assert abs(total - 29.3e6) / 29.3e6 < 0.10


def test_count_params_trivial_cases():
    lin = LinearParams(weight=np.zeros((4, 4), dtype=np.float32),
                       bias=np.zeros(4, dtype=np.float32))
    assert count_params(lin) == 20


def test_causal_conv_shifts_correctly():
    x = np.zeros((5, 1), dtype=np.float64)
    x[2, 0] = 1.0  # impulse at t=2
    conv = ConvParams(weight=np.array([[0.1, 0.2, 0.3, 0.4]]), bias=np.zeros(1))
    out = causal_conv(x, conv)
    # causal: response appears at t >= 2, last tap hits the impulse instant
    np.testing.assert_allclose(out[:, 0], [0, 0, 0.4, 0.3, 0.2])


def causal_conv_loop(x, conv):
    """Reference: every tap's product added to a zero accumulator in turn."""
    m, d = x.shape
    k = conv.weight.shape[1]
    xp = np.vstack([np.zeros((k - 1, d), dtype=x.dtype), x])
    out = np.zeros_like(x)
    for j in range(k):
        out += xp[j:j + m] * conv.weight[:, j]
    return out + conv.bias


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("m, k", [(384, 4), (64, 4), (3, 4), (1, 4), (50, 1), (50, 7)])
def test_causal_conv_equals_tap_loop_bitwise(dtype, m, k):
    rng = np.random.default_rng(m * 10 + k)
    x = rng.standard_normal((m, 2 * 768)).astype(dtype)[:, :768]  # vim_block's x view
    conv = ConvParams(weight=rng.standard_normal((768, k)).astype(dtype),
                      bias=rng.standard_normal(768).astype(dtype))
    np.testing.assert_array_equal(causal_conv(x, conv), causal_conv_loop(x, conv))


# -- workspace: bit-identical to the allocating code it replaced -------------

def _softplus_oracle(x):
    return np.maximum(x, 0) + np.log1p(np.exp(-np.abs(x)))


def _sigmoid_oracle(x):
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def _silu_oracle(x):
    return x * _sigmoid_oracle(x)


def _layer_norm_oracle(x, scale, shift, eps=1e-6):
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mean) / np.sqrt(var + eps) * scale + shift


def _vim_block_oracle(tokens, params):
    """vim_block as it was before the workspace."""
    h = _layer_norm_oracle(tokens, params.pre_norm.scale, params.pre_norm.shift)
    xz = h @ params.in_proj
    d_inner = params.d_inner
    x, z = xz[:, :d_inner], xz[:, d_inner:]
    y_fwd = unblocked_scan(_silu_oracle(causal_conv_loop(x, params.conv_fwd)), params.ssm_fwd)
    xr = np.ascontiguousarray(x[::-1])
    y_bwd = unblocked_scan(_silu_oracle(causal_conv_loop(xr, params.conv_bwd)), params.ssm_bwd)
    y = (y_fwd + y_bwd[::-1]) * _silu_oracle(z)
    return tokens + y @ params.out_proj


def _backbone_oracle(tokens, params):
    for blk in params.blocks:
        tokens = _vim_block_oracle(tokens, blk)
    tokens = _layer_norm_oracle(tokens, params.final_norm.scale, params.final_norm.shift)
    return tokens @ params.mlp.weight + params.mlp.bias


# (embed_dim, d_state, dt_rank): Vim-S and the small benchmark geometry.
WIDTHS = {"vim_s": (384, 16, 24), "small": (32, 16, 4)}


def _tokens(L, C, seed):
    return np.random.default_rng(seed).standard_normal((L, C)).astype(np.float32)


def _bitwise(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_ops_out_matches_allocating_formulas_bitwise(dtype):
    rng = np.random.default_rng(5)
    x = (rng.standard_normal((96, 40)) * 30).astype(dtype)
    x[0, :4] = [0.0, -0.0, 1e4, -1e4]
    scale = rng.standard_normal(40).astype(dtype)
    shift = rng.standard_normal(40).astype(dtype)
    for got, want in ((sigmoid(x), _sigmoid_oracle(x)),
                      (silu(x), _silu_oracle(x)),
                      (softplus(x), _softplus_oracle(x)),
                      (layer_norm(x, scale, shift), _layer_norm_oracle(x, scale, shift))):
        _bitwise(got, want)
    out = np.empty_like(x)
    for fn in (sigmoid, silu):
        assert fn(x, out=out) is out
        _bitwise(out, fn(x))
    assert softplus(x, out=out, scratch=np.empty_like(x)) is out
    _bitwise(out, _softplus_oracle(x))
    assert layer_norm(x, scale, shift, out=out) is out
    _bitwise(out, _layer_norm_oracle(x, scale, shift))


@pytest.mark.parametrize("L", [384, 128, 1024])
@pytest.mark.parametrize("width", sorted(WIDTHS))
def test_vim_block_matches_allocating_oracle_bitwise(width, L):
    C, n, r = WIDTHS[width]
    blk = init_vim_block(C, n, r, 4, np.random.default_rng(7))
    tokens = _tokens(L, C, L)
    ws = Workspace()
    out = np.empty_like(tokens)
    assert vim_block(tokens, blk, ws, out=out) is out
    _bitwise(out, _vim_block_oracle(tokens, blk))
    _bitwise(vim_block(tokens, blk), out)  # standalone call, own workspace


@pytest.mark.parametrize("width", sorted(WIDTHS))
def test_scan_matches_allocating_oracle_bitwise(width):
    C, n, r = WIDTHS[width]
    params = ssm.init_ssm_params(2 * C, n, r, np.random.default_rng(8))
    u = _tokens(384, 2 * C, 9)
    _bitwise(scan_forward_chunked(u, params), unblocked_scan(u, params))


def test_one_workspace_reused_across_lengths_and_widths():
    ws = Workspace()
    for width, L in (("vim_s", 1024), ("small", 128), ("vim_s", 128), ("small", 1024),
                     ("vim_s", 384)):
        C, n, r = WIDTHS[width]
        params = init_backbone(C, 2, n, r, 4, np.random.default_rng(C))
        tokens = _tokens(L, C, L + C)
        _bitwise(backbone(tokens, params, ws), _backbone_oracle(tokens, params))


def test_backbone_result_outlives_the_next_call():
    params = init_backbone(32, 2, 16, 4, 4, np.random.default_rng(2))
    ws = Workspace()
    first = backbone(_tokens(64, 32, 1), params, ws)
    kept = first.copy()
    backbone(_tokens(64, 32, 2), params, ws)
    _bitwise(first, kept)


def test_backbone_writes_its_result_to_out():
    params = init_backbone(32, 2, 16, 4, 4, np.random.default_rng(2))
    tokens = _tokens(64, 32, 1)
    buf = np.empty_like(tokens)
    assert backbone(tokens, params, Workspace(), out=buf) is buf
    _bitwise(buf, backbone(tokens, params))


def test_warm_backbone_call_allocates_little():
    # depth 2, L = C = 384 at Vim-S width. The allocating blocks peaked at
    # 12.9 MiB above the start; what remains is the result and small
    # per-token and per-channel arrays.
    C, n, r = WIDTHS["vim_s"]
    params = init_backbone(C, 2, n, r, 4, np.random.default_rng(3))
    tokens = _tokens(384, C, 4)
    ws = Workspace()
    backbone(tokens, params, ws)
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        backbone(tokens, params, ws)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - start <= 3 * 2 ** 20
