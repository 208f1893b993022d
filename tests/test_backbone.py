import numpy as np
import pytest

from evtrack.backbone import (BackboneParams, ConvParams, NormParams, LinearParams,
                              causal_conv, init_backbone, init_vim_block, vim_block,
                              backbone)
from evtrack.config import TrackerConfig
from evtrack.model import count_params, init_model
from evtrack.ops import layer_norm

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


def test_empty_stack_identity_final_stage():
    params = BackboneParams(blocks=[], final_norm=None, mlp=None)
    tokens = RNG.standard_normal((5, 8))
    np.testing.assert_array_equal(backbone(tokens, params), tokens)


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
    assert count_params(BackboneParams(blocks=[], final_norm=None, mlp=None)) == 0
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
