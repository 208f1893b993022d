import numpy as np
import pytest

from evtrack.events import RegionPatch
from evtrack.tokenizer import PatchEmbedParams, init_patch_embed, patch_embed, patchify


def params(patch=16, dim=8):
    return init_patch_embed(patch, dim, 128, 256, np.random.default_rng(1))


def region(side, seed=0):
    data = np.random.default_rng(seed).random((3, side, side)).astype(np.float32)
    return RegionPatch(data=data, resize_factor=1.0, crop_center=(side / 2, side / 2))


def test_token_counts_for_crop_sizes():
    p = params()
    assert patch_embed(region(128), p).shape == (64, 8)
    assert patch_embed(region(256), p).shape == (256, 8)


def test_zero_patch_zero_bias_gives_zero_tokens():
    p = params()
    patch = RegionPatch(data=np.zeros((3, 128, 128), dtype=np.float32),
                        resize_factor=1.0, crop_center=(64, 64))
    assert np.all(patch_embed(patch, p) == 0)


def test_patch_embed_linear_in_input():
    p = params()
    a, b = region(128, 1), region(128, 2)
    mix = RegionPatch(data=(0.3 * a.data + 0.7 * b.data), resize_factor=1.0,
                      crop_center=(64, 64))
    lhs = patch_embed(mix, p) - p.bias
    rhs = 0.3 * (patch_embed(a, p) - p.bias) + 0.7 * (patch_embed(b, p) - p.bias)
    np.testing.assert_allclose(lhs, rhs, atol=1e-4)


def test_patchify_layout_channel_major_row_major():
    # 3-channel 4x4 image, P=2: token 1 is the top-right patch; its flattening
    # is all of channel 0 (row-major), then channel 1, then channel 2.
    data = np.arange(3 * 4 * 4, dtype=np.float32).reshape(3, 4, 4)
    flat = patchify(data, 2)
    assert flat.shape == (4, 12)
    top_right = flat[1]
    expected = np.concatenate([data[c, 0:2, 2:4].reshape(-1) for c in range(3)])
    np.testing.assert_array_equal(top_right, expected)


def test_indivisible_side_rejected():
    p = params(patch=16)
    with pytest.raises(ValueError):
        patch_embed(region(100), p)


def test_embedding_into_out_equals_a_fresh_embedding():
    # The tracker embeds each search crop straight into its input array's
    # last rows; that must give the very bits of a fresh embedding.
    p = params(dim=8)
    buffer = np.full((320, 8), np.nan, dtype=np.float32)
    rows = buffer[64:]
    assert patch_embed(region(256), p, out=rows) is rows
    np.testing.assert_array_equal(rows, patch_embed(region(256), p))
    assert np.isnan(buffer[:64]).all()
    with pytest.raises(ValueError):
        patch_embed(region(256), p, out=buffer[:64])  # 64 rows for 256 tokens


def test_token_count_formula_other_patch_size():
    p = PatchEmbedParams(
        projection=np.zeros((3 * 8 * 8, 4), dtype=np.float32),
        bias=np.zeros(4, dtype=np.float32),
        pos_embed_template=np.zeros((256, 4), dtype=np.float32),
        pos_embed_search=np.zeros((1024, 4), dtype=np.float32),
        patch_size=8,
    )
    assert patch_embed(region(64), p).shape[0] == 64  # (64/8)^2
