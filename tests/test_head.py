import numpy as np
import pytest

from evtrack.events import RegionPatch
from evtrack.head import (MIN_BOX_SIDE, ConvBNParams, HeadOutputs, _batch_norm, _im2col,
                          conv2d_same, decode_bbox, head_forward, init_head, tokens_to_map)
from evtrack.ops import sigmoid

RNG = np.random.default_rng(0)
FRAME = (1024, 1024)  # (width, height): larger than any box these tests decode


def identity_patch(size=256, rf=1.0, center=None):
    if center is None:
        center = (size / (2 * rf), size / (2 * rf))
    return RegionPatch(data=np.zeros((3, size, size), dtype=np.float32),
                       resize_factor=rf, crop_center=center)


def make_outputs(score=None, offset=None, size=None, side=16):
    if score is None:
        score = np.full((side, side), 0.5)
    if offset is None:
        offset = np.full((2, side, side), 0.5)
    if size is None:
        size = np.full((2, side, side), 0.25)
    return HeadOutputs(score=score, offset=offset, size=size)


class TestHeadForward:
    def test_zero_network_gives_half_score(self):
        # The size bias alone is left: sizes are then 1/search_context, which
        # decodes to a box of the search crop's own box scale.
        for search_context, size in ((4.0, 0.25), (1.5, 2 / 3), (1.0, 1 - 1e-6)):
            params = init_head(16, search_context, RNG)
            for branch in (params.score, params.offset, params.size):
                for stage in branch.stages:
                    stage.conv_w[:] = 0
                branch.final_w[:] = 0
            params.score.final_b[:] = params.offset.final_b[:] = 0
            tokens = RNG.standard_normal((64, 16)).astype(np.float32)  # 8x8 map
            out = head_forward(tokens, params)
            np.testing.assert_allclose(out.score, 0.5)
            np.testing.assert_allclose(out.offset, 0.5)
            np.testing.assert_allclose(out.size, size, rtol=1e-6)

    def test_default_spatial_size(self):
        params = init_head(32, 4.0, np.random.default_rng(1))
        tokens = RNG.standard_normal((256, 32)).astype(np.float32)
        out = head_forward(tokens, params)
        assert out.score.shape == (16, 16)
        assert out.offset.shape == (2, 16, 16)
        assert out.size.shape == (2, 16, 16)

    def test_output_ranges(self):
        params = init_head(16, 4.0, np.random.default_rng(2))
        tokens = (10 * RNG.standard_normal((64, 16))).astype(np.float32)
        out = head_forward(tokens, params)
        assert np.all(out.score > 0) and np.all(out.score < 1)
        assert np.all(out.offset >= 0) and np.all(out.offset < 1)
        assert np.all(out.size > 0) and np.all(out.size <= 1)

    def test_batch_norm_identity_configuration(self):
        x = RNG.standard_normal((4, 8, 8)).astype(np.float32)
        stage = ConvBNParams(
            conv_w=np.zeros((4, 4, 3, 3), dtype=np.float32),
            bn_scale=np.ones(4, dtype=np.float32),
            bn_shift=np.zeros(4, dtype=np.float32),
            bn_mean=np.zeros(4, dtype=np.float32),
            bn_var=np.ones(4, dtype=np.float32),
        )
        for c in range(4):
            stage.conv_w[c, c, 1, 1] = 1.0  # identity convolution
        np.testing.assert_allclose(_batch_norm(conv2d_same(x, stage.conv_w), stage),
                                   x, rtol=1e-4, atol=1e-5)

    def test_non_square_token_count_rejected(self):
        params = init_head(16, 4.0, np.random.default_rng(3))
        with pytest.raises(ValueError, match="square"):
            head_forward(RNG.standard_normal((60, 16)), params)

    def test_tokens_to_map_row_major(self):
        tokens = np.arange(8, dtype=np.float64).reshape(4, 2)
        fmap = tokens_to_map(tokens)
        assert fmap.shape == (2, 2, 2)
        # token index i sits at (row i//2, col i%2)
        np.testing.assert_array_equal(fmap[0], [[0, 2], [4, 6]])

    def test_conv2d_matches_direct_computation(self):
        x = RNG.standard_normal((2, 5, 5)).astype(np.float64)
        w = RNG.standard_normal((3, 2, 3, 3)).astype(np.float64)
        out = conv2d_same(x, w)
        xp = np.pad(x, ((0, 0), (1, 1), (1, 1)))
        for co in range(3):
            for i in range(5):
                for j in range(5):
                    ref = np.sum(w[co] * xp[:, i:i + 3, j:j + 3])
                    assert out[co, i, j] == pytest.approx(ref, rel=1e-10)


def im2col_loop(x, kh, kw):
    """Reference: one column per (channel, dy, dx), copied in turn."""
    c_in, h, wd = x.shape
    xp = np.zeros((c_in, h + kh - 1, wd + kw - 1), dtype=x.dtype)
    xp[:, kh // 2:kh // 2 + h, kw // 2:kw // 2 + wd] = x
    cols = np.empty((h * wd, c_in * kh * kw), dtype=x.dtype)
    idx = 0
    for c in range(c_in):
        for dy in range(kh):
            for dx in range(kw):
                cols[:, idx] = xp[c, dy:dy + h, dx:dx + wd].reshape(-1)
                idx += 1
    return cols


def branch_reference(fmap, branch):
    """One branch run on its own, every stage through conv2d_same."""
    x = fmap
    for stage in branch.stages:
        x = np.maximum(_batch_norm(conv2d_same(x, stage.conv_w), stage), 0.0)
    return sigmoid(conv2d_same(x, branch.final_w) + branch.final_b[:, None, None])


class TestIm2col:
    """The strided im2col equals the column-by-column copy bit for bit."""

    @pytest.mark.parametrize("c_in, c_out, side, k", [
        (384, 192, 16, 3),  # first Vim-S head stage
        (48, 2, 16, 3),     # last Vim-S head stage
        (8, 4, 7, 1),
        (6, 3, 9, 5),
    ])
    def test_equals_loop(self, c_in, c_out, side, k):
        rng = np.random.default_rng(c_in + k)
        x = rng.standard_normal((c_in, side, side)).astype(np.float32)
        w = rng.standard_normal((c_out, c_in, k, k)).astype(np.float32)
        cols = _im2col(x, k, k)
        ref = im2col_loop(x, k, k)
        np.testing.assert_array_equal(cols, ref)
        expected = (ref @ w.reshape(c_out, -1).T).T.reshape(c_out, side, side)
        np.testing.assert_array_equal(conv2d_same(x, w), expected)

    @pytest.mark.parametrize("kh, kw", [(3, 1), (1, 5), (2, 4)])
    def test_token_map_and_rectangular_kernels_equal_the_loop(self, kh, kw):
        """On the transposed view tokens_to_map gives, and for even and
        unequal kernel sides, the columns match the column-by-column copy."""
        tokens = np.random.default_rng(kh * 7 + kw).standard_normal((36, 5)).astype(np.float32)
        x = tokens_to_map(tokens)
        np.testing.assert_array_equal(_im2col(x, kh, kw), im2col_loop(x, kh, kw))

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ValueError, match="channel"):
            conv2d_same(np.zeros((3, 4, 4)), np.zeros((2, 4, 3, 3)))

    def test_shared_first_stage_equals_separate_branches(self):
        params = init_head(384, 4.0, np.random.default_rng(5))
        for branch in (params.score, params.offset, params.size):
            branch.final_b[:] = np.random.default_rng(6).standard_normal(branch.final_b.shape)
        tokens = np.random.default_rng(7).standard_normal((256, 384)).astype(np.float32)
        out = head_forward(tokens, params)
        fmap = tokens_to_map(tokens)
        np.testing.assert_array_equal(out.score, branch_reference(fmap, params.score)[0])
        np.testing.assert_array_equal(out.offset, branch_reference(fmap, params.offset))
        np.testing.assert_array_equal(out.size, branch_reference(fmap, params.size))


class TestDecodeBBox:
    def test_plugin_arithmetic(self):
        score = np.zeros((16, 16))
        score[8, 8] = 1.0
        box = decode_bbox(make_outputs(score=score), identity_patch(), *FRAME)
        assert (box.cx, box.cy) == (136.0, 136.0)
        assert (box.w, box.h) == (64.0, 64.0)

    def test_uniform_score_tie_breaks_at_origin(self):
        box = decode_bbox(make_outputs(), identity_patch(), *FRAME)
        assert (box.cx, box.cy) == (8.0, 8.0)  # cell (0,0), offset 0.5

    def test_identity_geometry_passthrough(self):
        score = np.zeros((16, 16))
        score[3, 12] = 1.0
        out = make_outputs(score=score)
        box = decode_bbox(out, identity_patch(), *FRAME)
        assert box.cx == (12 + 0.5) * 16 and box.cy == (3 + 0.5) * 16

    def test_monotone_transform_invariance(self):
        score = RNG.random((16, 16))
        out1 = make_outputs(score=score)
        out2 = make_outputs(score=0.1 + 0.5 * score ** 3)  # strictly monotone
        patch = identity_patch()
        assert decode_bbox(out1, patch, *FRAME) == decode_bbox(out2, patch, *FRAME)

    def test_center_inside_patch_and_size_bounds(self):
        rng = np.random.default_rng(4)
        patch = identity_patch()
        for _ in range(50):
            out = make_outputs(score=rng.random((16, 16)),
                               offset=rng.random((2, 16, 16)),
                               size=np.clip(rng.random((2, 16, 16)), 1e-6, 1.0))
            box = decode_bbox(out, patch, *FRAME)
            assert 0 <= box.cx < 256 and 0 <= box.cy < 256
            assert 0 < box.w <= 256 and 0 < box.h <= 256

    def test_resize_factor_back_mapping(self):
        score = np.zeros((16, 16))
        score[8, 8] = 1.0
        # crop of side 128 centered at (100, 60): rf = 2
        patch = RegionPatch(data=np.zeros((3, 256, 256), dtype=np.float32),
                            resize_factor=2.0, crop_center=(100.0, 60.0))
        box = decode_bbox(make_outputs(score=score), patch, *FRAME)
        assert box.cx == 100 - 64 + 136 / 2.0
        assert box.w == 64 / 2.0

    def test_box_bounded_to_frame(self):
        # A crop 128000 px wide centred off a 240 x 180 frame: a size map of 0
        # collapses to MIN_BOX_SIDE, one of 1 spans the frame, and the centre
        # lands on the frame's nearest pixel.
        score = np.zeros((16, 16))
        score[8, 8] = 1.0
        patch = RegionPatch(data=np.zeros((3, 256, 256), dtype=np.float32),
                            resize_factor=2e-3, crop_center=(-50.0, 500.0))
        for size, sides in ((0.0, (MIN_BOX_SIDE, MIN_BOX_SIDE)), (1.0, (240.0, 180.0))):
            box = decode_bbox(make_outputs(score=score, size=np.full((2, 16, 16), size)),
                              patch, 240, 180)
            assert (box.cx, box.cy, (box.w, box.h)) == (239.0, 179.0, sides)
