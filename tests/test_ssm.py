import time

import numpy as np
import pytest

from evtrack import ssm
from evtrack.ops import Workspace
from evtrack.ssm import (_coefficients_into, _seeded_states, init_ssm_params,
                         scan_forward_chunked)

from _utils import unblocked_scan


def _sequential_oracle(u, params):
    """Plain-python recurrence in extended precision."""
    ld = np.longdouble
    a = -np.exp(params.a_log.astype(ld))
    L, d = u.shape
    r, n = params.dt_rank, params.d_state
    y = np.zeros((L, d), dtype=ld)
    h = np.zeros((d, n), dtype=ld)
    for t in range(L):
        xdbl = u[t].astype(ld) @ params.x_proj.astype(ld)
        pre = xdbl[:r] @ params.dt_proj.astype(ld) + params.dt_bias.astype(ld)
        delta = np.log1p(np.exp(pre))
        b_sel, c_sel = xdbl[r:r + n], xdbl[r + n:]
        da = delta[:, None] * a
        h = np.exp(da) * h + (np.expm1(da) / a) * b_sel[None, :] * u[t].astype(ld)[:, None]
        y[t] = h @ c_sel + params.d_skip.astype(ld) * u[t]
    return y.astype(np.float64)


def block_tokens(d_inner, d_state, dtype):
    """Tokens per cache block of scan_forward_chunked at this width."""
    return ssm._BLOCK_BYTES // (d_inner * d_state * np.dtype(dtype).itemsize)


def rel_err(y, ref):
    scale = max(float(np.max(np.abs(ref))), 1e-300)
    return float(np.max(np.abs(y - ref))) / scale


class TestDiscretize:
    """Zero-order-hold coefficients: the scan's a_bar."""

    def test_a_bar_in_unit_interval(self):
        rng = np.random.default_rng(1)
        a_t = -np.exp(rng.standard_normal((1, 200)))
        delta = np.exp(rng.uniform(-8, 2, (1, 200)))
        a_bar, bx = np.empty((2, 1, 1, 200))
        _coefficients_into(np.ones((1, 200)), delta, np.ones((1, 1)), a_t, 1.0 / a_t,
                           a_bar, bx)
        # a_bar = expm1(delta a) + 1 rounds to 0 once exp(delta a) < eps / 2
        # (delta a < -37 here), so 0 is in the range.
        assert np.all(a_bar >= 0) and np.all(a_bar < 1)
        np.testing.assert_allclose(a_bar[:, 0], np.exp(delta * a_t), rtol=0, atol=4.5e-16)


class TestScanForward:
    def test_prefix_sum_case_integer_exact(self):
        rng = np.random.default_rng(2)
        u = rng.integers(-9, 10, size=(64, 3)).astype(np.float64)
        hs = np.empty((64, 3, 1))
        last = _seeded_states(np.ones((64, 3, 1)), u[:, :, None], np.zeros((3, 1)), hs)
        np.testing.assert_array_equal(hs[:, :, 0], np.cumsum(u, axis=0))
        np.testing.assert_array_equal(last, hs[-1])

    def test_forgetting_limit_is_memoryless(self):
        # a_log large -> a_bar ~ 0 -> y_t depends on u_t only
        rng = np.random.default_rng(3)
        params = init_ssm_params(3, 2, 2, rng, np.float64)
        params.a_log[:] = 8.0  # a = -e^8, a_bar = exp(-e^8 * delta) ~ 0
        u1 = rng.standard_normal((10, 3))
        u2 = u1.copy()
        u2[:5] = rng.standard_normal((5, 3))  # change only the past
        y1 = scan_forward_chunked(u1, params)
        y2 = scan_forward_chunked(u2, params)
        np.testing.assert_allclose(y1[6:], y2[6:], atol=1e-12)

    def test_matches_extended_precision_oracle(self):
        rng = np.random.default_rng(4)
        params = init_ssm_params(64, 16, 4, rng, np.float64)
        length = 2 * block_tokens(64, 16, np.float64) + 37  # three blocks
        u = rng.standard_normal((length, 64))
        assert rel_err(scan_forward_chunked(u, params), _sequential_oracle(u, params)) < 1e-6

    @staticmethod
    def vim_s_params(rng, dtype):
        """Vim-S width with a random A per channel and state: init_ssm_params
        gives every channel the same A row, which would hide a transposed A."""
        params = init_ssm_params(768, 16, 24, rng, dtype)
        params.a_log[:] = rng.uniform(np.log(0.05), np.log(20.0), params.a_log.shape)
        return params

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_oracle_at_vim_s_width(self, dtype):
        rng = np.random.default_rng(12)
        params = self.vim_s_params(rng, dtype)
        length = 3 * block_tokens(768, 16, dtype) + 3  # three blocks and a ragged tail
        u = rng.standard_normal((length, 768)).astype(dtype)
        assert rel_err(scan_forward_chunked(u, params), _sequential_oracle(u, params)) < 1e-6

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_oracle_for_tiny_steps(self, dtype):
        # Nearly every |delta*a| < 1e-4, where exp(u) - 1 cancels. With no
        # skip term and positive B, C and x, y is the state emission alone
        # and sums without cancellation, so the error seen is the
        # discretization's.
        rng = np.random.default_rng(13)
        params = self.vim_s_params(rng, dtype)
        params.dt_bias[:] = np.log(np.expm1(1e-6))
        params.d_skip[:] = 0.0
        params.x_proj[:, params.dt_rank:] = np.abs(params.x_proj[:, params.dt_rank:])
        length = 3 * block_tokens(768, 16, dtype) + 3
        u = np.abs(rng.standard_normal((length, 768))).astype(dtype)
        delta = ssm._selection(u, params, Workspace(), np.empty_like(u))[-1]
        assert np.mean(np.abs(delta[:, :, None] * np.exp(params.a_log)) < 1e-4) > 0.9
        assert rel_err(scan_forward_chunked(u, params), _sequential_oracle(u, params)) < 1e-6

    def test_linear_in_input_with_fixed_coefficients(self):
        rng = np.random.default_rng(5)
        L, d, n = 20, 3, 4
        a_bar = rng.uniform(0.1, 0.99, (L, d, n))
        b_bar = rng.standard_normal((L, d, n))
        h0 = np.zeros((d, n))
        u = rng.standard_normal((L, d))

        def run(uu):
            hs = np.empty((L, d, n))
            _seeded_states(a_bar, b_bar * uu[:, :, None], h0, hs)
            return hs

        np.testing.assert_allclose(run(3.5 * u), 3.5 * run(u), rtol=1e-12)

    def test_a_too_small_for_reciprocal_rejected(self):
        # a = -exp(-100) is 0 in float32, so 1/a has no finite value
        params = init_ssm_params(2, 2, 1, np.random.default_rng(0))
        params.a_log[0, 1] = -100.0
        u = np.ones((4, 2), dtype=np.float32)
        with pytest.raises(ValueError, match="a_log"):
            scan_forward_chunked(u, params)

    def test_non_finite_input_rejected(self):
        params = init_ssm_params(2, 2, 1, np.random.default_rng(0))
        bad = np.ones((4, 2))
        bad[1, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            scan_forward_chunked(bad, params)


class TestScanChunked:
    """The cache-blocked scan equals the whole-length reference bit for bit."""

    @staticmethod
    def assert_blocked_equals_reference(rng, d_inner, d_state, dtype, lengths):
        params = init_ssm_params(d_inner, d_state, 4, rng, dtype)
        for length in lengths:
            u = rng.standard_normal((length, d_inner)).astype(dtype)
            np.testing.assert_array_equal(scan_forward_chunked(u, params),
                                          unblocked_scan(u, params), err_msg=str(length))

    def test_single_chunk_bitwise_equal(self):
        rng = np.random.default_rng(6)
        for dtype in (np.float32, np.float64):
            block = block_tokens(64, 16, dtype)
            self.assert_blocked_equals_reference(rng, 64, 16, dtype, (1, block - 1, block))

    def test_chunk_one_matches(self, monkeypatch):
        # A token wider than the budget still gets a block of one token.
        monkeypatch.setattr(ssm, "_BLOCK_BYTES", 1)
        self.assert_blocked_equals_reference(np.random.default_rng(7), 4, 4, np.float64,
                                             (1, 2, 50))

    def test_long_sequence_float32(self):
        block = block_tokens(64, 16, np.float32)
        self.assert_blocked_equals_reference(np.random.default_rng(8), 64, 16, np.float32,
                                             (block + 1, 2 * block + 37))

    def test_many_chunk_sizes_float64(self, monkeypatch):
        block = block_tokens(64, 16, np.float64)
        rng = np.random.default_rng(9)
        self.assert_blocked_equals_reference(rng, 64, 16, np.float64,
                                             (block + 1, 2 * block + 37))
        for tokens in (2, 7, 16, 100, 517):  # 517 tokens: ragged tail on purpose
            monkeypatch.setattr(ssm, "_BLOCK_BYTES", tokens * 6 * 8 * 8)
            self.assert_blocked_equals_reference(rng, 6, 8, np.float64, (517,))


def _best_of(fns, repeats: int) -> list[float]:
    """Best wall time of each function over `repeats` rounds. Each round runs
    every function once, so a change in host speed hits all of them alike."""
    best = [np.inf] * len(fns)
    for _ in range(repeats):
        for i, fn in enumerate(fns):
            t0 = time.perf_counter()
            fn()
            best[i] = min(best[i], time.perf_counter() - t0)
    return best


def test_scan_blocking_no_regression():
    """Cache blocking must not make the scan slower than the whole-length
    reference at a Vim-S-like width (d_inner 384, d_state 16, L 1024)."""
    rng = np.random.default_rng(10)
    params = init_ssm_params(384, 16, 24, rng, np.float32)
    u = rng.standard_normal((1024, 384)).astype(np.float32)
    unblocked_scan(u, params)  # warm up caches and BLAS threads
    t_ref, t_blk = _best_of([lambda: unblocked_scan(u, params),
                             lambda: scan_forward_chunked(u, params)], 5)
    print(f"blocked scan speed-up {t_ref / t_blk:.2f}x")  # shown by pytest -rP
    assert t_ref / t_blk >= 1.0, f"blocked scan slower: {t_ref / t_blk:.2f}x"

