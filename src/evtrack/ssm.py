"""Discretized selective-scan operator.

The continuous system h' = A h + B x, y = C h is discretized with a
zero-order hold:

    a_bar = exp(delta * a)
    b_bar = ((exp(delta * a) - 1) / a) * b

and run as the per-channel recurrence h_t = a_bar_t h_{t-1} + b_bar_t x_t,
y_t = sum_s c_t[s] h_t[:, s] + d_skip * x_t. Selection makes delta, B, C
functions of the current input token. A is diagonal per channel and kept
strictly negative through a = -exp(a_log).

The forward scan runs that recurrence over cache-sized blocks of tokens,
each seeded with the previous block's final state, so the per-token
coefficients and states stay in cache (the "keep the expanded state in fast
memory" idea of Mamba, Gu & Dao, arXiv 2312.00752). Blocks are laid out
state-major, (tokens, d_state, d_inner), so every elementwise pass and the
recurrence run along the wide d_inner axis, and the emission is one
(1 x d_state) @ (d_state x d_inner) product per token. The coefficients use
em1 = expm1(delta * a): a_bar = em1 + 1 and b_bar = em1 * (1/a) * b, with
1/a computed once per call. expm1 keeps full relative precision as
delta * a -> 0 (until delta * a is subnormal, below 1.2e-38 in float32), so
the scan needs no series branch there. An a so small that 1/a overflows
(a_log < -88 in float32) is rejected.
Blocking changes no arithmetic: the result is bit-identical to one
whole-length recurrence in the same layout, which the tests keep as the
reference.

`scan_backward` reruns the same blocks, keeping only each block's entry
state. Its own factor, _phi_prime, takes a series below SERIES_THRESHOLD.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ops import Workspace, sigmoid, softplus

# Below this |u| the closed form of _phi_prime cancels (relative error about
# 4 eps / u^2, 2e-8 at 1e-4 in float64); its Taylor series to u^17 is within
# float64 rounding there, and the closed form is from 1 on.
SERIES_THRESHOLD = 1.0
_PHI_PRIME_SERIES = tuple((k + 1) / math.factorial(k + 2) for k in reversed(range(18)))


@dataclass
class SSMParams:
    """Learned parameters of one selective-scan operator.

    a_log:   (d_inner, d_state); state matrix diagonal a = -exp(a_log) < 0
    d_skip:  (d_inner,) direct feedthrough gain
    x_proj:  (d_inner, dt_rank + 2*d_state) producing (delta-logit, B, C)
    dt_proj: (dt_rank, d_inner) plus dt_bias (d_inner,); delta = softplus(.)
    """

    a_log: np.ndarray
    d_skip: np.ndarray
    x_proj: np.ndarray
    dt_proj: np.ndarray
    dt_bias: np.ndarray

    def __post_init__(self):
        d, n = self.a_log.shape
        r = self.dt_proj.shape[0]
        if self.d_skip.shape != (d,):
            raise ValueError("d_skip must have d_inner entries")
        if self.x_proj.shape != (d, r + 2 * n):
            raise ValueError("x_proj must be d_inner x (dt_rank + 2*d_state)")
        if self.dt_proj.shape != (r, d) or self.dt_bias.shape != (d,):
            raise ValueError("dt_proj must be dt_rank x d_inner with a d_inner bias")

    @property
    def d_inner(self) -> int:
        return self.a_log.shape[0]

    @property
    def d_state(self) -> int:
        return self.a_log.shape[1]

    @property
    def dt_rank(self) -> int:
        return self.dt_proj.shape[0]


def init_ssm_params(d_inner: int, d_state: int, dt_rank: int,
                    rng: np.random.Generator, dtype=np.float32) -> SSMParams:
    """Random init: S4D-real diagonal for A, log-uniform time steps."""
    a_log = np.log(np.tile(np.arange(1, d_state + 1, dtype=np.float64), (d_inner, 1)))
    dt = np.exp(rng.uniform(np.log(1e-3), np.log(1e-1), size=d_inner))
    return SSMParams(
        a_log=a_log.astype(dtype),
        d_skip=np.ones(d_inner, dtype=dtype),
        x_proj=(rng.standard_normal((d_inner, dt_rank + 2 * d_state)) * 0.02).astype(dtype),
        dt_proj=(rng.standard_normal((dt_rank, d_inner)) * dt_rank ** -0.5).astype(dtype),
        dt_bias=np.log(np.expm1(dt)).astype(dtype),
    )


def _phi_prime(u: np.ndarray) -> np.ndarray:
    """d/du of (exp(u) - 1) / u. With u = delta * a, the a-derivative of
    b_bar = ((exp(u) - 1) / a) * B is delta^2 * _phi_prime(u) * B."""
    u = np.asarray(u)
    small = np.abs(u) < SERIES_THRESHOLD
    safe = np.where(small, 1.0, u)
    closed = (np.exp(safe) * (safe - 1.0) + 1.0) / (safe * safe)
    series = np.polyval(_PHI_PRIME_SERIES, u)
    return np.where(small, series, closed).astype(u.dtype)


def _check_input(u: np.ndarray, ws: Workspace) -> np.ndarray:
    u = np.asarray(u)
    if u.ndim != 2:
        raise ValueError("input must be L x d_inner")
    if not np.isfinite(u, out=ws.take("finite", u.shape, bool)).all():
        raise ValueError("non-finite input")
    return u


def _state_matrix(params: SSMParams, dtype) -> tuple[np.ndarray, np.ndarray]:
    """a = -exp(a_log) and 1/a, each transposed to (d_state, d_inner).

    Raises ValueError if 1/a overflows: a_log too small for the dtype.
    """
    a_t = np.ascontiguousarray(-np.exp(params.a_log.astype(dtype, copy=False)).T)
    with np.errstate(over="ignore", divide="ignore"):
        inv_a_t = 1.0 / a_t
    if not np.all(np.isfinite(inv_a_t)):
        raise ValueError("a_log too small for this dtype: 1/a overflows")
    return a_t, inv_a_t


def _selection(u: np.ndarray, params: SSMParams, ws: Workspace | None = None,
               scratch: np.ndarray | None = None):
    """Input-dependent (delta, B, C) for every token, vectorized over L.

    Every returned array is a view of a buffer of `ws` (a fresh Workspace
    if None). `scratch`, if given, is an (L, d_inner) buffer for softplus;
    without it softplus allocates one.
    """
    ws = Workspace() if ws is None else ws
    dtype = u.dtype
    L = u.shape[0]
    x_proj, dt_proj, dt_bias = (p.astype(dtype, copy=False)
                                for p in (params.x_proj, params.dt_proj, params.dt_bias))
    r, n, d = params.dt_rank, params.d_state, params.d_inner
    xdbl = np.matmul(u, x_proj, out=ws.take("scan.xdbl", (L, r + 2 * n), dtype))
    dt_logit = xdbl[:, :r]
    b_sel = xdbl[:, r:r + n]
    c_sel = xdbl[:, r + n:]
    pre = np.matmul(dt_logit, dt_proj, out=ws.take("scratch.0", (L, d), dtype))
    pre += dt_bias
    delta = softplus(pre, out=ws.take("scratch.1", (L, d), dtype), scratch=scratch)
    return dt_logit, b_sel, c_sel, pre, delta


def _coefficients_into(u_sl: np.ndarray, delta_sl: np.ndarray, b_sl: np.ndarray,
                       a_t: np.ndarray, inv_a_t: np.ndarray,
                       abar_out: np.ndarray, bx_out: np.ndarray) -> None:
    """Fill a_bar and bx = b_bar*x for a token slice, in place, state-major.

    a_t and inv_a_t are a and 1/a transposed to (d_state, d_inner); the
    outputs are (tokens, d_state, d_inner). With em1 = expm1(delta*a),
    a_bar = em1 + 1 and bx = em1 * (1/a) * B * x.
    """
    np.multiply(delta_sl[:, None, :], a_t, out=abar_out)  # delta*a for now
    np.expm1(abar_out, out=abar_out)
    np.multiply(abar_out, inv_a_t, out=bx_out)
    bx_out *= b_sl[:, :, None]
    bx_out *= u_sl[:, None, :]
    abar_out += 1.0


def _seeded_states(a_bar: np.ndarray, bx: np.ndarray, h: np.ndarray,
                   hs: np.ndarray) -> np.ndarray:
    """Fill hs[t] = a_bar[t] * hs[t-1] + bx[t], seeded with h as the state
    before hs[0]; returns the last state.

    h is read only by the first step, so it may alias a row of hs.
    """
    for t in range(a_bar.shape[0]):
        out = hs[t]
        np.multiply(h, a_bar[t], out=out)
        out += bx[t]
        h = out
    return h


# Per-array scratch budget for the blocked scan. The three live block arrays
# (a_bar, bx, states) then take 1.5 MiB, inside one core's 2 MiB L2. A sweep
# at d_inner 768, d_state 16, L 384, float32 (2-vCPU Xeon, 2 MiB L2 per core,
# medians of 21 interleaved rounds, in BENCH_scan_state_major.json) was flat
# from 192 to 512 KiB (17.8-19.5 ms) and slower above: 1 MiB 22.0 ms, 2 MiB
# 24.2 ms. At d_inner 64 it was flat up to 1 MiB and doubled at 2 MiB.
# 512 KiB is the largest flat budget, so it runs the fewest blocks.
_BLOCK_BYTES = 512 * 1024


def scan_forward_chunked(u: np.ndarray, params: SSMParams, ws: Workspace | None = None,
                         out: np.ndarray | None = None) -> np.ndarray:
    """Selective scan over an (L, d_inner) input; returns (L, d_inner).

    "Chunked" means cache-sized token blocks, each seeded with the previous
    one's final state: a block is as many tokens (at least one, at most L)
    as fit one (tokens, d_state, d_inner) array in _BLOCK_BYTES.

    Scratch comes from `ws` (a fresh Workspace if None); the result goes to
    `out` (a fresh array if None), which may not alias u.
    """
    ws = Workspace() if ws is None else ws
    u = _check_input(u, ws)
    L, d = u.shape
    dtype = u.dtype
    y = np.empty((L, d), dtype=dtype) if out is None else out
    # y is written only by the emission below, so it holds softplus's scratch.
    _, b_sel, c_sel, pre, delta = _selection(u, params, ws, scratch=y)
    a_t, inv_a_t = _state_matrix(params, dtype)
    n = params.d_state

    block = max(1, min(L, _BLOCK_BYTES // (d * n * dtype.itemsize)))
    abar_buf = ws.take("scan.abar", (block, n, d), dtype)
    bx_buf = ws.take("scan.bx", (block, n, d), dtype)
    hs_buf = ws.take("scan.hs", (block, n, d), dtype)

    h = np.zeros((n, d), dtype=dtype)
    for lo in range(0, L, block):
        m = min(block, L - lo)
        sl = slice(lo, lo + m)
        abar, bx, hs = abar_buf[:m], bx_buf[:m], hs_buf[:m]
        _coefficients_into(u[sl], delta[sl], b_sel[sl], a_t, inv_a_t, abar, bx)
        h = _seeded_states(abar, bx, h, hs)
        np.matmul(c_sel[sl, None, :], hs, out=y[sl, None, :])
    # pre is spent; it holds the skip term.
    y += np.multiply(u, params.d_skip.astype(dtype, copy=False), out=pre)
    return y


def scan_backward(u: np.ndarray, params: SSMParams,
                  dy: np.ndarray) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Reverse-mode gradients of scan_forward_chunked.

    Returns (dL/du, grads) where grads has one entry per SSMParams field.
    The states are the forward scan's, in its blocks: a forward sweep keeps
    only the state entering each block, and the reverse sweep rebuilds one
    block's states from it. The adjoint lam_t = dL/dh_t runs the same
    recurrence backwards, lam_t = a_bar_{t+1} lam_{t+1} + C_t dy_t. Sums over
    tokens run in one fixed order, so no gradient depends on the block size.
    """
    ws = Workspace()
    u = _check_input(u, ws)
    dy = np.asarray(dy, dtype=u.dtype)
    if dy.shape != u.shape:
        raise ValueError("cotangent shape mismatch")
    (L, d), n, r, dtype = u.shape, params.d_state, params.dt_rank, u.dtype
    d_skip, x_proj, dt_proj = (p.astype(dtype, copy=False)
                               for p in (params.d_skip, params.x_proj, params.dt_proj))
    a_t, inv_a_t = _state_matrix(params, dtype)
    dt_logit, b_sel, c_sel, pre, delta = _selection(u, params, ws)

    block = max(1, min(L, _BLOCK_BYTES // (d * n * dtype.itemsize)))
    starts = range(0, L, block)
    abar_buf, bx_buf, g_buf, lam_buf = (np.empty((block, n, d), dtype) for _ in range(4))
    hs_buf = np.empty((block + 1, n, d), dtype)
    entries = np.zeros((len(starts), n, d), dtype)  # the state entering each block

    def rebuild(k: int):
        """Block k's slice, a_bar and states, its entry state first."""
        sl = slice(starts[k], min(L, starts[k] + block))
        m = sl.stop - sl.start
        abar, hs = abar_buf[:m], hs_buf[:m + 1]
        _coefficients_into(u[sl], delta[sl], b_sel[sl], a_t, inv_a_t, abar, bx_buf[:m])
        hs[0] = entries[k]
        _seeded_states(abar, bx_buf[:m], hs[0], hs[1:])
        return sl, abar, hs

    for k in range(1, len(starts)):
        entries[k] = rebuild(k - 1)[2][-1]

    du = dy * d_skip
    d_delta = np.empty((L, d), dtype)
    d_xdbl = np.empty((L, r + 2 * n), dtype)  # dL/d(dt_logit, B, C)
    g_a = np.zeros((n, d), dtype)
    carry = np.zeros((n, d), dtype)  # a_bar lam of the token after the block
    for k in reversed(range(len(starts))):
        sl, abar, hs = rebuild(k)
        m = abar.shape[0]
        # lam, last token first: a_bar of the token after, times its lam, plus g.
        g = np.multiply(c_sel[sl, :, None], dy[sl, None, :], out=g_buf[:m])
        lam = lam_buf[:m]
        np.add(g[-1], carry, out=lam[-1])
        _seeded_states(abar[1:][::-1], g[:-1][::-1], lam[-1], lam[:-1][::-1])
        np.multiply(abar[0], lam[0], out=carry)

        delta_t, b_t = delta[sl, None, :], b_sel[sl, :, None]
        da = delta_t * a_t
        q = np.expm1(da) * inv_a_t  # b_bar / B
        d_abar, d_bbar = lam * hs[:-1], lam * u[sl, None, :]
        du[sl] += (lam * q * b_t).sum(axis=1)
        d_delta[sl] = ((d_abar * a_t + d_bbar * b_t) * abar).sum(axis=1)
        d_xdbl[sl, r:r + n] = (d_bbar * q).sum(axis=2)
        d_xdbl[sl, r + n:] = (hs[1:] * dy[sl, None, :]).sum(axis=2)
        g_a_block = d_abar * delta_t * abar + d_bbar * delta_t ** 2 * _phi_prime(da) * b_t
        for row in g_a_block[::-1]:  # token by token, last first
            g_a += row

    d_pre = d_delta * sigmoid(pre)
    d_xdbl[:, :r] = d_pre @ dt_proj.T
    du += d_xdbl @ x_proj.T
    grads = {"a_log": np.ascontiguousarray((g_a * a_t).T),  # through a = -exp(a_log)
             "d_skip": np.einsum("td,td->d", dy, u), "x_proj": u.T @ d_xdbl,
             "dt_proj": dt_logit.T @ d_pre, "dt_bias": d_pre.sum(axis=0)}
    return du, grads
