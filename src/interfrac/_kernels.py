"""Numerical hot kernels, vectorised in numpy.

The innermost loops of the package live here: the log of the auxiliary
factorization kernel ln[tanh(t/mu0)(1+mu0/t)], principal-branch complex
log-gamma (scipy.special.loggamma, Hare's algorithm), the scaled
exponential integral e^z E1(z) of the inclusion's pole transforms, and the
batched Cauchy principal-value rule

    H(s) = PV int_0^inf ln_xi_star(t) / (t^2 - s^2) dt,   s > 0,

evaluated with a fixed composite Gauss-Legendre scheme (pole subtracted on
[0, 2s], the tail mapped to u = 2s/t). The targets are evaluated in one
pass per block of _BLOCK: each keeps its own panels, padded to a common
count with zero-width panels, and is summed on its own, so its value is
bitwise that of a single-target call.

scaled_e1 picks its form per point from |z| and Re z alone (DLMF 6.6.2 and
6.9.1): the power series where |z| + Re z <= 4 and |z| < 38, which holds the
small |z| and the sector around the E1 cut, where the terms do not cancel
and the branch part 2 pi i e^z still counts; the continued fraction
everywhere else, evaluated backward from a depth that falls with |z| and
with the distance Re sqrt(z) = sqrt((|z| + Re z)/2) from the cut. Both run
as a fixed number of numpy passes over the whole batch, whatever its size,
and stay within 7e-15 relative of 30-digit values from |z| = 1e-6 to 1e5,
all around the cut.
"""

import bisect
import math

import numpy as np
from scipy.special import loggamma

BACKEND = "numpy"

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)
_LN3 = math.log(3.0)
# targets per pass of pv_cauchy_batch: its node arrays stay near 1e6 values
_BLOCK = 512

# principal-branch log-gamma, no pole guarding (kernel._gamma_ratio says why
# it needs none)
log_gamma_raw = loggamma

_EULER = 0.57721566490153286061
# 1/(k k!), the coefficients of the E1 power series in -z (0 at k = 0), in
# columns of _E1_BLOCK: column j holds the terms of (-z)^(16 j). Two blocks
# reach full precision up to |z| = 3.5, one more up to each further entry of
# _E1_SERIES_REACH (measured need: 31, 46, 59, 78, 90 and 103 terms)
_E1_BLOCK = 16
_E1_BLOCKS = np.array([0.0] + [1.0 / (k * math.factorial(k))
                               for k in range(1, 7 * _E1_BLOCK)]
                      ).reshape(-1, _E1_BLOCK).T.copy()
_E1_SERIES_REACH = (3.5, 7.0, 14.0, 22.0, 30.0)


def _ln_xi_star(x):
    # ln[tanh(x)(1+1/x)] for x = t/mu0; series branch avoids cancellation near 0
    out = np.empty_like(x)
    lo = x <= 1e-3
    hi = x >= 30.0
    mid = ~(lo | hi)
    if lo.any():
        xl = x[lo]
        r = xl * xl * (-1.0 / 3.0 + xl * xl * (2.0 / 15.0))  # tanh(x)/x - 1
        out[lo] = np.log1p(xl) + np.log1p(r)
    if hi.any():
        out[hi] = np.log1p(1.0 / x[hi])
    if mid.any():
        xm = x[mid]
        out[mid] = np.log(np.tanh(xm)) + np.log1p(1.0 / xm)
    return out


def _pv_edges_main(s, mu0):
    # panel edges in t on [0, 2s], one row per target s: geometric chain over
    # both scales (at most 158 doublings) plus dyadic refinement toward the
    # subtracted pole at t = s; an edge within 1e-12 (t + s) of the last edge
    # kept is dropped. Rows are padded with 2s; returns (edges, count per row)
    q = np.minimum(mu0, s) / 64.0
    n = np.minimum(158, np.ceil(np.log2(2.0 * s / q)) + 1)
    k = np.arange(int(n.max()))
    two_s = (2.0 * s)[:, None]
    chain = q[:, None] * 2.0 ** k
    chain[(k >= n[:, None]) | (chain >= two_s)] = np.inf
    half = 0.5 ** np.arange(1, 6)
    pts = np.hstack([np.zeros_like(two_s), two_s, chain,
                     s[:, None] * (1.0 - half), s[:, None] * (1.0 + half)])
    pts.sort(axis=1)
    last = pts[:, 0]
    for c in range(1, pts.shape[1]):
        p = pts[:, c]
        keep = p - last > 1e-12 * (p + s)
        last = np.where(keep, p, last)
        p[~keep] = np.inf
    pts.sort(axis=1)
    count = np.isfinite(pts).sum(axis=1)
    pts = pts[:, :count.max()]
    return np.where(np.isinf(pts), two_s, pts), count


def _pv_edges_tail(s, mu0):
    # panel edges in u on (0, 1] for t = 2s/u, one row per target s: a dyadic
    # chain deep enough to resolve the kernel knee at t = mu0 (u = 2s/mu0)
    # when s << mu0. Rows are padded with 1; returns (edges, count per row)
    r = np.minimum(2.0 * s / mu0, 1.0)
    jmax = np.clip((-np.log(r) / math.log(2.0)).astype(int) + 12, 24, 160)
    k = np.arange(jmax.max() + 1)
    chain = np.ldexp(1.0, np.minimum(k - jmax[:, None], 0))
    return np.hstack([np.zeros((s.size, 1)), chain]), jmax + 2


def _gl_rows(f, edges, count):
    # composite GL12 of f over the panels [edges[i, k], edges[i, k+1]],
    # k < count[i] - 1, of each row i. f is evaluated on all rows at once;
    # each row is then summed by the same two BLAS calls as on its own
    # (a stacked sum reorders the additions), so that a row's value does not
    # depend on the rows beside it or on the padding
    mid = 0.5 * (edges[:, 1:] + edges[:, :-1])
    hw = 0.5 * (edges[:, 1:] - edges[:, :-1])
    fx = f(mid[:, :, None] + hw[:, :, None] * _GL_NODES)
    return np.array([float(np.dot(fx[i, :m] @ _GL_WEIGHTS, hw[i, :m]))
                     for i, m in enumerate((count - 1).tolist())])


def _pv_block(s, mu0):
    # H at the targets s (1-d), all panels of all targets in one pass
    col = s[:, None, None]
    gs = _ln_xi_star(s / mu0)
    gcol = gs[:, None, None]
    near = _gl_rows(lambda t: (_ln_xi_star(t / mu0) - gcol) / ((t - col) * (t + col)),
                    *_pv_edges_main(s, mu0))
    tail = _gl_rows(lambda u: 2.0 * _ln_xi_star(2.0 * col / u / mu0)
                    / (col * (4.0 - u * u)), *_pv_edges_tail(s, mu0))
    return near - gs * _LN3 / (2.0 * s) + tail


def ln_xi_star(t, mu0):
    """ln Xi_*(t) for t > 0 (elementwise)."""
    out = _ln_xi_star(np.atleast_1d(np.asarray(t, dtype=float)) / float(mu0))
    return out.reshape(np.shape(t)) if np.ndim(t) else float(out[0])


def pv_cauchy_batch(s, mu0):
    """H(s) = PV int_0^inf ln Xi_*(t)/(t^2-s^2) dt for an array of s > 0,
    evaluated _BLOCK targets per pass."""
    mu0 = float(mu0)
    a = np.atleast_1d(np.asarray(s, dtype=float)).ravel()
    out = np.empty(a.shape[0])
    for lo in range(0, a.shape[0], _BLOCK):
        out[lo:lo + _BLOCK] = _pv_block(a[lo:lo + _BLOCK], mu0)
    return out.reshape(np.shape(s)) if np.ndim(s) else float(out[0])


def _e1_series(z, r_max):
    # e^z (-gamma - ln z - sum_k (-z)^k/(k k!)) with the sum in blocks of
    # _E1_BLOCK terms: Horner in -z over the columns of all blocks at once,
    # then Horner in (-z)^16 over the blocks
    blocks = 2 + bisect.bisect_left(_E1_SERIES_REACH, r_max)
    coef = _E1_BLOCKS[:, :blocks]
    x = -z
    part = np.ones((z.size, 1), dtype=complex) * coef[-1]
    for c in coef[-2::-1]:
        part *= x[:, None]
        part += c
    y = x * x
    for _ in range(3):
        y *= y
    acc = part[:, -1]
    for j in range(blocks - 2, -1, -1):
        acc = acc * y + part[:, j]
    return np.exp(z) * (-_EULER - np.log(z) - acc)


def _e1_fraction(z, r, edge):
    # 1/(z+1- 1/(z+3- 4/(z+5- ...))) to a depth per point: below |z| = 38 the
    # points lie off the series' sector, Re sqrt(z) > sqrt(2), and the depth
    # follows that distance (at most 49); from 38 on, 10 levels or fewer, as
    # deeper ones lose digits near the cut. The points are sorted by depth so
    # that each level updates one contiguous tail of the array.
    near = np.minimum(44.0 / np.maximum(np.sqrt(0.5 * edge) - 0.5, 0.9),
                      52.0 - 1.1 * r)
    depth = np.ceil(np.where(r < 38.0, near, np.minimum(10.0, 2.0 + 300.0 / r)))
    order = np.argsort(depth, kind="stable")
    zs = z[order]
    depth = depth[order].astype(int)
    t = zs + (2 * depth + 1)
    first = np.searchsorted(depth, np.arange(depth[-1] + 1)).tolist()
    for k in range(depth[-1], 0, -1):
        tail = t[first[k]:]
        np.divide(-k * k, tail, out=tail)
        tail += zs[first[k]:]
        tail += 2 * k - 1
    out = np.empty_like(z)
    out[order] = 1.0 / t
    return out


def scaled_e1(z):
    """e^z E1(z) (principal branch) for complex z != 0, any shape. On the
    negative real axis the sign of the imaginary part, zero included, picks
    the side of the cut, as for np.log."""
    z = np.asarray(z, dtype=complex)
    flat = z.ravel()
    r = np.abs(flat)
    edge = r + flat.real
    series = (edge <= 4.0) & (r < 38.0)
    out = np.empty_like(flat)
    # the term count follows the largest |z| it serves: two blocks serve
    # |z| <= 3.5, most of the points, and the rest of the sector goes apart
    two = r <= _E1_SERIES_REACH[0]
    for part in (series & two, series & ~two):
        if part.any():
            out[part] = _e1_series(flat[part], float(r[part].max()))
    rest = ~series
    if rest.any():
        out[rest] = _e1_fraction(flat[rest], r[rest], edge[rest])
    return out.reshape(z.shape)
