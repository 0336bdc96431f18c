"""Numerical hot kernels, vectorised in numpy.

The innermost loops of the package live here: the log of the auxiliary
factorization kernel ln[tanh(t/mu0)(1+mu0/t)], principal-branch complex
log-gamma (scipy.special.loggamma, Hare's algorithm), and the batched
Cauchy principal-value rule

    H(s) = PV int_0^inf ln_xi_star(t) / (t^2 - s^2) dt,   s > 0,

evaluated with a fixed composite Gauss-Legendre scheme (pole subtracted on
[0, 2s], the tail mapped to u = 2s/t).
"""

import math

import numpy as np
from scipy.special import loggamma

BACKEND = "numpy"

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)
_LN3 = math.log(3.0)

# principal-branch log-gamma, no pole guarding (see numerics.log_gamma)
log_gamma_raw = loggamma


def _ln_xi_star(x):
    # ln[tanh(x)(1+1/x)] for x = t/mu0; series branch avoids cancellation near 0
    out = np.empty_like(x)
    lo = x <= 1e-3
    hi = x >= 30.0
    mid = ~(lo | hi)
    if np.any(lo):
        xl = x[lo]
        r = xl * xl * (-1.0 / 3.0 + xl * xl * (2.0 / 15.0))  # tanh(x)/x - 1
        out[lo] = np.log1p(xl) + np.log1p(r)
    if np.any(hi):
        out[hi] = np.log1p(1.0 / x[hi])
    if np.any(mid):
        xm = x[mid]
        out[mid] = np.log(np.tanh(xm)) + np.log1p(1.0 / xm)
    return out


def _pv_edges_main(s, mu0):
    # panel edges in t on [0, 2s]: geometric chain over both scales plus
    # dyadic refinement toward the subtracted pole at t = s
    pts = [0.0, 2.0 * s]
    q = min(mu0, s) / 64.0
    while q < 2.0 * s and len(pts) < 160:
        pts.append(q)
        q *= 2.0
    for k in range(1, 6):
        pts += [s * (1.0 - 0.5 ** k), s * (1.0 + 0.5 ** k)]
    out = []
    for p in sorted(pts):
        if not out or p - out[-1] > 1e-12 * (p + s):
            out.append(p)
    return np.array(out)


def _pv_edges_tail(s, mu0):
    # panel edges in u on (0, 1] for t = 2s/u; dyadic chain deep enough to
    # resolve the kernel knee at t = mu0 (u = 2s/mu0) when s << mu0
    jmax = 24
    r = 2.0 * s / mu0
    if r < 1.0:
        jmax = max(24, min(160, int(-math.log(r) / math.log(2.0)) + 12))
    return np.concatenate(([0.0], np.ldexp(1.0, np.arange(-jmax, 1))))


def _gl_sum(f, edges):
    # composite GL12 of f over consecutive panels [edges[k], edges[k+1]]
    mid = 0.5 * (edges[1:] + edges[:-1])
    hw = 0.5 * (edges[1:] - edges[:-1])
    x = mid[:, None] + hw[:, None] * _GL_NODES[None, :]
    return float(np.dot(f(x) @ _GL_WEIGHTS, hw))


def ln_xi_star(t, mu0):
    """ln Xi_*(t) for t > 0 (elementwise)."""
    out = _ln_xi_star(np.atleast_1d(np.asarray(t, dtype=float)) / float(mu0))
    return out.reshape(np.shape(t)) if np.ndim(t) else float(out[0])


def pv_cauchy_batch(s, mu0):
    """H(s) = PV int_0^inf ln Xi_*(t)/(t^2-s^2) dt for an array of s > 0."""
    mu0 = float(mu0)
    a = np.atleast_1d(np.asarray(s, dtype=float)).ravel()
    out = np.empty(a.shape[0])
    for i, si in enumerate(a.tolist()):
        gs = float(_ln_xi_star(np.array([si / mu0]))[0])
        near = _gl_sum(lambda t: (_ln_xi_star(t / mu0) - gs) / ((t - si) * (t + si)),
                       _pv_edges_main(si, mu0))
        tail = _gl_sum(lambda u: 2.0 * _ln_xi_star(2.0 * si / u / mu0)
                       / (si * (4.0 - u * u)), _pv_edges_tail(si, mu0))
        out[i] = near - gs * _LN3 / (2.0 * si) + tail
    return out.reshape(np.shape(s)) if np.ndim(s) else float(out[0])
