"""Reusable numerical kernels: adaptive panel quadrature, the head/mid split
of a half-line spectral integral (half_line), oscillatory and algebraic
tail closures for half-line integrals, and principal-branch complex
log-gamma.

Integrand callables are expected to accept numpy arrays (scalar-only
callables are wrapped transparently). All routines are pure functions of
their arguments and safe to call concurrently.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import DomainError, NonConvergence, NonFiniteSample, PoleError

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and budgets shared by every quadrature-facing operation."""

    rel_tol: float = 1e-8
    abs_tol: float = 1e-12
    max_subdivisions: int = 4000
    truncation_radius: float = 1e4

    def __post_init__(self):
        if not self.rel_tol > 0:
            raise DomainError("rel_tol must be > 0")
        if self.abs_tol < 0:
            raise DomainError("abs_tol must be >= 0")
        if self.max_subdivisions < 1:
            raise DomainError("max_subdivisions must be >= 1")
        if not self.truncation_radius > 0:
            raise DomainError("truncation_radius must be > 0")

    def tolerance(self, magnitude):
        return max(self.abs_tol, self.rel_tol * abs(magnitude))


def _vectorized(f):
    def call(x):
        try:
            v = np.asarray(f(x), dtype=complex)
            if v.shape[:x.ndim] == x.shape:
                return v
        except (TypeError, ValueError):
            pass
        return np.array([complex(f(float(t))) for t in x])
    return call


def _panel_values(fv, a, b):
    """GL12 values on panels [a_i, b_i], one batched integrand call."""
    mid = 0.5 * (a + b)
    hw = 0.5 * (b - a)
    nodes = (mid[:, None] + hw[:, None] * _GL_NODES[None, :]).ravel()
    vals = fv(nodes).reshape(a.shape[0], _GL_NODES.shape[0])
    if not np.all(np.isfinite(vals)):
        bad = nodes[~np.isfinite(vals).ravel()][:1]
        raise NonFiniteSample(f"integrand returned a non-finite value near x={bad}")
    return (vals @ _GL_WEIGHTS) * hw


def integrate_err(f, lo, hi, spec, breakpoints=None):
    """Adaptive GL12 bisection on [lo, hi]; returns (integral, error estimate).

    The error estimate per panel is |GL12(panel) - GL12(halves)|; panels are
    split worst-first until the summed estimate meets the tolerance.
    """
    lo = float(lo)
    hi = float(hi)
    if hi == lo:
        return 0.0 + 0.0j, 0.0
    if hi < lo:
        v, e = integrate_err(f, hi, lo, spec, breakpoints)
        return -v, e
    fv = _vectorized(f)
    edges = [lo, hi]
    if breakpoints is not None:
        edges.extend(float(p) for p in breakpoints if lo < p < hi)
    edges = np.unique(np.asarray(edges, dtype=float))
    a = edges[:-1]
    b = edges[1:]
    coarse = _panel_values(fv, a, b)
    m = 0.5 * (a + b)
    vl = _panel_values(fv, a, m)
    vr = _panel_values(fv, m, b)
    val = vl + vr
    err = np.abs(val - coarse)
    splits = 0
    while True:
        total = complex(val.sum())
        esum = float(err.sum())
        tol = spec.tolerance(total)
        if esum <= tol:
            return total, esum
        if splits >= spec.max_subdivisions:
            raise NonConvergence(
                f"subdivision budget {spec.max_subdivisions} exhausted "
                f"(err={esum:.3e}, tol={tol:.3e})", value=total, error=esum)
        width_ok = (b - a) > 1e-14 * (np.abs(a) + np.abs(b) + 1e-300)
        order = np.argsort(err)[::-1]
        order = order[width_ok[order]]
        if order.size == 0:
            raise NonConvergence(
                f"panels at floating-point width, err={esum:.3e} above tol={tol:.3e}",
                value=total, error=esum)
        budget = spec.max_subdivisions - splits
        take = order[:max(1, min(order.size // 4 + 1, 64, budget))]
        keep = np.setdiff1d(np.arange(a.shape[0]), take, assume_unique=False)
        na = np.concatenate([a[take], m[take]])
        nb = np.concatenate([m[take], b[take]])
        ncoarse = np.concatenate([vl[take], vr[take]])
        nm = 0.5 * (na + nb)
        nvl = _panel_values(fv, na, nm)
        nvr = _panel_values(fv, nm, nb)
        nval = nvl + nvr
        nerr = np.abs(nval - ncoarse)
        a = np.concatenate([a[keep], na])
        b = np.concatenate([b[keep], nb])
        m = np.concatenate([m[keep], nm])
        vl = np.concatenate([vl[keep], nvl])
        vr = np.concatenate([vr[keep], nvr])
        val = np.concatenate([val[keep], nval])
        err = np.concatenate([err[keep], nerr])
        splits += take.size


def integrate_adaptive(f, lo, hi, spec, breakpoints=None):
    """Adaptive integral of a (possibly complex) integrand over [lo, hi]."""
    value, _ = integrate_err(f, lo, hi, spec, breakpoints=breakpoints)
    return value


def half_line(f, xi_c, x_cut, spec, seeds=()):
    """int_0^x_cut f(u) du for an f that may grow like u^{-1/2} at 0;
    returns (value, error estimate).

    The head [0, xi_c] is integrated in u = t^2 on panels that halve toward
    t = 0; the mid [xi_c, x_cut] on the doublings of xi_c plus the caller's
    seeds. The tail past x_cut stays with the caller.
    """
    t_c = math.sqrt(xi_c)
    head, e_head = integrate_err(
        lambda t: f(t * t) * 2.0 * t, 0.0, t_c, spec,
        breakpoints=[t_c * 2.0 ** (-k) for k in range(1, 26)])
    ladder = [xi_c * 2.0 ** k for k in range(int(math.log2(x_cut / xi_c)) + 1)]
    mid, e_mid = integrate_err(f, xi_c, x_cut, spec,
                               breakpoints=ladder + list(seeds))
    return head + mid, e_head + e_mid


_STENCIL = np.arange(-3, 4, dtype=float)
# the interpolant through the stencil in k, whatever h: fixed and well
# conditioned, where one in the offsets k h is not once h is large
_STENCIL_INVERSE = np.linalg.inv(np.vander(_STENCIL, increasing=True))


def _series_coefficients(fv, x0, h):
    """Taylor coefficients p[n] ~ f^(n)(x0)/n! of f around x0 from the
    symmetric 7-point stencil x0 + k h, k = -3..3."""
    p = _STENCIL_INVERSE @ fv(x0 + _STENCIL * h)
    return p / (h ** np.arange(7.0)).reshape((-1,) + (1,) * (p.ndim - 1))


def oscillatory_tail(f, omega, x_start, spec):
    """int_{x_start}^inf f(u) e^{i omega u} du by 4-term integration by parts.

    f must be smooth and slowly varying past x_start (no oscillation of its
    own) with |omega| * x_start >> 1. Returns (value, residual estimate);
    an f whose values carry trailing axes (one integrand per column) gets
    arrays of those shapes back.
    """
    if omega == 0.0:
        raise DomainError("oscillatory_tail needs omega != 0")
    fv = _vectorized(f)
    h = x_start / 128.0
    p = _series_coefficients(fv, x_start, h)
    iw = 1j * omega
    phase = np.exp(iw * x_start)
    derivs = [p[n] * math.factorial(n) for n in range(5)]
    value = -phase * sum(derivs[n] * (-1) ** n / iw ** (n + 1) for n in range(4))
    resid = np.abs(derivs[4]) / abs(omega) ** 5
    if np.ndim(value):
        return value, resid
    return complex(value), float(resid)


def algebraic_tail(f, x_start, spec):
    """int_{x_start}^inf f(u) du for f ~ A/u^2 + B/u^3, by Richardson fit.

    Returns (value, residual estimate); the residual is the spread between
    fits anchored at (x/2, x) and (x/4, x/2).
    """
    fv = _vectorized(f)

    def fit_tail(x):
        ys = fv(np.array([x / 2.0, x]))
        mat = np.array([[(2.0 / x) ** 2, (2.0 / x) ** 3],
                        [(1.0 / x) ** 2, (1.0 / x) ** 3]], dtype=complex)
        ab = np.linalg.solve(mat, ys)
        return ab[0] / x + ab[1] / (2.0 * x * x)

    t1 = fit_tail(x_start)
    t2 = fit_tail(x_start / 2.0) - integrate_adaptive(
        fv, x_start / 2.0, x_start, spec,
        breakpoints=[0.75 * x_start])
    return complex(t1), float(abs(t1 - t2))


def log_gamma(z):
    """Principal-branch log-gamma (scipy.special.loggamma).

    Relative accuracy ~1e-15 on the strip |Im z| <= 1e4; raises PoleError at
    non-positive integers. Accepts scalars or arrays.
    """
    arr = np.atleast_1d(np.asarray(z, dtype=complex))
    on_axis = arr.imag == 0.0
    near_int = np.abs(arr.real - np.round(arr.real)) < 1e-12
    if np.any(on_axis & near_int & (arr.real < 0.5)):
        raise PoleError("log_gamma pole at a non-positive integer")
    out = _kernels.log_gamma_raw(arr).reshape(np.shape(z))
    return out if np.ndim(z) else complex(out[()])
