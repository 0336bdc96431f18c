"""Reusable numerical kernels: adaptive panel quadrature, the period seeds
of an oscillatory integrand (period_seeds), the head/mid split of a
half-line spectral integral (half_line), oscillatory and algebraic
tail closures for half-line integrals, and the log-panel polynomial table
(LogTable) of the kernel phase and of phi^+.

Every integrand takes a 1-d array of nodes and returns one value per node;
oscillatory_tail also accepts values with trailing axes. An integrand's own
exception reaches the caller. All routines are pure functions of their
arguments and safe to call concurrently.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonConvergence, NonFiniteSample

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)
# LogTable's fitting points: the 6 Chebyshev points of the first kind
_CHEB = np.cos((2 * np.arange(6) + 1) * math.pi / 12)


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and budgets shared by every quadrature-facing operation."""

    rel_tol: float = 1e-8
    abs_tol: float = 1e-12
    max_subdivisions: int = 4000
    truncation_radius: float = 1e4

    def __post_init__(self):
        if not 0 < self.rel_tol < math.inf:
            raise DomainError("rel_tol must be > 0 and finite")
        if not 0 <= self.abs_tol < math.inf:
            raise DomainError("abs_tol must be >= 0 and finite")
        if not (isinstance(self.max_subdivisions, (int, np.integer))
                and self.max_subdivisions >= 1):
            raise DomainError("max_subdivisions must be an integer >= 1")
        if not 0 < self.truncation_radius < math.inf:
            raise DomainError("truncation_radius must be > 0 and finite")

    def tolerance(self, magnitude):
        return max(self.abs_tol, self.rel_tol * abs(magnitude))


def _panel_values(f, a, b):
    """GL12 values on panels [a_i, b_i], one batched integrand call."""
    mid = 0.5 * (a + b)
    hw = 0.5 * (b - a)
    nodes = (mid[:, None] + hw[:, None] * _GL_NODES[None, :]).ravel()
    vals = np.asarray(f(nodes), dtype=complex).reshape(a.size, _GL_NODES.size)
    if not np.all(np.isfinite(vals)):
        bad = nodes[~np.isfinite(vals).ravel()][:1]
        raise NonFiniteSample(f"integrand returned a non-finite value near x={bad}")
    return (vals @ _GL_WEIGHTS) * hw


def integrate_err(f, lo, hi, spec, breakpoints=None):
    """Adaptive GL12 bisection on [lo, hi]; returns (integral, error estimate).

    The error estimate per panel is |GL12(panel) - GL12(halves)|; panels are
    split worst-first until the summed estimate meets the tolerance. The
    integrand sees one coarse batch, then two half-panel batches per round.
    """
    lo, hi = float(lo), float(hi)
    if hi == lo:
        return 0.0 + 0.0j, 0.0
    if hi < lo:
        v, e = integrate_err(f, hi, lo, spec, breakpoints)
        return -v, e
    inner = [] if breakpoints is None else [float(p) for p in breakpoints if lo < p < hi]
    edges = np.unique(np.array([lo, hi] + inner))
    # settled panels [a, b] (halves vl, vr, estimate err); new ones [na, nb]
    na, nb = edges[:-1], edges[1:]
    coarse = _panel_values(f, na, nb)
    a = b = vl = vr = err = np.empty(0)
    keep = np.empty(0, dtype=bool)
    splits = 0
    while True:
        nm = 0.5 * (na + nb)
        nvl = _panel_values(f, na, nm)
        nvr = _panel_values(f, nm, nb)
        a = np.concatenate([a[keep], na])
        b = np.concatenate([b[keep], nb])
        vl = np.concatenate([vl[keep], nvl])
        vr = np.concatenate([vr[keep], nvr])
        err = np.concatenate([err[keep], np.abs(nvl + nvr - coarse)])
        total = complex((vl + vr).sum())
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
        keep = np.ones(a.size, dtype=bool)
        keep[take] = False
        m = 0.5 * (a[take] + b[take])
        na = np.concatenate([a[take], m])
        nb = np.concatenate([m, b[take]])
        coarse = np.concatenate([vl[take], vr[take]])
        splits += take.size


def period_seeds(lo, hi, omega, cap):
    """Breakpoints lo + k 2 pi/omega, k = 1, 2, ..., below hi: one GL12
    panel takes a whole period of e^{i omega u} to 4e-16. Where more than
    cap periods fit in [lo, hi], the step widens to (hi - lo)/cap, so the
    seeds still span it."""
    step = max(2.0 * math.pi / omega, (hi - lo) / cap)
    return lo + step * np.arange(1, math.ceil((hi - lo) / step))


def half_line(f, xi_c, x_cut, spec, seeds=()):
    """int_0^x_cut f(u) du for an f that may grow like u^{-1/2} at 0;
    returns (value, error estimate).

    The head [0, xi_c] is integrated in u = t^2, where u^{-1/2} is smooth,
    on panels that halve 12 times toward t = 0 (enough for the 4 t^2 ln t
    that u^{1/2} ln u becomes); the mid [xi_c, x_cut] on the doublings of
    xi_c plus the caller's seeds. The tail past x_cut stays with the caller.
    The one seed ladder of every spectral line integral: both Betti
    integrals, the A_j line of grad_u0 and u0, and k3_perfect's moment."""
    t_c = math.sqrt(xi_c)
    head, e_head = integrate_err(
        lambda t: f(t * t) * 2.0 * t, 0.0, t_c, spec,
        breakpoints=[t_c * 2.0 ** (-k) for k in range(1, 13)])
    ladder = [xi_c * 2.0 ** k for k in range(int(math.log2(x_cut / xi_c)) + 1)]
    mid, e_mid = integrate_err(f, xi_c, x_cut, spec,
                               breakpoints=ladder + list(seeds))
    return head + mid, e_head + e_mid


_STENCIL = np.arange(-3, 4, dtype=float)
# the interpolant through the stencil in k, whatever h: fixed and well
# conditioned, where one in the offsets k h is not once h is large
_STENCIL_INVERSE = np.linalg.inv(np.vander(_STENCIL, increasing=True))


def _series_coefficients(f, x0, h):
    """Taylor coefficients p[n] ~ f^(n)(x0)/n! of f around x0 from the
    symmetric 7-point stencil x0 + k h, k = -3..3."""
    p = _STENCIL_INVERSE @ np.asarray(f(x0 + _STENCIL * h), dtype=complex)
    return p / (h ** np.arange(7.0)).reshape((-1,) + (1,) * (p.ndim - 1))


def oscillatory_tail(f, omega, x_start):
    """int_{x_start}^inf f(u) e^{i omega u} du by 4-term integration by parts.

    f must be smooth and slowly varying past x_start (no oscillation of its
    own) with |omega| * x_start >> 1. Returns (value, residual estimate);
    an f whose values carry trailing axes (one integrand per column) gets
    arrays of those shapes back.
    """
    if omega == 0.0:
        raise DomainError("oscillatory_tail needs omega != 0")
    h = x_start / 128.0
    p = _series_coefficients(f, x_start, h)
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
    def fit_tail(x):
        ys = np.asarray(f(np.array([x / 2.0, x])), dtype=complex)
        mat = np.array([[(2.0 / x) ** 2, (2.0 / x) ** 3],
                        [(1.0 / x) ** 2, (1.0 / x) ** 3]], dtype=complex)
        ab = np.linalg.solve(mat, ys)
        return ab[0] / x + ab[1] / (2.0 * x * x)

    t1 = fit_tail(x_start)
    t2 = fit_tail(x_start / 2.0) - integrate_err(
        f, x_start / 2.0, x_start, spec, breakpoints=[0.75 * x_start])[0]
    return complex(t1), float(abs(t1 - t2))


class LogTable:
    """f on [lo, hi] as one quintic per equal panel in ln x: f is called
    once, on the (panels, 6) array u of ln x at 2 k + 1 + t half-widths from
    ln lo on row k, t at _CHEB, and its real or complex values fix on each
    row the quintic in t, highest degree first (well conditioned in the
    monomial basis at degree 5); x = exp(u) flat. A call clamps x to
    [lo, hi] and takes one floor in ln x, one gather and a Horner sum, for
    x of any shape."""

    def __init__(self, f, lo, hi, panels):
        self.lo, self.hi = float(lo), float(hi)
        self._ln_lo = math.log(self.lo)
        span = math.log(self.hi) - self._ln_lo
        self._per_ln = panels / span
        half = 0.5 * span / panels
        centres = self._ln_lo + half * (2 * np.arange(panels) + 1)
        u = centres[:, None] + half * _CHEB
        self.x = np.exp(u).ravel()
        self._coeffs = np.linalg.solve(np.vander(_CHEB), np.asarray(f(u)).T).T

    def __call__(self, x):
        x = np.asarray(x, dtype=float).clip(self.lo, self.hi)
        v = (np.log(x) - self._ln_lo) * self._per_ln
        # v >= 0 up to rounding, so the cast is the floor
        k = np.minimum(v.astype(np.intp), self._coeffs.shape[0] - 1)
        t = 2.0 * (v - k) - 1.0
        c = self._coeffs[k]
        out = c[..., 0]
        for j in range(1, c.shape[-1]):
            out = out * t + c[..., j]
        return out
