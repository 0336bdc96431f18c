"""Quadrature oracles used only by the tests: the adaptive principal-value
rule for the Cauchy integral of ln Xi_*, direct half-line Fourier transforms
with explicit tail treatment, and the effective tractions of the boundary
layer computed by those transforms. Each cross-checks a faster or
closed-form route of the library."""

import math

import numpy as np

from interfrac.errors import DomainError, TailBoundExceeded
from interfrac.model import Bimaterial
from interfrac.numerics import (QuadratureSpec, _vectorized, algebraic_tail,
                                integrate_err, oscillatory_tail)
from interfrac.perturbation import _dy_from_v


def pv_integral_even_logkernel(g, xi, spec):
    """PV int_0^inf g(t)/(t^2 - xi^2) dt for even, decaying g (here g = ln Xi_*).

    Uses the subtraction identity: since PV int_0^inf dt/(t^2-xi^2) = 0, the
    principal value equals int_0^{2xi} [g(t)-g(xi)]/(t^2-xi^2) dt
    - g(xi) ln(3)/(2 xi) + int_{2xi}^inf g(t)/(t^2-xi^2) dt, with the tail
    mapped onto u = 2 xi / t.
    """
    xi = float(xi)
    if xi <= 0:
        raise DomainError("pv_integral_even_logkernel requires xi > 0")
    gv = _vectorized(g)
    gxi = complex(gv(np.array([xi]))[0])

    def near(t):
        return (gv(t) - gxi) / ((t - xi) * (t + xi))

    seeds = [xi * f for f in (0.25, 0.5, 0.75, 0.875, 0.9375,
                              1.0, 1.0625, 1.125, 1.25, 1.5, 1.75)]
    ia, ea = integrate_err(near, 0.0, 2.0 * xi, spec, breakpoints=seeds)

    def mapped_tail(u):
        return 2.0 * gv(2.0 * xi / u) / (xi * (4.0 - u * u))

    useeds = [2.0 ** (-j) for j in range(1, 44)]
    ib, eb = integrate_err(mapped_tail, 0.0, 1.0, spec, breakpoints=useeds)
    value = ia + ib - gxi * math.log(3.0) / (2.0 * xi)
    return float(value.real)


def halfline_fourier(f, side, xi, spec):
    """int f(x) e^{i xi x} dx over one half-line, truncated with an explicit
    tail treatment (IBP correction when oscillatory, algebraic fit at xi=0)."""
    value, _ = halfline_fourier_err(f, side, xi, spec)
    return value


def halfline_fourier_err(f, side, xi, spec):
    if side not in ("negative-axis", "positive-axis"):
        raise DomainError(f"side must be 'negative-axis' or 'positive-axis', got {side!r}")
    fv = _vectorized(f)
    if side == "negative-axis":
        g = lambda u: fv(-u)
        omega = -float(xi)
    else:
        g = fv
        omega = float(xi)
    return _halfline_core(g, omega, spec)


def _halfline_core(g, omega, spec):
    """int_0^inf g(u) e^{i omega u} du with adaptive truncation."""
    x_max = spec.truncation_radius
    if omega != 0.0:
        # the IBP tail is as good from a short truncation as a long one, so
        # keep the half-period panel count bounded; the residual check below
        # grows x_max back if g still has structure out there
        x_max = min(x_max, 3200.0 * math.pi / abs(omega))
        x_max = max(x_max, 16.0 * math.pi / abs(omega))
    tail_val = 0.0 + 0.0j
    tail_err = None
    for _ in range(16):
        raw = abs(complex(g(np.array([x_max]))[0])) * x_max
        if raw <= spec.abs_tol:
            tail_val, tail_err = 0.0 + 0.0j, raw
            break
        if omega == 0.0:
            tail_val, tail_err = algebraic_tail(g, x_max, spec)
        elif abs(omega) * x_max >= 8.0 * math.pi:
            tail_val, tail_err = oscillatory_tail(g, omega, x_max, spec)
        else:
            x_max *= 2.0
            continue
        if tail_err <= spec.abs_tol:
            break
        x_max *= 2.0
        tail_err = None
    if tail_err is None or tail_err > max(spec.abs_tol, 1e-3 * spec.rel_tol):
        raise TailBoundExceeded(
            f"tail bound {tail_err} above abs_tol={spec.abs_tol} at "
            f"truncation x={x_max:.3e}")

    seeds = {x_max * 2.0 ** (-k) for k in range(1, 47)}
    if omega != 0.0:
        period = 2.0 * math.pi / abs(omega)
        n_osc = int(min(x_max / (0.5 * period), 8000.0))
        seeds.update((j + 1) * 0.5 * period for j in range(n_osc))

    def integrand(u):
        return g(u) * np.exp(1j * omega * u)

    core, core_err = integrate_err(integrand, 0.0, x_max, spec,
                                   breakpoints=sorted(seeds))
    return core + tail_val, core_err + tail_err


def effective_traction_transforms(G, M, Y, material: Bimaterial, xi, spec=None):
    """(Pbar^-, Qbar^-, Pbar^+, Qbar^+) at one xi by direct half-line Fourier
    transforms of P = -(mu1+mu2)/2 dw1/dy and Q = -(mu1-mu2) dw1/dy."""
    spec = spec or QuadratureSpec()
    v = np.asarray(M, dtype=float) @ np.asarray(G, dtype=float)

    def dy(x):
        return _dy_from_v(x, v, Y)

    t_minus, _ = halfline_fourier_err(dy, "negative-axis", xi, spec)
    t_plus, _ = halfline_fourier_err(dy, "positive-axis", xi, spec)
    s_p = -0.5 * (material.mu1 + material.mu2)
    s_q = -(material.mu1 - material.mu2)
    return (s_p * t_minus, s_q * t_minus, s_p * t_plus, s_q * t_plus)
