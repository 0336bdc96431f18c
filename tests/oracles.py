"""Oracles used only by the tests: the adaptive principal-value rules for
the Cauchy integral of ln Xi_* and for the Cauchy transform of the load
right-hand side g, direct half-line Fourier transforms with explicit tail
treatment, the boundary layer's dw1/dy on the crack line and its effective
tractions computed by those transforms, the one-sided exponential-integral
pole transforms, and the layer transforms assembled from the library's
closed-form double poles, the per-target loop of the direct Cauchy rule
behind the phase table, the kernel factors composed through the checked
public methods with their own minus formulas, the load problem's phi_1^-,
and the weight-function transforms Phi^+/- of the Wiener-Hopf identity.
Each cross-checks a faster or closed-form route of the library, or checks a
paper identity through a function that the library does not need."""

import math

import numpy as np

from interfrac._kernels import (_GL_NODES, _GL_WEIGHTS, _LN3, _ln_xi_star,
                                scaled_e1)
from interfrac.errors import DomainError, GeometryError, NonConvergence
from interfrac.kernel import _gamma_ratio
from interfrac.model import Bimaterial
from interfrac.numerics import (QuadratureSpec, algebraic_tail, integrate_err,
                                oscillatory_tail)
from interfrac.perturbation import _double_pole_transforms


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
    gxi = complex(g(np.array([xi]))[0])

    def near(t):
        return (g(t) - gxi) / ((t - xi) * (t + xi))

    seeds = [xi * f for f in (0.25, 0.5, 0.75, 0.875, 0.9375,
                              1.0, 1.0625, 1.125, 1.25, 1.5, 1.75)]
    ia, ea = integrate_err(near, 0.0, 2.0 * xi, spec, breakpoints=seeds)

    def mapped_tail(u):
        return 2.0 * g(2.0 * xi / u) / (xi * (4.0 - u * u))

    useeds = [2.0 ** (-j) for j in range(1, 44)]
    ib, eb = integrate_err(mapped_tail, 0.0, 1.0, spec, breakpoints=useeds)
    value = ia + ib - gxi * math.log(3.0) / (2.0 * xi)
    return float(value.real)


def _pv_edges_main(s, mu0):
    # panel edges in t on [0, 2s] for one target s
    q = min(mu0, s) / 64.0
    n = min(158, math.ceil(math.log2(2.0 * s / q)) + 1)
    pts = [0.0, 2.0 * s] + [p for p in (q * 2.0 ** k for k in range(n)) if p < 2.0 * s]
    for k in range(1, 6):
        pts += [s * (1.0 - 0.5 ** k), s * (1.0 + 0.5 ** k)]
    out = []
    for p in sorted(pts):
        if not out or p - out[-1] > 1e-12 * (p + s):
            out.append(p)
    return np.array(out)


def _pv_edges_tail(s, mu0):
    # panel edges in u on (0, 1] for t = 2s/u for one target s
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


def pv_cauchy_per_target(s, mu0):
    """_kernels.pv_cauchy_batch one target at a time: the same panels and
    GL12 rule, with the edges built by scalar code and two sums per target."""
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


def xi_plus_half(x):
    """xi_+^{1/2} = sqrt(-i xi), branch cut on the negative real axis."""
    return np.sqrt(-1j * np.asarray(x, dtype=complex))


def xi_minus_half(x):
    """xi_-^{1/2} = sqrt(+i xi)."""
    return np.sqrt(1j * np.asarray(x, dtype=complex))


def factors_checked(kernel, x):
    """The kernel factors at real x != 0, each composed through checked
    public methods: Xi_*^+ from kernel.xi_star and kernel.cauchy_integral,
    Xi_0^+- through the library's gamma ratio for real arguments (log-gamma
    below |w| = 8), in the library's order of operations. B^+- and [U]
    follow the product route; the library evaluates B^+ in polar form and
    reads B^- and [U] from it. The minus factors keep their own formulas
    (Xi_0^- from the ratio at +ix, B^- through xi_-^{1/2}), where the
    library takes Xi_0^+(-x) and conj B^+. A dict of xi_star_plus,
    xi0_plus, xi0_minus, b_plus, b_minus and jump_u (that of a WeightField
    on this kernel)."""
    arr = np.asarray(x, dtype=float)
    z = np.asarray(arr, dtype=complex)
    c = math.pi * kernel.mu0
    star_plus = np.sqrt(kernel.xi_star(arr)) * np.exp(
        -1j * arr * kernel.cauchy_integral(arr) / math.pi)
    star_minus = np.conjugate(star_plus)
    xi0_plus = _gamma_ratio(-1j * z / c, True)
    xi0_minus = _gamma_ratio(1j * z / c, True)
    return {
        "xi_star_plus": star_plus, "xi0_plus": xi0_plus, "xi0_minus": xi0_minus,
        "b_plus": xi0_plus * star_plus / xi_plus_half(arr),
        "b_minus": xi0_minus * star_minus / xi_minus_half(arr),
        "jump_u": 1.0 / (math.pi * star_minus * xi0_minus * xi_plus_half(arr) * arr),
    }


def cauchy_pv_adaptive(sol, x, spec=None):
    """PV int g(b)/(b - x) db over the real line for one real x != 0, by
    adaptive quadrature per target: a subtracted window around x, b = +-t^2
    zones around the |b|^{-1/2} point b = 0, log-seeded segments and
    integration-by-parts (oscillatory) or fitted algebraic tails. Returns
    (value, error estimate) for the solution's g (UnperturbedSolution.g_rhs)
    at the tolerances of spec (default sol.spec)."""
    x = float(x)
    if x == 0.0:
        raise DomainError("Cauchy boundary values need xi != 0")
    spec = spec or sol.spec
    mu0 = sol.kernel.mu0
    g = sol.g_rhs
    gx = sol.g_rhs(x)
    s = abs(x)
    table = sol.load.oscillations
    c_max = table[-1][0] if table else 1.0 / sol.load.reference_length
    c_min = table[0][0] if table else None

    half_w = min(0.5 * s, math.pi / (4.0 * c_max)) if table else 0.5 * s
    zone = min(mu0, 0.25 * s, math.pi / c_max)
    x_cut = (max(60.0 / c_min, 3.0 * s, 4.0 * zone) if table
             else max(2e3 / sol.load.reference_length, 3.0 * s, 20.0 * mu0))

    total = 0.0 + 0.0j
    est = 0.0

    def sub(b):
        return (g(b) - gx) / (b - x)

    win_seeds = [x + sgn * half_w * 2.0 ** (-j)
                 for j in range(1, 10) for sgn in (-1.0, 1.0)]
    val, err = integrate_err(sub, x - half_w, x + half_w, spec,
                             breakpoints=win_seeds)
    total += val
    est += err

    # inner zone around the b = 0 singularity, b = +/- t^2
    t0 = math.sqrt(zone)
    t_seeds = [t0 * 2.0 ** (-j) for j in range(1, 22)]
    for sgn in (-1.0, 1.0):
        def f_zone(t, sgn=sgn):
            # b = sgn t^2; the substitution jacobian is 2t on both sides
            # once the limits are oriented 0 -> sqrt(zone)
            b = sgn * t * t
            return g(b) / (b - x) * 2.0 * t

        val, err = integrate_err(f_zone, 0.0, t0, spec, breakpoints=t_seeds)
        total += val
        est += err

    def plain(b):
        return g(b) / (b - x)

    segments = []
    if x > 0:
        segments = [(-x_cut, -zone), (zone, x - half_w), (x + half_w, x_cut)]
    else:
        segments = [(-x_cut, x - half_w), (x + half_w, -zone), (zone, x_cut)]
    for lo, hi in segments:
        if hi <= lo:
            continue
        seeds = set()
        mags = sorted({abs(lo), abs(hi)})
        q = max(min(abs(lo), abs(hi)), zone, 1e-300)
        while q < max(abs(lo), abs(hi)):
            if lo < -q < hi:
                seeds.add(-q)
            if lo < q < hi:
                seeds.add(q)
            q *= 2.0
        if table:
            width = max(math.pi / c_max, (hi - lo) / 2000.0)
            seeds.update(np.arange(lo + width, hi, width).tolist())
        val, err = integrate_err(plain, lo, hi, spec, breakpoints=sorted(seeds))
        total += val
        est += err

    if table:
        for shift, a, j in table:
            def upper(u, a=a, j=j):
                return sol._g(u, a, j) / (u - x)

            def lower(u, a=a, j=j):
                return -sol._g(-u, a, j) / (u + x)

            v, r = oscillatory_tail(upper, -shift, x_cut)
            total += v
            est += r
            v, r = oscillatory_tail(lower, shift, x_cut)
            total += v
            est += r
    else:
        for mirror in (plain, lambda u: plain(-u)):
            v, r = algebraic_tail(mirror, x_cut, spec)
            total += v
            est += r

    return total, est


def phi_plus_adaptive(sol, x, spec=None):
    """phi^+(x) of the solution through cauchy_pv_adaptive."""
    cauchy, _ = cauchy_pv_adaptive(sol, x, spec)
    l_plus = 0.5 * sol.g_rhs(x) + cauchy / (2.0j * math.pi)
    return -l_plus / (sol.kappa * math.pi * sol.kernel.mu0 * sol.kernel.b_plus(x))


def halfline_fourier(f, side, xi, spec):
    """int f(x) e^{i xi x} dx over one half-line, truncated with an explicit
    tail treatment (IBP correction when oscillatory, algebraic fit at xi=0)."""
    value, _ = halfline_fourier_err(f, side, xi, spec)
    return value


def halfline_fourier_err(f, side, xi, spec):
    if side not in ("negative-axis", "positive-axis"):
        raise DomainError(f"side must be 'negative-axis' or 'positive-axis', got {side!r}")
    if side == "negative-axis":
        g = lambda u: f(-u)
        omega = -float(xi)
    else:
        g = f
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
            tail_val, tail_err = oscillatory_tail(g, omega, x_max)
        else:
            x_max *= 2.0
            continue
        if tail_err <= spec.abs_tol:
            break
        x_max *= 2.0
        tail_err = None
    if tail_err is None or tail_err > max(spec.abs_tol, 1e-3 * spec.rel_tol):
        raise NonConvergence(
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


def boundary_layer_dy(x, G, M, Y):
    """dw1/dy on the line y=0 for gradient G, dipole M, centre Y:
    -(1/2pi) v_y/rho^2 - Y_y (v_x (x-Y_x) - v_y Y_y)/(pi rho^4), v = M G."""
    v = np.asarray(M, dtype=float) @ np.asarray(G, dtype=float)
    return layer_dy(x, v, Y)


def layer_dy(x, v, Y):
    """boundary_layer_dy for the strengths v = M G."""
    cx, cy = float(Y[0]), float(Y[1])
    if cy == 0.0:
        raise GeometryError("inclusion centre must lie off the interface line")
    x = np.asarray(x, dtype=float)
    dx = x - cx
    rho2 = dx * dx + cy * cy
    if np.any(rho2 == 0.0):
        raise GeometryError("evaluation point coincides with the inclusion centre")
    out = (-v[1] / (2.0 * math.pi * rho2)
           - cy * (v[0] * dx - v[1] * cy) / (math.pi * rho2 * rho2))
    return out if np.ndim(x) else float(out)


def effective_traction_transforms(G, M, Y, material: Bimaterial, xi, spec=None):
    """(Pbar^-, Qbar^-, Pbar^+, Qbar^+) at one xi by direct half-line Fourier
    transforms of P = -(mu1+mu2)/2 dw1/dy and Q = -(mu1-mu2) dw1/dy."""
    spec = spec or QuadratureSpec()
    v = np.asarray(M, dtype=float) @ np.asarray(G, dtype=float)

    def dy(x):
        return layer_dy(x, v, Y)

    t_minus, _ = halfline_fourier_err(dy, "negative-axis", xi, spec)
    t_plus, _ = halfline_fourier_err(dy, "positive-axis", xi, spec)
    s_p = -0.5 * (material.mu1 + material.mu2)
    s_q = -(material.mu1 - material.mu2)
    return (s_p * t_minus, s_q * t_minus, s_p * t_plus, s_q * t_plus)


def pole_transform_pos(q, xi):
    """int_0^inf e^{i xi x}/(x - q) dx for complex q off [0, inf), xi != 0.

    Equals e^{i xi q} E1(i xi q) continued across the E1 cut: the principal
    branch jumps where i xi q crosses the negative real axis (xi Im q > 0 as
    Re q changes sign), so a residue term sign(xi) 2 pi i e^{i xi q} is added
    on the Re q > 0 side. One side per call, with its own e^z E1(z)."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    z = 1j * xi * q
    if q.real >= 0.0 and q.imag != 0.0:
        on_cut = z.imag == 0.0
        if np.any(on_cut):
            z = np.where(on_cut, z - 1j * np.sign(xi) * 1e-290, z)
    out = scaled_e1(z)
    corr = (xi * q.imag > 0.0) & (q.real > 0.0)
    if np.any(corr):
        out[corr] += np.sign(xi[corr]) * 2j * math.pi * np.exp(1j * xi[corr] * q)
    return out


def _layer_pair(v, Y, xi):
    """The transforms of dw1/dy over x < 0 and over x > 0 at xi for the
    strengths v at Y, assembled from the closed-form double poles:
    dw1/dy = a/(x - p)^2 + conj(a)/(x - conj(p))^2, a = iV/(4 pi)."""
    a = 1j * complex(v[0], v[1]) / (4.0 * math.pi)
    p = complex(Y[0], Y[1])
    m_p, p_p = _double_pole_transforms(p, xi)
    m_c, p_c = _double_pole_transforms(p.conjugate(), xi)
    return a * m_p + a.conjugate() * m_c, a * p_p + a.conjugate() * p_c


def weight_phi_minus(field, xi):
    """Phi^- = -xi_-^{1/2} / (kappa pi mu0 Xi_*^- Xi_0^- xi), the transform
    of the weight function's interface tractions, for real xi != 0."""
    k = field.kernel
    return -xi_minus_half(xi) / (field.kappa * math.pi * k.mu0
                                 * k.xi_star_minus(xi) * k.xi0_minus(xi) * xi)


def weight_phi_plus(field, xi):
    """Phi^+ = Xi_0^+ Xi_*^+ / (xi xi_+^{1/2}), the transform of the x > 0
    part of the weight function's displacement jump."""
    k = field.kernel
    return k.xi0_plus(xi) * k.xi_star_plus(xi) / (xi * xi_plus_half(xi))


def wiener_hopf_residual(field, xi):
    """|Phi^+ + kappa Xi Phi^-| / |Phi^+|, which vanishes identically."""
    p = weight_phi_plus(field, xi)
    return np.abs(p + field.kappa * field.kernel.xi(xi)
                  * weight_phi_minus(field, xi)) / np.abs(p)


def phi1_minus(sol, xi):
    """phi_1^- = L^- B^- of the load problem at one real xi != 0, with
    L^- = -g/2 + PV/(2 pi i) by the Plemelj formula."""
    l_minus = -0.5 * sol.g_rhs(xi) + sol.cauchy_pv(xi)[0] / (2.0j * math.pi)
    return l_minus * sol.kernel.b_minus(xi)
