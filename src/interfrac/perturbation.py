"""Small-inclusion perturbation: dipole matrices, boundary-layer effective
tractions on the crack line, and the first-order crack-tip correction.

A small inclusion at Y with dipole matrix M disturbs the unperturbed field
through the boundary layer w1(x) = -(1/2pi) G . M (x-Y)/|x-Y|^2 with
G = grad u0(Y); its normal derivative on the interface line induces the
effective tractions P = -(mu1+mu2)/2 dw1/dy and Q = -(mu1-mu2) dw1/dy on
both half-lines. The Betti identity then gives

  dsigma0 = -(1/2) sqrt(mu0/pi) { int [xi [U] Pbar^- + xi <U> Qbar^-] dxi
                                + int [kappa xi Phi^- Pbar^+ + xi <U> Qbar^+] dxi }

and the perturbed constant is sigma0 + eps^2 dsigma0, eps = ell_a/d.
Through <U> = -(mu_*/2)[U] and kappa xi Phi^- = -(xi |xi|/mu0)[U] both
integrands are xi [U] times a load factor, so the weight function costs one
[U] evaluation per node. dw1/dy = Re[iV/(x - p)^2]/(2 pi), with
V = v_x + i v_y for v = M G and p = Y_x + i Y_y, has two double poles and no
simple ones; the half-line transforms of 1/(x - q)^2 follow by parts from
exponential-integral closed forms, and the x < 0 and x > 0 sides evaluate
e^z E1(z) at the same z = i xi q, so both come from one e^z E1(z) per pole
per node. [U] and dw1/dy are transforms of real functions, so the whole
integrand at -xi is the conjugate of the one at xi: the line folds onto
xi > 0 as twice its real part, which is Re(V K) for a K that depends on the
position Y alone. So dsigma0 = Re(V L) with one complex response L per
position, integrated in one numerics.half_line pass (the xi = s^2 head and
the seeded mid) whatever the dipole; sign_map serves every orientation at
one position from it. The conditionally convergent kappa xi Phi^- Pbar^+
tail is absolutely convergent once folded and is closed with a
log-augmented algebraic fit integrated exactly.
"""

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
from scipy.special import exp1

from .errors import DomainError, GeometryError
from .model import Bimaterial, CrackLoad, InclusionSpec, inclusion_centre
# integrate_err has no caller here; perfbench/tracer.py patches it by name
from .numerics import QuadratureSpec, half_line, integrate_err
from .unperturbed import UnperturbedSolution
from .weightfn import WeightField, sigma0 as _sigma0


# ----------------------------------------------------------------------
# dipole matrices
# ----------------------------------------------------------------------

def dipole_elliptic(ell_a, ell_b, alpha, nu_star):
    """Dipole matrix of an elastic ellipse, semi-axes ell_a >= ell_b at
    orientation alpha, contrast nu_star = mu_out/mu_in:
    M = -(pi/2) ell_a ell_b (1+e)(nu_star - 1) B(e, alpha, nu_star)."""
    if not (ell_a >= ell_b > 0):
        raise DomainError("semi-axes must satisfy ell_a >= ell_b > 0")
    if not nu_star > 0:
        raise DomainError("nu_star must be positive")
    e = ell_b / ell_a
    c2 = math.cos(2.0 * alpha)
    s2 = math.sin(2.0 * alpha)
    hp = 1.0 + c2
    hm = 1.0 - c2
    d1 = e + nu_star
    d2 = 1.0 + e * nu_star
    off = -(1.0 - e) * (nu_star - 1.0) * s2 / (d1 * d2)
    b = np.array([[hp / d1 + hm / d2, off],
                  [off, hm / d1 + hp / d2]])
    return -0.5 * math.pi * ell_a * ell_b * (1.0 + e) * (nu_star - 1.0) * b


def dipole_rigid(ell_a, ell_b, alpha):
    """Dipole matrix of a rigid movable ellipse (the mu_in -> inf limit):
    M = (pi/2) ell_a ell_b (1/e + 1) B_rig with h+- = 1 +- cos(2 alpha)."""
    if not (ell_a >= ell_b > 0):
        raise DomainError("semi-axes must satisfy ell_a >= ell_b > 0")
    e = ell_b / ell_a
    c2 = math.cos(2.0 * alpha)
    s2 = math.sin(2.0 * alpha)
    hp = 1.0 + c2
    hm = 1.0 - c2
    off = (1.0 - e) * s2
    b = np.array([[hp + e * hm, off],
                  [off, hm + e * hp]])
    return 0.5 * math.pi * ell_a * ell_b * (1.0 / e + 1.0) * b


def dipole_for(inc: InclusionSpec):
    if inc.rigid:
        return dipole_rigid(inc.ell_a, inc.ell_b, inc.alpha)
    return dipole_elliptic(inc.ell_a, inc.ell_b, inc.alpha, inc.nu_star)


# ----------------------------------------------------------------------
# boundary layer on the crack line
# ----------------------------------------------------------------------

def boundary_layer_dy(x, G, M, Y):
    """dw1/dy on the line y=0 for gradient G, dipole M, centre Y:
    -(1/2pi) v_y/rho^2 - Y_y (v_x (x-Y_x) - v_y Y_y)/(pi rho^4), v = M G."""
    v = np.asarray(M, dtype=float) @ np.asarray(G, dtype=float)
    return _dy_from_v(x, v, Y)


def _dy_from_v(x, v, Y):
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


def _scaled_e1(z):
    """e^z E1(z): direct product for moderate z, asymptotic series beyond
    (the product form overflows once |Im z| is large)."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    out = np.empty_like(z)
    big = np.abs(z) >= 40.0
    if np.any(~big):
        out[~big] = np.exp(z[~big]) * exp1(z[~big])
    if np.any(big):
        zz = z[big]
        acc = np.ones_like(zz)
        term = np.ones_like(zz)
        for k in range(1, 15):
            term *= -k / zz
            acc += term
        out[big] = acc / zz
    return out


def _pole_transforms(q, xi):
    """(J(q, xi), J(-q, -xi)) with J(q, xi) = int_0^inf e^{i xi x}/(x - q) dx,
    for complex q off the real axis and xi != 0.

    Both are e^z E1(z) at the same z = i xi q, continued across the E1 cut,
    so one e^z E1(z) serves the pair and only the continuations differ. The
    principal branch jumps where z crosses the negative real axis (xi Im q
    > 0 as Re q changes sign): J(q, xi) gains sign(xi) 2 pi i e^z where
    Re q > 0, and J(-q, -xi) loses it where Re q < 0. Where z is real
    (Re q == 0) the two sides are the opposite limits onto the cut, so
    J(-q, -xi) is J(q, xi) minus that jump wherever z < 0. Checked against
    the two separate continuations and direct quadrature in tests."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    sgn = np.sign(xi)
    z = 1j * xi * q
    on_cut = z.imag == 0.0
    if np.any(on_cut):
        z = np.where(on_cut, z - 1j * sgn * 1e-290, z)
    pos = _scaled_e1(z)
    neg = pos.copy()
    jump = on_cut & (z.real < 0.0)
    if np.any(jump):
        neg[jump] -= sgn[jump] * 2j * math.pi * np.exp(z[jump])
    res = ~on_cut & (xi * q.imag > 0.0)
    if np.any(res):
        r = sgn[res] * 2j * math.pi * np.exp(1j * xi[res] * q)
        if q.real > 0.0:
            pos[res] += r
        else:
            neg[res] -= r
    return pos, neg


def _double_pole_transforms(q, u):
    """The transforms of 1/(x - q)^2 over x < 0 and over x > 0 at u != 0,
    by parts from _pole_transforms: 1/q - iu J(-q, -u) and iu J(q, u) - 1/q,
    so both cost one e^z E1(z) per node."""
    j_pos, j_neg = _pole_transforms(q, u)
    return 1.0 / q - 1j * u * j_neg, 1j * u * j_pos - 1.0 / q


# ----------------------------------------------------------------------
# the first-order correction
# ----------------------------------------------------------------------

@dataclass
class PerturbationResult:
    """delta_sigma0 with its error estimate and the label it implies.

    est_error bounds the quadrature of the second Betti integral: its
    adaptive head and mid and its fitted tail. It is |V| e_L, with e_L the
    estimate of the complex response L and delta_sigma0 = Re(V L), so it
    bounds |Re(V dL)| by |V| |dL| and is looser than an estimate of the real
    integrand alone (2x in the median and up to 158x, where Re(V dL)
    cancels, on 200 seeded inclusions). It does not cover the PCHIP
    tables the pipeline reads, the kernel phase table (Hhat) and the phi^+
    table behind grad_u0, nor the gradient error; until those tables are
    evaluated exactly, the estimate says nothing about them. sign is
    shielding where |sigma0| falls (sigma0_base * delta_sigma0 < 0),
    amplifying where it rises, and neutral when |delta_sigma0| <= est_error.
    """

    delta_sigma0: float
    sign: str
    est_error: float
    sigma0_base: Optional[float] = None
    sigma0_total: Optional[float] = None
    epsilon: Optional[float] = None


def _classify(delta, est, base):
    """shielding where the inclusion lowers |sigma0| (base * delta < 0),
    amplifying where it raises it, neutral inside the error band; the
    labels follow the physics, not the sign of the load or the units. Works
    elementwise on arrays."""
    delta = np.asarray(delta, dtype=float)
    out = np.where(np.abs(delta) <= est, "neutral",
                   np.where(base * delta < 0.0, "shielding", "amplifying"))
    return out if out.ndim else str(out)


def _delta_from_v(field: WeightField, material: Bimaterial, v, Y, spec):
    """The second Betti integral for boundary-layer strengths v = M G, of
    shape (2,) or (2, k): returns (delta, est), floats or k-arrays.

    dw1/dy = Re[iV/(x - p)^2]/(2 pi) with V = v_x + i v_y and p = Y_x + i Y_y,
    so delta = Re(V L) for one complex response L of the position alone; L
    is integrated once, whatever v, and est = |V| e_L, with e_L the
    estimate of L, bounds |Re(V dL)| by |V| |dL|."""
    cx, cy = float(Y[0]), float(Y[1])
    if cy == 0.0:
        raise GeometryError("inclusion centre must lie off the interface line")
    p = complex(cx, cy)
    mu0 = field.kernel.mu0
    s_p = -0.5 * (material.mu1 + material.mu2)
    s_q = -(material.mu1 - material.mu2)
    half_mu = 0.5 * field.mu_star
    w_minus = s_p - half_mu * s_q

    # the weights xi [U] s_p + xi <U> s_q and kappa xi Phi^- s_p + xi <U> s_q
    # through <U> = -(mu_*/2) [U] and kappa xi Phi^- = -(xi |xi| / mu0) [U]
    # give X_q(u) = u [U] (w_minus D^-(q) + w_plus D^+(q)) for the pole
    # 1/(x - q)^2; [U] and dw1/dy are transforms of real functions, so the
    # integrand at -u is the conjugate of the one at u and the line folds
    # onto u > 0 as 2 Re[(iV/4pi) X_p + conj(iV/4pi) X_pbar] = Re(V K)
    def response(u):
        weight = u * field.jump_u(u)
        w_plus = -u * s_p / mu0 - half_mu * s_q
        m_p, p_p = _double_pole_transforms(p, u)
        m_c, p_c = _double_pole_transforms(p.conjugate(), u)
        return (0.5j / math.pi) * (weight * (w_minus * m_p + w_plus * p_p)
                                   + np.conj(weight * (w_minus * m_c
                                                       + w_plus * p_c)))

    xi_c = min(mu0, 1.0 / math.hypot(cx, cy))
    # past x_cut the layer transforms are in their boundary 1/(i xi) regime
    # (pole parts ~ e^{-|xi cy|} dead) and the weight factors in theirs
    x_cut = max(120.0 / abs(cy) + 120.0 / math.hypot(cx, cy),
                20.0 * mu0, 4.0 * xi_c) * max(1.0, spec.truncation_radius / 1e4)
    seeds = []
    if abs(cx) > 1e-12:
        width = math.pi / (2.0 * abs(cx))
        top = min(x_cut, 60.0 / abs(cy))
        n_osc = int(min((top - xi_c) / width, 3000.0))
        seeds = [xi_c + (k + 1) * width for k in range(n_osc)]

    total, est = half_line(response, xi_c, x_cut, spec, seeds)

    # tail: K decays like (a ln u + b)/u^2 + c/u^3 even where each
    # half-line alone is O(1/u) (the kappa xi Phi^- Pbar^+ term); fit the
    # three-term model and integrate it in closed form, with the half-scale
    # refit as residual
    def fitted_tail(anchor):
        us = anchor * np.array([0.5, 1.0 / math.sqrt(2.0), 1.0])
        basis = np.column_stack([np.log(us) / us ** 2, 1.0 / us ** 2,
                                 1.0 / us ** 3])
        abc = np.linalg.solve(basis, response(us))
        return (abc[0] * (1.0 + math.log(x_cut)) / x_cut
                + abc[1] / x_cut + abc[2] / (2.0 * x_cut ** 2))

    tail = fitted_tail(x_cut)
    est += abs(tail - fitted_tail(0.5 * x_cut))

    front = -0.5 * math.sqrt(mu0 / math.pi)
    L = front * (total + tail)
    v = np.asarray(v, dtype=float)
    delta = v[0] * L.real - v[1] * L.imag
    err = abs(front) * np.hypot(v[0], v[1]) * est
    if v.ndim == 1:
        return float(delta), float(err)
    return delta, err


def delta_sigma0(load: CrackLoad, material: Bimaterial, inc: InclusionSpec,
                 spec=None, solution=None, field=None,
                 min_angle_deg=5.0) -> PerturbationResult:
    """First-order crack-tip traction change eps^2 * delta_sigma0 induced by
    the inclusion; sign classified against the error-estimate neutrality
    band. sigma0_base is computed once per field, load and spec: pass one
    prebuilt solution and field to a run of calls over many inclusions."""
    spec = spec or QuadratureSpec()
    if solution is None:
        solution = UnperturbedSolution(load, material, spec=spec)
    if field is None:
        field = WeightField(material, a=load.reference_length, spec=spec,
                            kernel=solution.kernel)
    Y = inclusion_centre(inc)
    G = solution.grad_u0(Y, min_angle_deg=min_angle_deg)
    M = dipole_for(inc)
    delta, est = _delta_from_v(field, material, M @ np.asarray(G, dtype=float),
                               Y, spec)
    # sigma0 depends on the load and the material, not on the inclusion, so
    # calls that share a field share it; CrackLoad and QuadratureSpec are
    # frozen, so any other load or spec misses and is computed afresh
    memo = field.sigma0_memo
    if memo is not None and memo[0] == load and memo[1] == spec:
        base = memo[2]
    else:
        base = _sigma0(load, material, spec, field=field).sigma0
        field.sigma0_memo = (load, spec, base)
    return PerturbationResult(
        delta_sigma0=delta, sign=_classify(delta, est, base),
        est_error=est,
        sigma0_base=base,
        sigma0_total=base + inc.epsilon ** 2 * delta,
        epsilon=inc.epsilon)


@dataclass
class SignMapResult:
    phi: np.ndarray
    alpha: np.ndarray
    delta: np.ndarray
    est_error: np.ndarray
    sign: np.ndarray  # strings: shielding | neutral | amplifying


def sign_map(load: CrackLoad, material: Bimaterial, inc: InclusionSpec,
             phi_grid, alpha_grid, spec=None,
             min_angle_deg=5.0) -> SignMapResult:
    """delta_sigma0 sign over a (phi, alpha) grid for the inclusion inc; the
    grids replace inc.phi and inc.alpha, its distance and shape stay.

    delta is real-linear in v = M G: per phi the complex response L is
    integrated once and every alpha is Re(V L)."""
    spec = spec or QuadratureSpec()
    phi_grid = np.asarray(phi_grid, dtype=float)
    alpha_grid = np.asarray(alpha_grid, dtype=float)
    solution = UnperturbedSolution(load, material, spec=spec)
    field = WeightField(material, a=load.reference_length, spec=spec,
                        kernel=solution.kernel)
    base = _sigma0(load, material, spec, field=field).sigma0
    delta = np.empty((phi_grid.size, alpha_grid.size))
    est = np.empty_like(delta)
    for i, phi in enumerate(phi_grid):
        at = replace(inc, phi=phi)
        Y = inclusion_centre(at)
        G = np.asarray(solution.grad_u0(Y, min_angle_deg=min_angle_deg))
        v = np.column_stack([dipole_for(replace(at, alpha=alpha)) @ G
                             for alpha in alpha_grid])
        delta[i], est[i] = _delta_from_v(field, material, v, Y, spec)
    return SignMapResult(phi=phi_grid, alpha=alpha_grid, delta=delta,
                         est_error=est, sign=_classify(delta, est, base))
