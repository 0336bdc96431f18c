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
[U] evaluation per node. dw1/dy is rational with double poles at Y and its
conjugate, so its half-line transforms reduce to exponential-integral
closed forms; the x < 0 and x > 0 transforms evaluate e^z E1(z) at the same
z = i xi q, so both come from one e^z E1(z) per pole per node. [U] and
dw1/dy are transforms of real functions, so the whole integrand at -xi is
the conjugate of the one at xi: the line folds onto xi > 0 as twice the
real part of both integrands, integrated in one numerics.half_line pass
(the xi = s^2 head and the seeded mid). The conditionally convergent
kappa xi Phi^- Pbar^+ tail is absolutely convergent once folded and is
closed with a log-augmented algebraic fit integrated exactly.
"""

import math
from dataclasses import dataclass
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


class _LayerTransforms:
    """Exact half-line transforms of dw1/dy via partial fractions.

    dy is rational with double poles at p = cx + i cy and its conjugate, so
    both transforms reduce to exponential-integral closed forms, which the
    tests cross-check against direct half-line quadrature. The two sides
    share their exponential integrals (_pole_transforms), so pair() costs
    one e^z E1(z) per pole per node. dy is real, so each transform at -xi
    is the conjugate of its value at xi."""

    def __init__(self, v, Y):
        self.v = np.asarray(v, dtype=float)
        self.cx, self.cy = float(Y[0]), float(Y[1])
        if self.cy == 0.0:
            raise GeometryError("inclusion centre must lie off the interface line")
        d2 = self.cx ** 2 + self.cy ** 2
        self.scale = math.sqrt(d2)
        p = complex(self.cx, self.cy)
        self.poles = (p, p.conjugate())
        xs = self.cx + abs(self.cy) * np.array([0.83, 2.31, -1.57, 3.79])
        basis = np.column_stack([1.0 / (xs - p), 1.0 / (xs - p) ** 2,
                                 1.0 / (xs - p.conjugate()),
                                 1.0 / (xs - p.conjugate()) ** 2])
        self.coeffs = np.linalg.solve(basis, self._dy(xs).astype(complex))
        # xi = 0 values from the elementary antiderivative
        # (cy v0 + (x - cx) v1)/(2 pi rho^2)
        self._t_minus_0 = (self.cy * self.v[0] - self.cx * self.v[1]) / (2.0 * math.pi * d2)

    def _dy(self, x):
        return _dy_from_v(x, self.v, (self.cx, self.cy))

    def pair(self, xi):
        """The transforms of dy over x < 0 and over x > 0 at the flattened
        xi, from one e^z E1(z) per pole per node."""
        xi = np.atleast_1d(np.asarray(xi, dtype=float)).ravel()
        minus = np.empty(xi.shape, dtype=complex)
        plus = np.empty(xi.shape, dtype=complex)
        tiny = np.abs(xi) * self.scale < 1e-9
        minus[tiny] = self._t_minus_0
        plus[tiny] = -self._t_minus_0
        live = ~tiny
        if np.any(live):
            w = xi[live]
            acc_m = np.zeros(w.shape, dtype=complex)
            acc_p = np.zeros(w.shape, dtype=complex)
            a1, b1, a2, b2 = self.coeffs
            for q, alpha, beta in ((self.poles[0], a1, b1),
                                   (self.poles[1], a2, b2)):
                j_pos, j_neg = _pole_transforms(q, w)
                # 1/(x - q) and 1/(x - q)^2 over x > 0, and over x < 0
                # through x -> -x
                acc_p += alpha * j_pos + beta * (1j * w * j_pos - 1.0 / q)
                acc_m += -alpha * j_neg + beta * (1.0 / q - 1j * w * j_neg)
            minus[live] = acc_m
            plus[live] = acc_p
        return minus, plus

    def minus(self, xi):
        """Transform of dy over x < 0."""
        out = self.pair(xi)[0]
        return out.reshape(np.shape(xi)) if np.ndim(xi) else complex(out[0])

    def plus(self, xi):
        """Transform of dy over x > 0."""
        out = self.pair(xi)[1]
        return out.reshape(np.shape(xi)) if np.ndim(xi) else complex(out[0])


# ----------------------------------------------------------------------
# the first-order correction
# ----------------------------------------------------------------------

@dataclass
class PerturbationResult:
    """delta_sigma0 with its error estimate and the label it implies.

    est_error bounds the quadrature of the second Betti integral: its
    adaptive head and mid and its fitted tail. It does not cover the PCHIP
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
    """The two Betti integrals for one boundary-layer strength vector v."""
    layer = _LayerTransforms(v, Y)
    mu0 = field.kernel.mu0
    s_p = -0.5 * (material.mu1 + material.mu2)
    s_q = -(material.mu1 - material.mu2)
    half_mu = 0.5 * field.mu_star
    w_minus = s_p - half_mu * s_q

    # the weights xi [U] s_p + xi <U> s_q and kappa xi Phi^- s_p + xi <U> s_q
    # through <U> = -(mu_*/2) [U] and kappa xi Phi^- = -(xi |xi| / mu0) [U];
    # [U] and dw1/dy are transforms of real functions, so the integrand at
    # -u is the conjugate of the one at u and the whole line folds onto
    # u > 0 as twice the real part
    def folded(u):
        t_minus, t_plus = layer.pair(u)
        weight = u * field.jump_u(u)
        f = weight * (w_minus * t_minus
                      + (-u * s_p / mu0 - half_mu * s_q) * t_plus)
        return 2.0 * f.real

    xi_c = min(mu0, 1.0 / math.hypot(*Y))
    # past x_cut the layer transforms are in their boundary 1/(i xi) regime
    # (pole parts ~ e^{-|xi cy|} dead) and the weight factors in theirs
    x_cut = max(120.0 / abs(layer.cy) + 120.0 / math.hypot(*Y),
                20.0 * mu0, 4.0 * xi_c) * max(1.0, spec.truncation_radius / 1e4)
    seeds = []
    if abs(layer.cx) > 1e-12:
        width = math.pi / (2.0 * abs(layer.cx))
        top = min(x_cut, 60.0 / abs(layer.cy))
        n_osc = int(min((top - xi_c) / width, 3000.0))
        seeds = [xi_c + (k + 1) * width for k in range(n_osc)]

    total, est = half_line(folded, xi_c, x_cut, spec, seeds)

    # tail: the folded integrand decays like (a ln u + b)/u^2 + c/u^3 even
    # where each half-line alone is O(1/u) (the kappa xi Phi^- Pbar^+ term);
    # fit the three-term model and integrate it in closed form, with the
    # half-scale refit as residual
    def fitted_tail(anchor):
        us = anchor * np.array([0.5, 1.0 / math.sqrt(2.0), 1.0])
        basis = np.column_stack([np.log(us) / us ** 2, 1.0 / us ** 2,
                                 1.0 / us ** 3])
        abc = np.linalg.solve(basis, folded(us))
        return (abc[0] * (1.0 + math.log(x_cut)) / x_cut
                + abc[1] / x_cut + abc[2] / (2.0 * x_cut ** 2))

    tail = fitted_tail(x_cut)
    est += abs(tail - fitted_tail(0.5 * x_cut))

    front = -0.5 * math.sqrt(mu0 / math.pi)
    return float(front * (total.real + tail)), float(abs(front) * est)


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
    v = M @ np.asarray(G, dtype=float)
    if np.any(v):
        delta, est = _delta_from_v(field, material, v, Y, spec)
    else:
        delta, est = 0.0, 0.0  # a neutral inclusion leaves no boundary layer
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


def sign_map(load: CrackLoad, material: Bimaterial, d, nu_star, e, ell_a,
             phi_grid, alpha_grid, spec=None, rigid=False,
             min_angle_deg=5.0) -> SignMapResult:
    """delta_sigma0 sign over a (phi, alpha) grid at fixed distance and shape.

    The pipeline is linear in v = M G: per phi the two basis responses
    (v = e1, e2) are integrated once and every alpha is a dot product."""
    spec = spec or QuadratureSpec()
    phi_grid = np.asarray(phi_grid, dtype=float)
    alpha_grid = np.asarray(alpha_grid, dtype=float)
    ell_b = e * ell_a
    solution = UnperturbedSolution(load, material, spec=spec)
    field = WeightField(material, a=load.reference_length, spec=spec,
                        kernel=solution.kernel)
    base = _sigma0(load, material, spec, field=field).sigma0
    delta = np.empty((phi_grid.size, alpha_grid.size))
    est = np.empty_like(delta)
    for i, phi in enumerate(phi_grid):
        Y = (d * math.cos(phi), d * math.sin(phi))
        G = np.asarray(solution.grad_u0(Y, min_angle_deg=min_angle_deg))
        l1, e1 = _delta_from_v(field, material, np.array([1.0, 0.0]), Y, spec)
        l2, e2 = _delta_from_v(field, material, np.array([0.0, 1.0]), Y, spec)
        for j, alpha in enumerate(alpha_grid):
            if rigid:
                M = dipole_rigid(ell_a, ell_b, alpha)
            else:
                M = dipole_elliptic(ell_a, ell_b, alpha, nu_star)
            v = M @ G
            delta[i, j] = l1 * v[0] + l2 * v[1]
            est[i, j] = abs(e1 * v[0]) + abs(e2 * v[1])
    return SignMapResult(phi=phi_grid, alpha=alpha_grid, delta=delta,
                         est_error=est, sign=_classify(delta, est, base))
