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
dw1/dy is rational with double poles at Y and its conjugate, so its
half-line transforms reduce to exponential-integral closed forms; the
conditionally convergent kappa xi Phi^- Pbar^+ tail becomes absolutely
convergent after folding the two half-lines and is closed with a
log-augmented algebraic fit integrated exactly.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import exp1

from .errors import DomainError, GeometryError
from .model import Bimaterial, CrackLoad, InclusionSpec, inclusion_centre
from .numerics import QuadratureSpec, integrate_err
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


def _pole_transform_pos(q, xi):
    """int_0^inf e^{i xi x}/(x - q) dx for complex q off [0, inf), xi != 0.

    Equals e^{i xi q} E1(i xi q) continued across the E1 cut: the principal
    branch jumps where i xi q crosses the negative real axis (xi Im q > 0 as
    Re q changes sign), so a residue term sign(xi) 2 pi i e^{i xi q} is added
    on the Re q > 0 side. Verified against direct quadrature in tests."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    z = 1j * xi * q
    if q.real >= 0.0 and q.imag != 0.0:
        on_cut = z.imag == 0.0
        if np.any(on_cut):
            z = np.where(on_cut, z - 1j * np.sign(xi) * 1e-290, z)
    out = _scaled_e1(z)
    corr = (xi * q.imag > 0.0) & (q.real > 0.0)
    if np.any(corr):
        out[corr] += np.sign(xi[corr]) * 2j * math.pi * np.exp(1j * xi[corr] * q)
    return out


class _LayerTransforms:
    """Exact half-line transforms of dw1/dy via partial fractions.

    dy is rational with double poles at p = cx + i cy and its conjugate, so
    both transforms reduce to exponential-integral closed forms, which the
    tests cross-check against direct half-line quadrature. Negative xi
    follows from dy being real."""

    def __init__(self, v, Y, spec=None):
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

    def _eval(self, xi, plus_side):
        xi = np.atleast_1d(np.asarray(xi, dtype=float)).ravel()
        out = np.zeros(xi.shape, dtype=complex)
        tiny = np.abs(xi) * self.scale < 1e-9
        if np.any(tiny):
            out[tiny] = -self._t_minus_0 if plus_side else self._t_minus_0
        live = ~tiny
        if np.any(live):
            w = xi[live]
            acc = np.zeros(w.shape, dtype=complex)
            a1, b1, a2, b2 = self.coeffs
            for q, alpha, beta in ((self.poles[0], a1, b1),
                                   (self.poles[1], a2, b2)):
                if plus_side:
                    j = _pole_transform_pos(q, w)
                    k = -1.0 / q + 1j * w * j
                else:
                    j = -_pole_transform_pos(-q, -w)
                    k = _pole_transform_pos(-q, -w) * (-1j * w) + (-1.0 / (-q))
                acc += alpha * j + beta * k
            out[live] = acc
        return out

    def minus(self, xi):
        """Transform of dy over x < 0."""
        out = self._eval(xi, plus_side=False)
        return out.reshape(np.shape(xi)) if np.ndim(xi) else complex(out[0])

    def plus(self, xi):
        """Transform of dy over x > 0."""
        out = self._eval(xi, plus_side=True)
        return out.reshape(np.shape(xi)) if np.ndim(xi) else complex(out[0])


# ----------------------------------------------------------------------
# the first-order correction
# ----------------------------------------------------------------------

@dataclass
class PerturbationResult:
    delta_sigma0: float
    sign: str
    est_error: float
    sigma0_base: Optional[float] = None
    sigma0_total: Optional[float] = None
    epsilon: Optional[float] = None


def _classify(delta, est):
    if abs(delta) <= est:
        return "neutral"
    return "amplifying" if delta > 0 else "shielding"


def _delta_from_v(field: WeightField, material: Bimaterial, v, Y, spec):
    """The two Betti integrals for one boundary-layer strength vector v."""
    layer = _LayerTransforms(v, Y, spec)
    kernel = field.kernel
    mu0 = kernel.mu0
    kappa = material.kappa
    s_p = -0.5 * (material.mu1 + material.mu2)
    s_q = -(material.mu1 - material.mu2)

    def w1(xi):
        return xi * (field.jump_u(xi) * s_p + field.avg_u(xi) * s_q)

    def w2(xi):
        return (kappa * xi * field.phi_minus(xi) * s_p
                + xi * field.avg_u(xi) * s_q)

    def i1(xi):
        return w1(xi) * layer.minus(xi)

    def i2(xi):
        return w2(xi) * layer.plus(xi)

    xi_c = min(mu0, 1.0 / math.hypot(*Y))
    # past x_cut the layer transforms are in their boundary 1/(i xi) regime
    # (pole parts ~ e^{-|xi cy|} dead) and the weight factors in theirs
    x_cut = max(120.0 / abs(layer.cy) + 120.0 / math.hypot(*Y),
                20.0 * mu0, 4.0 * xi_c) * max(1.0, spec.truncation_radius / 1e4)

    total = 0.0 + 0.0j
    est = 0.0
    for f in (i1, i2):
        for sign in (1.0, -1.0):
            def head(t, f=f, sign=sign):
                return f(sign * t * t) * 2.0 * t

            t0 = math.sqrt(xi_c)
            v_, e_ = integrate_err(head, 0.0, t0, spec,
                                   breakpoints=[t0 * 2.0 ** (-j) for j in range(1, 24)])
            total += v_
            est += e_

            seeds = set()
            q = xi_c
            while q < x_cut:
                seeds.add(q)
                q *= 2.0
            if abs(layer.cx) > 1e-12:
                width = math.pi / (2.0 * abs(layer.cx))
                top = min(x_cut, 60.0 / abs(layer.cy))
                n_osc = int(min((top - xi_c) / width, 3000.0))
                seeds.update(xi_c + (k + 1) * width for k in range(n_osc))

            def mid(u, f=f, sign=sign):
                return f(sign * u)

            v_, e_ = integrate_err(mid, xi_c, x_cut, spec, breakpoints=sorted(seeds))
            total += v_
            est += e_

        # symmetric tail: the folded integrand decays like
        # (a ln u + b)/u^2 + c/u^3 even where each half alone is O(1/u)
        # (the kappa xi Phi^- Pbar^+ term); fit the three-term model and
        # integrate it in closed form, with the half-scale refit as residual
        def folded(u, f=f):
            return f(u) + f(-u)

        def fitted_tail(anchor):
            us = anchor * np.array([0.5, 1.0 / math.sqrt(2.0), 1.0])
            basis = np.column_stack([np.log(us) / us ** 2, 1.0 / us ** 2,
                                     1.0 / us ** 3])
            abc = np.linalg.solve(basis.astype(complex), folded(us))
            return (abc[0] * (1.0 + math.log(x_cut)) / x_cut
                    + abc[1] / x_cut + abc[2] / (2.0 * x_cut ** 2))

        tail = fitted_tail(x_cut)
        tail_check = fitted_tail(0.5 * x_cut)
        total += tail
        est += abs(tail - tail_check)

    front = -0.5 * math.sqrt(mu0 / math.pi)
    value = front * total
    return float(value.real), abs(front) * est + abs(value.imag)


def delta_sigma0(load: CrackLoad, material: Bimaterial, inc: InclusionSpec,
                 spec=None, solution=None, field=None,
                 min_angle_deg=5.0) -> PerturbationResult:
    """First-order crack-tip traction change eps^2 * delta_sigma0 induced by
    the inclusion; sign classified against the error-estimate neutrality
    band."""
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
    base = _sigma0(load, material, spec, field=field)
    return PerturbationResult(
        delta_sigma0=delta, sign=_classify(delta, est), est_error=est,
        sigma0_base=base.sigma0,
        sigma0_total=base.sigma0 + inc.epsilon ** 2 * delta,
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
    signs = np.where(np.abs(delta) <= est, "neutral",
                     np.where(delta > 0, "amplifying", "shielding"))
    return SignMapResult(phi=phi_grid, alpha=alpha_grid, delta=delta,
                         est_error=est, sign=signs)
