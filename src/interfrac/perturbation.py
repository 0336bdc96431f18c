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
integrands are xi [U] times a load factor, so the weight function is one
read per node of the field's table of [U] (WeightField._weight_table).
dw1/dy = Re[iV/(x - p)^2]/(2 pi), with V = v_x + i v_y for v = M G and
p = Y_x + i Y_y, has two double poles and no simple ones; the half-line transforms of 1/(x - q)^2 follow by parts from
exponential-integral closed forms, and the x < 0 and x > 0 sides evaluate
e^z E1(z) at the same z = i xi q, so both come from one e^z E1(z) per pole
per node; both poles of a node batch share one call of the vectorised
_kernels.scaled_e1. [U] and dw1/dy are transforms of real functions, so the
whole integrand at -xi is the conjugate of the one at xi: the line folds
onto xi > 0 as twice its real part, which is Re(V K) for a K that depends
on the position Y alone. So dsigma0 = Re(V L) with one complex response L
per position, integrated in one numerics.half_line pass (the xi = s^2 head
and the seeded mid) whatever the dipole; sign_map serves every orientation
at one position from it. The conditionally convergent kappa xi Phi^- Pbar^+
tail is absolutely convergent once folded and is closed by
numerics.algebraic_tail, a log-augmented algebraic fit integrated exactly.
"""

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import _kernels
from .errors import DomainError, GeometryError
from .model import Bimaterial, CrackLoad, InclusionSpec, inclusion_centre
# integrate_err has no caller here; perfbench/tracer.py patches it by name
from .numerics import (QuadratureSpec, algebraic_tail, half_line,
                       integrate_err, period_seeds)
from .unperturbed import UnperturbedSolution
from .weightfn import WeightField, _refuse_other_material, sigma0 as _sigma0


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
# transforms of the boundary layer on the crack line
# ----------------------------------------------------------------------

def _pole_transforms(q, xi):
    """(J(q, xi), J(-q, -xi)) with J(q, xi) = int_0^inf e^{i xi x}/(x - q) dx,
    for complex q off the real axis and xi != 0. q may be one pole or a 1-d
    array of poles, one row of the result each, so that one
    _kernels.scaled_e1 call serves every pole of a node batch.

    Both are e^z E1(z) at the same z = i xi q, continued across the E1 cut,
    so one e^z E1(z) serves the pair and only the continuations differ. The
    principal branch jumps where z crosses the negative real axis (xi Im q
    > 0 as Re q changes sign): at the nodes with xi Im q > 0, J(q, xi)
    gains sign(xi) 2 pi i e^z where Re q > 0, and J(-q, -xi) loses it where
    Re q < 0. Where z is real (Re q == 0) the two sides are the opposite
    limits onto the cut, so J(-q, -xi) is J(q, xi) minus that jump wherever
    z < 0, again at xi Im q > 0. A pole's row thus takes the jump at every
    node, at none or at one sign of xi; on the folded line xi > 0, at every
    node of the pole with Im q > 0. e^z is computed only where the jump
    applies; elsewhere it may overflow. Checked against the two separate
    continuations and direct quadrature in tests."""
    q = np.asarray(q, dtype=complex)
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    z = 1j * xi * q[..., None]
    rows = z.reshape(-1, xi.size)
    poles = q.ravel()
    cut = poles.real == 0.0
    if cut.any():
        # the sign of a zero imaginary part picks the side of the cut
        rows.imag[cut] = np.copysign(0.0, -np.sign(xi))
    pos = _kernels.scaled_e1(rows)
    neg = pos.copy()
    up = xi > 0.0
    n_up = np.count_nonzero(up)
    for i, p in enumerate(poles.tolist()):
        above = p.imag > 0.0
        count = n_up if above else xi.size - n_up
        if count:
            cols = slice(None) if count == xi.size else (up if above else ~up)
            jump = (2j if above else -2j) * math.pi * np.exp(rows[i, cols])
            if p.real > 0.0:
                pos[i, cols] += jump
            else:
                neg[i, cols] -= jump
    return pos.reshape(z.shape), neg.reshape(z.shape)


def _double_pole_transforms(q, u):
    """The transforms of 1/(x - q)^2 over x < 0 and over x > 0 at u != 0,
    by parts from _pole_transforms: 1/q - iu J(-q, -u) and iu J(q, u) - 1/q,
    so both cost one e^z E1(z) per pole per node. q is one pole or a 1-d
    array of them, as in _pole_transforms."""
    j_pos, j_neg = _pole_transforms(q, u)
    inv = 1.0 / np.asarray(q, dtype=complex)[..., None]
    return inv - 1j * u * j_neg, 1j * u * j_pos - inv


# ----------------------------------------------------------------------
# the first-order correction
# ----------------------------------------------------------------------

@dataclass
class PerturbationResult:
    """delta_sigma0 with its error estimate and the label it implies.

    est_error bounds the quadrature of the second Betti integral: its
    adaptive head and mid and its fitted tail (numerics.algebraic_tail).
    It is |V| e_L, with e_L the estimate of the complex response L and
    delta_sigma0 = Re(V L), so it bounds |Re(V dL)| by |V| |dL| and is
    looser than an estimate of the real integrand alone (2x in the median
    and up to 158x, where Re(V dL) cancels, on 200 seeded inclusions). It
    covers neither the tables the pipeline reads nor the gradient error;
    the estimate says nothing about them. The tables are the PCHIP Hhat
    behind the phase of B^+, the phi^+ LogTable behind grad_u0, which
    carries that Hhat's error, and the field's weight table behind the
    weight u [U] (WeightField._weight_table: within 7.3e-9 relative of the
    kernel's u [U] outside u/mu0 in [0.8, 6], within 9.0e-7 inside, and
    there no farther than the kernel's from the direct-Hhat weight; it
    moved delta_sigma0 by at most 0.04 est_error, 6.8e-8 relative, on 209
    delta_warm cases). sign is shielding where |sigma0| falls (sigma0_base *
    delta_sigma0 < 0), amplifying where it rises, and neutral when
    |delta_sigma0| <= est_error.
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


def _delta_from_v(field: WeightField, v, Y, spec):
    """The second Betti integral for boundary-layer strengths v = M G, of
    shape (2,) or (2, k): returns (delta, est), floats or k-arrays.

    dw1/dy = Re[iV/(x - p)^2]/(2 pi) with V = v_x + i v_y and p = Y_x + i Y_y,
    so delta = Re(V L) for one complex response L of the position alone; L
    is integrated once, whatever v, and est = |V| e_L, with e_L the
    estimate of L, bounds |Re(V dL)| by |V| |dL|. The line is seeded one
    period of the poles' e^{-i u cx} apart (numerics.period_seeds) out to
    min(x_cut, 60/|cy|), where their e^{-u |cy|} has died; past x_cut, K
    decays like (a ln u + b)/u^2 + c/u^3 even where each half-line alone is
    O(1/u) (the kappa xi Phi^- Pbar^+ term), and numerics.algebraic_tail
    closes it. The weight u [U] is the field's weight table over sqrt(u)
    (WeightField._weight_table, built by the first call on the field and
    rebuilt when x_cut passes its top), so a node costs no kernel factor."""
    cx, cy = float(Y[0]), float(Y[1])
    if cy == 0.0:
        raise GeometryError("inclusion centre must lie off the interface line")
    p = complex(cx, cy)
    mu0 = field.kernel.mu0
    material = field.material
    s_p = -0.5 * (material.mu1 + material.mu2)
    s_q = -(material.mu1 - material.mu2)
    half_mu = 0.5 * field.mu_star
    w_minus = s_p - half_mu * s_q

    xi_c = min(mu0, 1.0 / math.hypot(cx, cy))
    # past x_cut the layer transforms are in their boundary 1/(i xi) regime
    # (pole parts ~ e^{-|xi cy|} dead) and the weight factors in theirs
    x_cut = max(120.0 / abs(cy) + 120.0 / math.hypot(cx, cy),
                20.0 * mu0, 4.0 * xi_c) * max(1.0, spec.truncation_radius / 1e4)
    table = field._weight_table(x_cut)

    # the weights xi [U] s_p + xi <U> s_q and kappa xi Phi^- s_p + xi <U> s_q
    # through <U> = -(mu_*/2) [U] and kappa xi Phi^- = -(xi |xi| / mu0) [U]
    # give X_q(u) = u [U] (w_minus D^-(q) + w_plus D^+(q)) for the pole
    # 1/(x - q)^2; [U] and dw1/dy are transforms of real functions, so the
    # integrand at -u is the conjugate of the one at u and the line folds
    # onto u > 0 as 2 Re[(iV/4pi) X_p + conj(iV/4pi) X_pbar] = Re(V K)
    poles = np.array([p, p.conjugate()])

    def response(u):
        weight = table(u) / np.sqrt(u)
        w_plus = -u * s_p / mu0 - half_mu * s_q
        minus, plus = _double_pole_transforms(poles, u)
        x = weight * (w_minus * minus + w_plus * plus)
        return (0.5j / math.pi) * (x[0] + np.conj(x[1]))
    seeds = ()
    if abs(cx) > 1e-12:
        seeds = period_seeds(xi_c, min(x_cut, 60.0 / abs(cy)), abs(cx))

    total, est = half_line(response, xi_c, x_cut, spec, seeds)
    tail, e_tail = algebraic_tail(response, x_cut)

    front = -0.5 * math.sqrt(mu0 / math.pi)
    L = front * (total + tail)
    v = np.asarray(v, dtype=float)
    delta = v[0] * L.real - v[1] * L.imag
    err = abs(front) * np.hypot(v[0], v[1]) * (est + e_tail)
    if v.ndim == 1:
        return float(delta), float(err)
    return delta, err


def _prepare(load, material, spec, solution, positions, field=None):
    """(spec, solution, field, sigma0_base) for a call on load and
    material at the inclusion centres `positions`. A solution or field
    built for another material, or a solution built for another load,
    raises DomainError; whatever was not passed is built. Every position
    then passes solution.check_position, so a refused one raises
    GeometryError before sigma0 is computed. sigma0 depends on the load and
    the material, not on the inclusion, so calls that share a field share
    it through field.sigma0_memo; CrackLoad and QuadratureSpec are frozen,
    so any other load or spec misses and is computed afresh."""
    _refuse_other_material(material, solution, field)
    if solution is not None and solution.load != load:
        raise DomainError("the UnperturbedSolution passed was built for "
                          "another load; pass the load it was built for")
    spec = spec or QuadratureSpec()
    if solution is None:
        solution = UnperturbedSolution(load, material, spec=spec)
    for Y in positions:
        solution.check_position(Y)
    if field is None:
        field = WeightField(material, a=load.reference_length, spec=spec,
                            kernel=solution.kernel)
    memo = field.sigma0_memo
    if memo is None or memo[0] != load or memo[1] != spec:
        memo = field.sigma0_memo = (
            load, spec, _sigma0(load, material, spec, field=field).sigma0)
    return spec, solution, field, memo[2]


def delta_sigma0(load: CrackLoad, material: Bimaterial, inc: InclusionSpec,
                 spec=None, solution=None, field=None) -> PerturbationResult:
    """First-order crack-tip traction change eps^2 * delta_sigma0 induced by
    the inclusion; sign classified against the error-estimate neutrality
    band. sigma0_base is computed once per field, load and spec: pass one
    prebuilt solution and field to a run of calls over many inclusions. A
    solution or field built for another material, or a solution built for
    another load, raises DomainError."""
    Y = inclusion_centre(inc)
    spec, solution, field, base = _prepare(load, material, spec, solution,
                                           [Y], field)
    G = solution.grad_u0(Y)
    M = dipole_for(inc)
    delta, est = _delta_from_v(field, M @ np.asarray(G, dtype=float), Y, spec)
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
             phi_grid, alpha_grid, spec=None, solution=None) -> SignMapResult:
    """delta_sigma0 sign over a (phi, alpha) grid for the inclusion inc; the
    grids replace inc.phi and inc.alpha, its distance and shape stay. A
    prebuilt solution for (load, material) may be passed, as to delta_sigma0;
    one built for another material or load raises DomainError.

    delta is real-linear in v = M G: per phi the complex response L is
    integrated once and every alpha is Re(V L). Every position is checked
    before sigma0_base is computed; an empty alpha grid computes no
    response."""
    phi_grid = np.asarray(phi_grid, dtype=float)
    alpha_grid = np.asarray(alpha_grid, dtype=float)
    cells = [replace(inc, phi=phi) for phi in phi_grid]
    centres = [inclusion_centre(at) for at in cells]
    spec, solution, field, base = _prepare(load, material, spec, solution,
                                           centres)
    delta = np.empty((phi_grid.size, alpha_grid.size))
    est = np.empty_like(delta)
    for i, (at, Y) in enumerate(zip(cells, centres)):
        if not alpha_grid.size:
            break
        G = np.asarray(solution.grad_u0(Y))
        v = np.reshape([dipole_for(replace(at, alpha=alpha)) @ G
                        for alpha in alpha_grid], (-1, 2)).T
        delta[i], est[i] = _delta_from_v(field, v, Y, spec)
    return SignMapResult(phi=phi_grid, alpha=alpha_grid, delta=delta,
                         est_error=est, sign=_classify(delta, est, base))
