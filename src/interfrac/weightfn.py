"""Weight-function transforms and the Betti-identity evaluation of the
crack-tip traction constant sigma0, plus the perfect-interface comparison.

With unit normalization the weight-function transforms are

    Phi^-  = -xi_-^{1/2} / (kappa pi mu0 Xi_*^- Xi_0^- xi)      (tractions)
    Phi^+  = Xi_0^+ Xi_*^+ / (xi xi_+^{1/2})                    (jump, x>0 part)
    [U]    = 1 / (pi Xi_*^- Xi_0^- xi_+^{1/2} xi)               (displacement jump)
    <U>    = -(mu_*/2) [U]                                      (mean displacement)

and the Betti identity gives

    sigma0 = (1/2) sqrt(mu0/pi) int xi ([U] <p> + <U> [p]) dxi
           = (1/2) sqrt(mu0/pi) int xi [U] (<p> - (mu_*/2) [p]) dxi

over the real line, so the weight function enters through one [U]
evaluation per node: [U] = mu0 B^+ / (xi (|xi| + mu0)) reads the kernel's
polar B^+, with no log-gamma. The integrand is O(xi_+^{-1/2}) at 0 and
O(1/xi) times the load oscillation at infinity. Each half-line is
integrated by numerics.half_line (the xi = s^2 head and the seeded mid);
the oscillatory tail past X is summed by integration-by-parts asymptotics
per row of the load's point-force table; smooth-load tails decay
algebraically and are bounded from the declared decay exponent.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UnsupportedLoad
from .kernel import KernelFactors
from .model import Bimaterial, CrackLoad, derive_params
# integrate_err has no caller here; perfbench/tracer.py patches it by name
from .numerics import (LogTable, QuadratureSpec, half_line, integrate_err,
                       oscillatory_tail, period_seeds)


class WeightField:
    """Weight-function transforms for one material/reference-length pair.

    sigma0_memo is the (load, spec, sigma0) of the last sigma0 that
    perturbation._prepare (behind delta_sigma0 and sign_map) computed on
    this field, or None; _prepare alone replaces it, whole, in one
    assignment. The second Betti integral reads its weight u [U](u) from
    _weight_table, which the first such integral builds; sigma0 reads
    jump_u at every node and builds no table."""

    # the LogTable of _weight_table, None until its first call
    _weight = None

    def __init__(self, material: Bimaterial, a=1.0, spec=None, kernel=None):
        self.material = material
        self.params = derive_params(material, a)
        self.spec = spec or QuadratureSpec()
        self.kernel = kernel or KernelFactors(self.params.mu0)
        self.kappa = material.kappa
        self.mu_star = self.params.mu_star
        self.sigma0_memo = None

    def jump_u(self, xi):
        """Transform of the full displacement jump across the interface line,
        [U] = 1/(pi B^- xi_-^{1/2} xi_+^{1/2} xi) = mu0 B^+ / (xi (|xi| + mu0))
        by pi mu0 B^+ B^- = Xi and xi_+^{1/2} xi_-^{1/2} = |xi| (divided
        in turn, as xi (|xi| + mu0) overflows past |xi| ~ 1e154)."""
        arr = np.asarray(xi, dtype=float)
        k = self.kernel
        out = k.mu0 * k.b_plus(arr) / arr / (np.abs(arr) + k.mu0)
        return out if np.ndim(xi) else complex(out)

    def _weight_table(self, hi_needed):
        """LogTable of R(u) = u^{3/2} [U](u), u > 0, on [1e-14 mu0, top]
        with top = max(1e8 mu0, 2 hi_needed), 24 quintic panels per decade,
        built on first use and rebuilt when hi_needed passes its top (so a
        call that stays under 1e8 mu0 reads the same table whatever ran
        before it). R is a function of s = u/mu0 alone, the phase of B^+
        over sqrt(pi (1 + s)): smooth in ln s and tending to
        e^{i pi/4}/sqrt(pi) as s -> 0, so the clamped low end is within
        6e-14 below the table. Against u^{3/2} jump_u(u) the table is within
        7.3e-9 relative outside s in [0.8, 6] (median 3e-15). Inside, where
        the PCHIP Hhat behind B^+ is only C^1, it is off by up to 9.0e-7,
        but no farther from the direct-Hhat weight than jump_u is (9.2e-7
        against 9.3e-7 relative); the quintics smooth the PCHIP's curvature
        jumps, on which the quadrature would otherwise refine. A build is
        one jump_u call on 6 nodes per panel, 3168 at the default top. The
        panel count is picked for accuracy: on three sets of 209 delta_warm
        cases the second Betti integral stays within 0.19 est_error of a
        rel_tol = 1e-12 run on the direct-Hhat weight at 24 per decade,
        where at 20 one case used 0.63 of it."""
        table = self._weight
        if table is None or hi_needed > table.hi:
            mu0 = self.kernel.mu0
            lo, hi = 1e-14 * mu0, max(1e8 * mu0, 2.0 * hi_needed)
            table = self._weight = LogTable(
                lambda v: np.exp(1.5 * v) * self.jump_u(np.exp(v)), lo, hi,
                math.ceil(24 * math.log10(hi / lo)))
        return table


@dataclass
class Sigma0Result:
    """sigma0 with its error estimate.

    est_error bounds the Betti quadrature (head, mid and tails of both
    half-lines) plus the imaginary residue of the integral. B^+ reads its
    phase from a LogTable within 5e-15 of the phase of the PCHIP Hhat, but
    est_error does not cover the error of the PCHIP Hhat itself; until Hhat
    is evaluated exactly, the estimate says nothing about it.
    The gap is measured: for the point triple with b/a = 0.678 at
    mu* = 0.50, kappa* = 0.113, the phase from the direct Hhat
    (_kernels.pv_cauchy_batch at every node) moves sigma0 by 1.3e-8
    relative, 4.6 times the est_error of 2.85e-9 relative reported there.
    (The phi^+ table enters delta_sigma0 only.)
    """

    sigma0: float
    est_error: float
    integral: complex


def _refuse_other_material(material, *built):
    """DomainError when a prebuilt field or solution (None is skipped) was
    built for another material than the call's."""
    for b in built:
        if b is not None and b.material != material:
            raise DomainError(f"the {type(b).__name__} passed was built for "
                              f"{b.material}, not for {material}")


def _point_weights(load: CrackLoad, mu_star):
    """[(s_k, w_k)]: <p> - (mu_*/2)[p] = sum_k w_k e^{-i s_k xi}."""
    return [(s, a - 0.5 * mu_star * j) for s, a, j in load.oscillations]


def _betti_integrand(field: WeightField, load: CrackLoad):
    """f(xi) = xi([U]<p> + <U>[p]) = xi [U] (<p> - (mu_*/2)[p]), with one
    [U] evaluation per node."""
    def f(xi):
        avg_p, jump_p = load.transforms(xi)
        return xi * field.jump_u(xi) * (avg_p - 0.5 * field.mu_star * jump_p)

    return f


def _spectral_half(field: WeightField, load: CrackLoad, sign, spec):
    """int_0^inf f(sign u) du of the Betti integrand f: the head and mid by
    numerics.half_line, then an analytic tail. A point load's mid is seeded
    one period of its fastest oscillation e^{-i c_max u} apart
    (numerics.period_seeds)."""
    mu0 = field.kernel.mu0
    f = _betti_integrand(field, load)

    def f_signed(u):
        return f(sign * u)

    xi_c = min(mu0, math.pi / load.phase_scale)
    stretch = max(1.0, spec.truncation_radius / 1e4)
    if load.oscillations:
        c_min, c_max = load.oscillations[0][0], load.oscillations[-1][0]
        x_cut = max(4.0 * xi_c, 100.0 / c_min) * stretch
        body, e_body = half_line(f_signed, xi_c, x_cut, spec,
                                 seeds=period_seeds(xi_c, x_cut, c_max))

        def envelope(u):
            ss = sign * u
            return ss * field.jump_u(ss)

        tail = 0.0 + 0.0j
        e_tail = 0.0
        for shift, w in _point_weights(load, field.mu_star):
            if w == 0.0:
                continue
            v, r = oscillatory_tail(envelope, -shift * sign, x_cut)
            tail += w * v
            e_tail += abs(w) * r
    else:
        x_cut = max(4.0 * xi_c, 20.0 * mu0, 1e5 / load.reference_length) * stretch
        body, e_body = half_line(f_signed, xi_c, x_cut, spec)
        tail = 0.0 + 0.0j
        delta = load.decay_exponent or 1.0
        e_tail = abs(complex(np.asarray(f_signed(np.array([x_cut])))[0])) * x_cut / delta

    return body + tail, e_body + e_tail


def sigma0(load: CrackLoad, material: Bimaterial, spec=None, *,
           field=None) -> Sigma0Result:
    """Crack-tip traction constant of the unperturbed problem via the Betti
    identity.

    Both half-lines are integrated, but they carry no independent check:
    [U] and the load transforms are transforms of real functions, so the
    negative half-line comes out as the exact conjugate of the positive one
    (neg == conj(pos) and e_neg == e_pos, bitwise) and integral.imag is
    exactly 0.0; the |Im| term in est_error adds nothing. Folding onto one
    half-line, as delta_sigma0 does, would halve the work. It waits on a
    benchmark change, because perfbench/test_tracer.py hand-counts the
    integrate_err and tail calls of both half-lines.

    A field built for another material raises DomainError."""
    load.check_self_balance()
    _refuse_other_material(material, field)
    spec = spec or QuadratureSpec()
    if field is None:
        field = WeightField(material, a=load.reference_length, spec=spec)
    pos, e_pos = _spectral_half(field, load, +1.0, spec)
    neg, e_neg = _spectral_half(field, load, -1.0, spec)
    front = 0.5 * math.sqrt(field.kernel.mu0 / math.pi)
    total = front * (pos + neg)
    est = front * (e_pos + e_neg) + abs(total.imag)
    return Sigma0Result(sigma0=float(total.real), est_error=float(est),
                        integral=complex(total))


def k3_perfect(load: CrackLoad, material: Bimaterial, spec=None):
    """Perfect-interface stress intensity factor for the same loading:
    -sqrt(2/pi) int_0^inf {<p>(-r) - (mu_*/2)[p](-r)} r^{-1/2} dr,
    closed form for point loads, numerics.half_line on r < 144 for smooth
    loads. A point force at x = -s has the moment s^{-1/2}, so a load with
    a point-force table gets -sqrt(2/pi) sum_k w_k s_k^{-1/2} with the
    sigma0 tail weights w_k.

    The -mu_*/2 jump weight makes the bracket the exact kappa->0 limit
    functional of sigma0 (sigma0 -> sqrt(mu0/pi) * bracket moment), and is
    fixed independently by the rigid-lower-half-plane limit: at mu_* = -1
    the bracket must reduce to the upper-face load alone.
    """
    if load.oscillations:
        return -math.sqrt(2.0 / math.pi) * sum(
            w * s ** -0.5 for s, w in _point_weights(load, material.mu_star))
    if load.x_parts is None:
        raise UnsupportedLoad(
            "k3_perfect needs an x-domain form (point-triple or smooth loads)")
    spec = spec or QuadratureSpec()

    def f(r):
        avg, jump = load.x_parts(-r)
        return (avg - 0.5 * material.mu_star * jump) / np.sqrt(r)

    val, _ = half_line(f, 1.0, 144.0, spec)
    return -math.sqrt(2.0 / math.pi) * float(val.real)


def ratio_r(kappa_star, mu_star_1, mu_star_2, load: CrackLoad, spec=None):
    """r = [sigma0(pair1)/sigma0(pair2)] / [K3(pair1)/K3(pair2)] at one
    kappa_star.

    The pairs share the compliance kappa = kappa_star a / 2 (the mu_*=0
    reference conversion) and are normalised to a common harmonic mean,
    1/mu1 + 1/mu2 = 2, which makes mu0 = 2/kappa identical for both. Since
    sigma0 -> sqrt(mu0/pi) * (K-moment) as the interface becomes perfect,
    matched mu0 is the one normalisation under which r -> 1; with any other
    pairing mu0 differs between pairs (mu0 kappa_star a = 4/(1-mu_*^2)
    identically) and r -> sqrt((1-mu_*2^2)/(1-mu_*1^2)) instead. Bimaterial
    rejects a kappa_star that is not positive, and each mu_star must lie in
    (-1, 1)."""
    for name, ms in (("mu_star_1", mu_star_1), ("mu_star_2", mu_star_2)):
        if not -1.0 < ms < 1.0:
            raise DomainError(f"{name} must lie in (-1, 1), got {ms}")
    a = load.reference_length
    kappa = kappa_star * a / 2.0

    def pair(ms):
        return Bimaterial(mu1=1.0 / (1.0 - ms), mu2=1.0 / (1.0 + ms), kappa=kappa)

    m1 = pair(mu_star_1)
    m2 = pair(mu_star_2)
    s1 = sigma0(load, m1, spec).sigma0
    s2 = sigma0(load, m2, spec).sigma0
    k1 = k3_perfect(load, m1, spec)
    k2 = k3_perfect(load, m2, spec)
    if s2 == 0.0 or k2 == 0.0 or k1 == 0.0:
        raise ZeroDivisionError("sigma0 or K_III vanishes in the ratio")
    return (s1 / s2) / (k1 / k2)
