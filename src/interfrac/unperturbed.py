"""The load-driven (unperturbed) problem: Wiener-Hopf solution of the
crack-face loading equation and physical-domain gradients.

With B^+/- the combined kernel factors, the right-hand side

    g(b) = kappa Lambda(b) [p](b) / B^-(b) + kappa pi mu0 B^+(b) <p>(b),
    Lambda(b) = (1 - mu_* mu0 / |b|) / 2,

is decomposed into plus/minus parts by its Cauchy transform, with real-axis
boundary values L^+/-(xi) = +/- g(xi)/2 + (1/(2 pi i)) PV int g/(b - xi) db.
Then phi^+ = -L^+/(kappa pi mu0 B^+), phi_1^- = L^- B^-, and the transform
coefficients A_j of u_j(xi, y) = A_j(xi) e^{-|xi y|} follow from the load.
Gradients off the interface line come from the inverse transform, folded to
xi > 0 by conjugate symmetry. A PCHIP table of phi^+ over a log grid (exact
at its nodes, built on demand) accelerates the gradient quadratures; all
identity checks use the direct route.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import PchipInterpolator

from .errors import DomainError, GeometryError
from .kernel import KernelFactors
from .model import Bimaterial, CrackLoad, derive_params
from .numerics import (QuadratureSpec, algebraic_tail, integrate_err,
                       oscillatory_tail)


@dataclass(frozen=True)
class FieldSample:
    """One physical-domain sample of the unperturbed solution (y != 0)."""

    x: float
    y: float
    u: float
    gx: float
    gy: float


class UnperturbedSolution:
    """Spectral solution of the loaded problem for one (load, material)."""

    def __init__(self, load: CrackLoad, material: Bimaterial, spec=None,
                 kernel=None):
        load.check_self_balance()
        self.load = load
        self.material = material
        self.params = derive_params(material, load.reference_length)
        self.spec = spec or QuadratureSpec()
        self.kernel = kernel or KernelFactors(self.params.mu0)
        self.kappa = material.kappa
        self._phi_interp = None
        self._phi_interp_hi = 0.0

    # -- building blocks -------------------------------------------------------

    def lambda_factor(self, xi):
        """Lambda(xi) = (1 - mu_* mu0/|xi|)/2."""
        arr = self.kernel._checked(xi)
        out = 0.5 * (1.0 - self.params.mu_star * self.kernel.mu0 / np.abs(arr))
        return out if np.ndim(xi) else float(out)

    def g_rhs(self, beta):
        """Right-hand side whose Cauchy transform defines L^+/-."""
        arr = self.kernel._checked(beta)
        avg_p, jump_p = self.load.transforms(arr)
        mu0 = self.kernel.mu0
        out = self.kappa * (
            self.lambda_factor(arr) * jump_p / self.kernel.b_minus(arr)
            + math.pi * mu0 * self.kernel.b_plus(arr) * avg_p)
        return out if np.ndim(beta) else complex(out)

    def _osc_shifts(self):
        if not (self.load.osc_avg or self.load.osc_jump):
            return None
        return sorted({s for _, s in self.load.osc_avg + self.load.osc_jump})

    def _g_envelope(self, coeff_avg, coeff_jump):
        """Smooth prefactor of one e^{-i c beta} component of g."""
        mu0 = self.kernel.mu0

        def env(beta):
            return self.kappa * (
                self.lambda_factor(beta) * coeff_jump / self.kernel.b_minus(beta)
                + math.pi * mu0 * self.kernel.b_plus(beta) * coeff_avg)

        return env

    def _g_components(self):
        """[(shift, envelope)] such that g = sum envelope_k e^{-i shift_k b}."""
        table = {}
        for c, s in self.load.osc_avg or ():
            table.setdefault(s, [0.0, 0.0])[0] += c
        for c, s in self.load.osc_jump or ():
            table.setdefault(s, [0.0, 0.0])[1] += c
        return [(s, self._g_envelope(ca, cj)) for s, (ca, cj) in sorted(table.items())]

    # -- Cauchy transform and the L decomposition ------------------------------

    def _cauchy_pv(self, x):
        """PV int g(b)/(b - x) db over the real line, x real nonzero."""
        x = float(x)
        if x == 0.0:
            raise DomainError("Cauchy boundary values need xi != 0")
        spec = self.spec
        mu0 = self.kernel.mu0
        g = self.g_rhs
        gx = self.g_rhs(x)
        s = abs(x)
        shifts = self._osc_shifts()
        c_max = max(shifts) if shifts else 1.0 / self.load.reference_length
        c_min = min(shifts) if shifts else None

        half_w = min(0.5 * s, math.pi / (4.0 * c_max)) if shifts else 0.5 * s
        zone = min(mu0, 0.25 * s, math.pi / c_max)
        x_cut = (max(60.0 / c_min, 3.0 * s, 4.0 * zone) if shifts
                 else max(2e3 / self.load.reference_length, 3.0 * s, 20.0 * mu0))

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
            if shifts:
                width = max(math.pi / c_max, (hi - lo) / 2000.0)
                seeds.update(np.arange(lo + width, hi, width).tolist())
            val, err = integrate_err(plain, lo, hi, spec, breakpoints=sorted(seeds))
            total += val
            est += err

        if shifts:
            for shift, env in self._g_components():
                def upper(u, env=env):
                    return env(u) / (u - x)

                def lower(u, env=env):
                    return -env(-u) / (u + x)

                v, r = oscillatory_tail(upper, -shift, x_cut, spec)
                total += v
                est += r
                v, r = oscillatory_tail(lower, shift, x_cut, spec)
                total += v
                est += r
        else:
            for mirror in (plain, lambda u: plain(-u)):
                v, r = algebraic_tail(mirror, x_cut, spec)
                total += v
                est += r

        return total, est

    def l_pm(self, xi, side):
        """Real-axis boundary values L^{+/-}(xi) by the Plemelj formula."""
        if side not in ("plus", "minus"):
            raise DomainError("side must be 'plus' or 'minus'")
        sgn = 1.0 if side == "plus" else -1.0
        cauchy, _ = self._cauchy_pv(xi)
        return sgn * 0.5 * self.g_rhs(xi) + cauchy / (2.0j * math.pi)

    def l_plus(self, xi):
        return self.l_pm(xi, "plus")

    def l_minus(self, xi):
        return self.l_pm(xi, "minus")

    # -- load-problem transform functions --------------------------------------

    def phi_plus_load(self, xi):
        """phi^+ = -L^+ / (kappa pi mu0 B^+): the extra interface traction."""
        return -self.l_plus(xi) / (
            self.kappa * math.pi * self.kernel.mu0 * self.kernel.b_plus(xi))

    def phi1_minus_load(self, xi):
        """phi_1^- = L^- B^-."""
        return self.l_minus(xi) * self.kernel.b_minus(xi)

    def phi2_minus_load(self, xi):
        """phi_2^- = phi_1^- + kappa [p]."""
        _, jump_p = self.load.transforms(np.asarray(xi, dtype=float))
        return self.phi1_minus_load(xi) + self.kappa * complex(jump_p)

    def a_coeff(self, j, xi, phi_plus):
        """Transform coefficient A_j of u_j = A_j e^{-|xi y|} given phi^+(xi);
        j = 1 for the upper half-plane, 2 for the lower."""
        avg_p, jump_p = self.load.transforms(xi)
        core = phi_plus + avg_p
        if j == 1:
            return -(core + 0.5 * jump_p) / (self.material.mu1 * np.abs(xi))
        return (core - 0.5 * jump_p) / (self.material.mu2 * np.abs(xi))

    def a_coeffs(self, xi, phi_plus=None):
        """Transform coefficients (A1, A2) of u_j = A_j e^{-|xi y|}."""
        arr = self.kernel._checked(xi)
        if phi_plus is None:
            phi_plus = self.phi_plus_load(float(arr))
        return self.a_coeff(1, arr, phi_plus), self.a_coeff(2, arr, phi_plus)

    # -- phi^+ interpolation (exact at nodes) for gradient quadratures --------

    def _phi_table(self, hi_needed):
        scale = min(self.kernel.mu0, 1.0 / self.load.reference_length)
        hi = max(hi_needed * 2.0, 1e2 * scale)
        if self._phi_interp is None or hi > self._phi_interp_hi:
            lo = 1e-6 * scale
            n = max(48, int(48 * math.log10(hi / lo)))
            grid = np.geomspace(lo, hi, n)
            vals = np.array([self.phi_plus_load(float(t)) for t in grid])
            lg = np.log(grid)
            self._phi_interp = (
                PchipInterpolator(lg, vals.real, extrapolate=False),
                PchipInterpolator(lg, vals.imag, extrapolate=False),
                float(lo), float(hi),
                complex(vals[0]), complex(vals[-1]))
            self._phi_interp_hi = hi
        return self._phi_interp

    def phi_plus_cached(self, xi, hi_hint=None):
        """phi^+ on an array of real xi via the log-grid table; negative xi
        by conjugate symmetry, clamped ends (integrands there are damped)."""
        arr = np.atleast_1d(np.asarray(xi, dtype=float))
        re, im, lo, hi, v_lo, v_hi = self._phi_table(
            hi_hint if hi_hint else np.abs(arr).max())
        mag = np.clip(np.abs(arr), lo, hi)
        lg = np.log(mag)
        out = re(lg) + 1j * im(lg)
        out = np.where(arr < 0, np.conjugate(out), out)
        return out.reshape(np.shape(xi)) if np.ndim(xi) else complex(out[0])

    # -- physical-domain reconstruction ----------------------------------------

    def _check_position(self, Y, min_angle_deg):
        yx, yy = float(Y[0]), float(Y[1])
        if yy == 0.0:
            raise GeometryError("field evaluation requires |y| > 0 (off the interface)")
        angle = math.atan2(yy, yx)
        if abs(angle) < math.radians(min_angle_deg):
            raise GeometryError(
                f"position angle {math.degrees(angle):.2f} deg below the "
                f"{min_angle_deg} deg guard near the intact interface")
        return yx, yy

    def _grad_integrals(self, yx, yy, spec):
        j = 1 if yy > 0 else 2
        cut = 40.0 / abs(yy)
        self._phi_table(cut)

        def a_j(xi):
            return self.a_coeff(j, xi, self.phi_plus_cached(xi, hi_hint=cut))

        damp_osc = lambda xi: np.exp(-xi * abs(yy) - 1j * xi * yx)

        seeds = {cut * 2.0 ** (-k) for k in range(1, 40)}
        seeds.update((k + 1.0) / abs(yy) for k in range(int(cut * abs(yy))))
        if abs(yx) > 1e-12:
            width = math.pi / (2.0 * abs(yx))
            n_osc = int(min(cut / width, 4000.0))
            seeds.update((k + 1) * width for k in range(n_osc))
        seeds = sorted(seeds)

        gx_val, gx_err = integrate_err(
            lambda xi: -1j * xi * a_j(xi) * damp_osc(xi), 0.0, cut, spec,
            breakpoints=seeds)
        gy_val, gy_err = integrate_err(
            lambda xi: -xi * a_j(xi) * damp_osc(xi), 0.0, cut, spec,
            breakpoints=seeds)
        tail_mag = float(np.abs(a_j(np.array([cut]))[0])) * cut * math.exp(
            -cut * abs(yy)) / abs(yy)
        gx = gx_val.real / math.pi
        gy = math.copysign(1.0, yy) * gy_val.real / math.pi
        err = (gx_err + gy_err + abs(gx_val.imag) + abs(gy_val.imag)
               + 2.0 * tail_mag) / math.pi
        return gx, gy, err

    def grad_u0(self, Y, min_angle_deg=5.0, spec=None):
        """(du/dx, du/dy) of the unperturbed field at Y = (x, y), |y| > 0.

        Folded to xi > 0 through A_j(-xi) = conj(A_j(xi)); the imaginary
        residue of the folded integrals lands in the internal error estimate.
        """
        yx, yy = self._check_position(Y, min_angle_deg)
        spec = spec or self.spec
        gx, gy, _ = self._grad_integrals(yx, yy, spec)
        return gx, gy

    def u0(self, x, y, ref=None, spec=None):
        """Unperturbed displacement at (x, y), y != 0, relative to the
        reference point ref (default (0, sign(y) * reference_length)); the
        1/|xi| spectral weight makes only differences well defined."""
        if y == 0.0:
            raise GeometryError("u0 is reconstructed off the interface line only")
        spec = spec or self.spec
        if ref is None:
            ref = (0.0, math.copysign(self.load.reference_length, y))
        rx, ry = float(ref[0]), float(ref[1])
        if ry * y <= 0.0:
            raise GeometryError("reference point must lie in the same half-plane")
        j = 1 if y > 0 else 2
        cut = 40.0 / min(abs(y), abs(ry))
        self._phi_table(cut)

        def f(xi):
            aj = self.a_coeff(j, xi, self.phi_plus_cached(xi, hi_hint=cut))
            kernel_here = np.exp(-xi * abs(y) - 1j * xi * x)
            kernel_ref = np.exp(-xi * abs(ry) - 1j * xi * rx)
            return aj * (kernel_here - kernel_ref)

        seeds = sorted({cut * 2.0 ** (-k) for k in range(1, 44)}
                       | {(k + 1.0) / min(abs(y), abs(ry))
                          for k in range(int(cut * min(abs(y), abs(ry))))}
                       | ({(k + 1) * math.pi / (2.0 * max(abs(x), abs(rx)))
                           for k in range(
                               int(min(cut * 2.0 * max(abs(x), abs(rx)) / math.pi,
                                       4000.0)))}
                          if max(abs(x), abs(rx)) > 1e-12 else set()))
        val, _ = integrate_err(f, 0.0, cut, spec, breakpoints=seeds)
        return float(val.real) / math.pi

    def field_sample(self, x, y, min_angle_deg=5.0) -> FieldSample:
        gx, gy = self.grad_u0((x, y), min_angle_deg=min_angle_deg)
        return FieldSample(x=x, y=y, u=self.u0(x, y), gx=gx, gy=gy)
