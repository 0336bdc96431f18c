"""The load-driven (unperturbed) problem: Wiener-Hopf solution of the
crack-face loading equation and physical-domain gradients.

With B^+/- the combined kernel factors, the right-hand side

    g(b) = kappa Lambda(b) [p](b) / B^-(b) + kappa pi mu0 B^+(b) <p>(b)
         = kappa pi mu0 B^+(b) (Lambda(b) |b|/(|b| + mu0) [p](b) + <p>(b)),
    Lambda(b) = (1 - mu_* mu0 / |b|) / 2,

(the second form by pi mu0 B^+ B^- = Xi, so g reads the kernel's polar B^+
alone) is decomposed into plus/minus parts by its Cauchy transform, with
real-axis boundary values
L^+/-(xi) = +/- g(xi)/2 + (1/(2 pi i)) PV int g/(b - xi) db.
Then phi^+ = -L^+/(kappa pi mu0 B^+), and the transform coefficients A_j of
u_j(xi, y) = A_j(xi) e^{-|xi y|} follow from phi^+ and the load.

The Cauchy transform is batched over its targets (cauchy_pv): g is sampled
once on a composite 16-point Gauss-Legendre mesh shared by every target.
The mesh is geometric (ratio 2) on both half-lines from 1e-40 out to the
cut, so the |b|^{-1/2} point b = 0 needs no substitution; its panels are
capped at half an oscillation period for point loads and bisected where g,
whose B^+ phase carries the kernel's PCHIP Hhat, is not resolved. Each target
sums the plain rule over the panels far from it and Helsing-Ojala product
weights (Helsing & Ojala, J. Comput. Phys. 227, 2008) over the panels
around it. Past the cut, point loads get integration-by-parts tails per
row of their point-force table; an algebraically decaying g is carried on
further ratio-2 panels until what is left is negligible. One rule,
_refuse_mesh, says whether the mesh at a cut can be built (ratio-2 edges
countable in floats; for a point load at most 2^15 half-period panels per
half-line). The constructor, check_position and every sampling of g apply
it, so an unbuildable mesh is refused before g is sampled.

Gradients and displacements off the interface line come from the inverse
transform, folded to xi > 0 by conjugate symmetry: one numerics.half_line
pass each, on a numerics.LogTable of phi^+ (8 panels per decade, filled by
one batched transform); phi_plus_load evaluates phi^+ directly.
Below its low end 1e-6 scale, with scale = min(mu0, 1/a), the table holds
phi^+ constant, which shifts a field at distance r by up to about
(1e-6 scale r)^{3/2} relative (measured on the smooth load: 4e-7 at
r = 1e2/scale, 1e-2 at 1e5/scale, 0.3 at 1e6/scale), so positions past the
reach 1e2/scale raise GeometryError.
"""

import math

import numpy as np

from .errors import DomainError, GeometryError
from .kernel import KernelFactors
from .model import Bimaterial, CrackLoad
# integrate_err has no caller here; perfbench/tracer.py patches it by name
from .numerics import (LogTable, QuadratureSpec, half_line, integrate_err,
                       oscillatory_tail, period_seeds)

# composite GL16 for the batched Cauchy transform: the nodes and weights, the
# transposed Vandermonde matrix of the product-weight solve, and the
# projector onto the two highest Legendre modes (the error estimate)
_GL16_Z, _GL16_W = np.polynomial.legendre.leggauss(16)
_GL16_VANDER_T = np.vander(_GL16_Z, increasing=True).T
_LEG_TOP = np.polynomial.legendre.legvander(_GL16_Z, 15)[:, 14:]
_GL16_TOP = (_LEG_TOP * np.array([14.5, 15.5])) @ (_LEG_TOP * _GL16_W[:, None]).T
_PV_LO = 1e-40  # innermost panel edge; |g| ~ |b|^{-1/2} below it
_PV_SPLITS = 12  # bisection rounds of the shared mesh
_PV_MAX_PANELS = 2 ** 15  # half-period panels per half-line: |x| up to ~2.5e4/c_max
# the gradient and u0 integrands decay like e^{-xi |y|}: cut at _DECAY / |y|
_DECAY = 40.0


class UnperturbedSolution:
    """Spectral solution of the loaded problem for one (load, material)."""

    def __init__(self, load: CrackLoad, material: Bimaterial, spec=None):
        load.check_self_balance()
        self.load = load
        self.material = material
        self.spec = spec or QuadratureSpec()
        self.kernel = KernelFactors(material.mu0)
        self._refuse_mesh(self._pv_cut(0.0))
        self.kappa = material.kappa
        # the phi^+ table's unit: its low end is 1e-6 scale, and the field
        # is reconstructed out to the distance `reach` from the tip
        self._scale = min(self.kernel.mu0, 1.0 / load.reference_length)
        self.reach = 1e2 / self._scale
        self._phi_interp = None

    # -- building blocks -------------------------------------------------------

    def lambda_factor(self, xi):
        """Lambda(xi) = (1 - mu_* mu0/|xi|)/2."""
        arr = self.kernel._checked(xi)
        out = 0.5 * (1.0 - self.material.mu_star * self.kernel.mu0 / np.abs(arr))
        return out if np.ndim(xi) else float(out)

    def _g(self, beta, avg, jump):
        """g at the array beta for the load parts avg = <p>, jump = [p]: the
        transforms there, or one point-force row's (a_k, j_k), whose term of
        g is _g(beta, a_k, j_k) e^{-i s_k beta}. With 1/B^- = pi mu0 B^+/Xi,
        g = kappa pi mu0 B^+ (Lambda |b|/(|b| + mu0) [p] + <p>), one B^+."""
        mu0 = self.kernel.mu0
        b = np.abs(beta)
        return self.kappa * math.pi * mu0 * self.kernel.b_plus(beta) * (
            self.lambda_factor(beta) * b / (b + mu0) * jump + avg)

    def g_rhs(self, beta):
        """Right-hand side whose Cauchy transform defines L^+/-."""
        arr = self.kernel._checked(beta)
        out = self._g(arr, *self.load.transforms(arr))
        return out if np.ndim(beta) else complex(out)

    # -- Cauchy transform and the L decomposition ------------------------------

    def _pv_samples(self, cut, x_max):
        """Panels [lo, hi] of the shared mesh and g on their GL16 nodes.

        Ratio-2 geometric panels run from _PV_LO to the cut on both
        half-lines, with panels capped at the half-period pi/c_max for
        oscillatory loads; an algebraically decaying g is carried on ratio-2
        panels out to 2^40 cut instead, where what is left is below the
        remainder term of the error estimate. A panel whose two highest
        Legendre modes of g exceed a tenth of rel_tol times its largest |g|,
        or times the smallest such value among the panels inside x_max if
        that is larger, is bisected, for at most _PV_SPLITS rounds and
        max_subdivisions panels: g is only C^1 where the PCHIP phase table of
        B^+/- bends, most of all at its extremum. A mesh that _refuse_mesh
        refuses raises DomainError before anything is sampled.
        """
        edges, pieces = self._half_line_edges(self._refuse_mesh(cut))
        if pieces is not None:
            edges = np.concatenate(
                [np.linspace(a, b, int(k), endpoint=False)
                 for a, b, k in zip(edges[:-1], edges[1:], pieces)]
                + [edges[-1:]])
        lo = np.concatenate([-edges[:0:-1], edges[:-1]])
        hi = np.concatenate([-edges[-2::-1], edges[1:]])
        g = self._g_on_panels(lo, hi)
        floor = np.min(np.abs(g).max(axis=1), initial=np.inf,
                       where=np.abs(lo + hi) <= 2.0 * x_max)
        tol = 0.1 * self.spec.rel_tol
        budget = self.spec.max_subdivisions
        for _ in range(_PV_SPLITS):
            rough = np.flatnonzero(np.abs(g @ _GL16_TOP.T).max(axis=1)
                                   > tol * np.maximum(np.abs(g).max(axis=1), floor))
            rough = rough[:budget]
            if rough.size == 0:
                break
            budget -= rough.size
            split = np.zeros(lo.size, dtype=bool)
            split[rough] = True
            m = 0.5 * (lo[split] + hi[split])
            new_lo = np.concatenate([lo[split], m])
            new_hi = np.concatenate([m, hi[split]])
            g = np.concatenate([g[~split], self._g_on_panels(new_lo, new_hi)])
            lo = np.concatenate([lo[~split], new_lo])
            hi = np.concatenate([hi[~split], new_hi])
        return lo, hi, g

    def _refuse_mesh(self, cut):
        """The outer edge of the shared mesh at the cut (the cut for a point
        load, 2^40 cut for an algebraically decaying g), or DomainError when
        the mesh cannot be built: its ratio-2 edges from _PV_LO out to that
        edge must be countable in floats, and a point load must take at most
        _PV_MAX_PANELS half-period panels per half-line. Edges are built
        for the point load's count only."""
        top = cut if self.load.oscillations else cut * 2.0 ** 40
        if not math.isfinite(top / _PV_LO):
            raise DomainError(f"the Cauchy mesh at the cut {cut:.4g} reaches "
                              f"too far to count its edges in floats")
        if self.load.oscillations:
            panels = self._half_line_edges(top)[1].sum()
            if panels > _PV_MAX_PANELS:
                raise DomainError(
                    f"the Cauchy mesh at the cut {cut:.4g} takes {panels:.7g} "
                    f"panels per half-line, above {_PV_MAX_PANELS}")
        return top

    def _half_line_edges(self, top):
        """The ratio-2 edges of the shared mesh on one half-line, from _PV_LO
        to its outer edge top, and for a point load the number of
        half-period panels pi/c_max that each of its panels takes, as floats
        that cannot wrap (None otherwise)."""
        table = self.load.oscillations
        edges = np.geomspace(_PV_LO, top, math.ceil(math.log2(top / _PV_LO)) + 1)
        if not table:
            return edges, None
        width = math.pi / table[-1][0]
        return edges, np.ceil(np.diff(edges) / width)

    def _pv_cut(self, x_max):
        # the cut of the shared mesh for targets up to |x| = x_max
        return max(2e3 / self.load.reference_length, 20.0 * self.kernel.mu0,
                   4.0 * x_max)

    def _g_on_panels(self, lo, hi):
        nodes = 0.5 * ((lo + hi)[:, None] + (hi - lo)[:, None] * _GL16_Z)
        return self.g_rhs(nodes.ravel()).reshape(nodes.shape)

    def cauchy_pv(self, x):
        """PV int g(b)/(b - x) db over the real line for real x != 0 (scalar
        or array), with an error estimate per target; an empty array gets
        empty arrays back, with nothing sampled.

        g is sampled once, on the composite GL16 mesh of _pv_samples with the
        cut max(2e3 a, 20 mu0, 4 max|x|), and every target is summed from
        those samples: by the plain rule on panels far from it, and by
        Helsing-Ojala product weights (PV int z^k/(z - z0) dz by recurrence,
        then a Vandermonde solve) on the panels within 1.5 half-widths of it.
        Point loads add integration-by-parts tails past the cut, one per
        row (s_k, a_k, j_k) of their table and half-line, each of the term
        _g(b, a_k, j_k) e^{-i s_k b}. The estimate sums |weight| times the two
        highest Legendre modes of g over every panel, plus the tail residuals
        and bounds for the parts of the line left unmeshed.
        """
        xs = np.atleast_1d(np.asarray(x, dtype=float)).ravel()
        if np.any(xs == 0.0) or not np.all(np.isfinite(xs)):
            raise DomainError("Cauchy boundary values need finite xi != 0")
        if xs.size == 0:
            return np.zeros(np.shape(x), dtype=complex), np.zeros(np.shape(x))
        x_max = float(np.abs(xs).max())
        lo, hi, g = self._pv_samples(self._pv_cut(x_max), x_max)
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        nodes = (mid[:, None] + half[:, None] * _GL16_Z).ravel()
        g_top = np.abs(g @ _GL16_TOP.T)
        wg = (half[:, None] * _GL16_W * g).ravel()
        rhs = np.column_stack([wg.real, wg.imag])
        rhs_top = (half[:, None] * _GL16_W * g_top).ravel()

        total = np.empty(xs.size, dtype=complex)
        est = np.empty(xs.size)
        near_t, near_p = [], []
        step = max(1, 2 ** 21 // nodes.size)
        for s in range(0, xs.size, step):
            xt = xs[s:s + step, None]
            z = (xt - mid) / half
            near = np.abs(z) <= 1.5
            with np.errstate(divide="ignore"):
                kern = 1.0 / (nodes - xt)
            kern.reshape(xt.shape[0], mid.size, -1)[near] = 0.0
            far = kern @ rhs
            total[s:s + step] = far[:, 0] + 1j * far[:, 1]
            est[s:s + step] = np.abs(kern) @ rhs_top
            t, p = np.nonzero(near)
            near_t.append(t + s)
            near_p.append(p)

        t = np.concatenate(near_t)
        p = np.concatenate(near_p)
        xt = xs[t]
        z0 = (xt - mid[p]) / half[p]
        mom = np.empty((z0.size, _GL16_Z.size))
        # ln|(1 - z0)/(1 + z0)| from the distances to the panel ends, floored
        # at eps |x| alike on both sides of an edge so that the two logs
        # cancel there as they do in the limit
        floor = np.finfo(float).eps * np.abs(xt)
        mom[:, 0] = (np.log(np.maximum(np.abs(hi[p] - xt), floor))
                     - np.log(np.maximum(np.abs(xt - lo[p]), floor)))
        for k in range(_GL16_Z.size - 1):
            mom[:, k + 1] = z0 * mom[:, k] + (1.0 - (-1.0) ** (k + 1)) / (k + 1)
        weights = np.linalg.solve(_GL16_VANDER_T, mom.T).T
        np.add.at(total, t, np.sum(weights * g[p], axis=1))
        # near a target the interpolation error e also enters through its
        # slope: |PV int e/(z - z0)| <= |e(z0) ln| + 2 max|e'|, and Markov's
        # inequality gives max|e'| <= n^2 max|e| at degree n = 15
        np.add.at(est, t, (450.0 + np.abs(mom[:, 0])) * g_top[p].max(axis=1))

        # unmeshed ends: |g| ~ |b|^{-1/2} inside _PV_LO, and past the last
        # edge an algebraic g decays faster than 1/|b|
        end = float(hi.max())
        g_end = np.abs(self.g_rhs(np.array([-_PV_LO, _PV_LO, -end, end])))
        est += 2.0 * _PV_LO * (g_end[0] + g_end[1]) / np.abs(xs)
        if not self.load.oscillations:
            est += g_end[2] + g_end[3]
        for shift, a, j in self.load.oscillations:
            v, r = oscillatory_tail(
                lambda u, a=a, j=j: self._g(u, a, j)[:, None] / (u[:, None] - xs),
                -shift, end)
            total += v
            est += r
            v, r = oscillatory_tail(
                lambda u, a=a, j=j: -self._g(-u, a, j)[:, None] / (u[:, None] + xs),
                shift, end)
            total += v
            est += r
        total = total.reshape(np.shape(x))
        est = est.reshape(np.shape(x))
        return (total, est) if np.ndim(x) else (complex(total), float(est))

    def l_plus(self, xi):
        """Real-axis boundary value L^+(xi) = g/2 + PV/(2 pi i) by the
        Plemelj formula, for real xi != 0 (scalar or array)."""
        return 0.5 * self.g_rhs(xi) + self.cauchy_pv(xi)[0] / (2.0j * math.pi)

    # -- load-problem transform functions --------------------------------------

    def phi_plus_load(self, xi):
        """phi^+ = -L^+ / (kappa pi mu0 B^+): the extra interface traction."""
        return -self.l_plus(xi) / (
            self.kappa * math.pi * self.kernel.mu0 * self.kernel.b_plus(xi))

    def a_coeff(self, j, xi, phi_plus):
        """Transform coefficient A_j of u_j = A_j e^{-|xi y|} given phi^+(xi);
        j = 1 for the upper half-plane, 2 for the lower."""
        avg_p, jump_p = self.load.transforms(xi)
        core = phi_plus + avg_p
        if j == 1:
            return -(core + 0.5 * jump_p) / (self.material.mu1 * np.abs(xi))
        return (core - 0.5 * jump_p) / (self.material.mu2 * np.abs(xi))

    # -- the phi^+ table (exact at its nodes) for the gradient quadratures ---

    def _table_hi(self, hi_needed):
        # the high end of a phi^+ table built for xi up to hi_needed
        return max(hi_needed * 2.0, 1e2 * self._scale)

    def _phi_table(self, hi_needed):
        """(LogTable of phi_plus_load, lo, hi) on [1e-6 scale,
        _table_hi(hi_needed)], rebuilt when hi_needed passes hi."""
        if self._phi_interp is None or hi_needed > self._phi_interp[2]:
            hi = self._table_hi(hi_needed)
            lo = 1e-6 * self._scale
            table = LogTable(lambda u: self.phi_plus_load(np.exp(u)), lo, hi,
                             math.ceil(8 * math.log10(hi / lo)))
            self._phi_interp = (table, table.lo, table.hi)
        return self._phi_interp

    def phi_plus_cached(self, xi):
        """phi^+ at xi > 0 (scalar or array) from the table, held at its
        end values outside it (integrands there are damped); a non-finite
        or non-positive xi raises DomainError."""
        arr = np.asarray(xi, dtype=float)
        if not np.all((arr > 0.0) & (arr < math.inf)):
            raise DomainError("phi_plus_cached needs finite xi > 0")
        if arr.size == 0:
            return np.zeros(arr.shape, dtype=complex)
        out = self._phi_table(arr.max())[0](arr)
        return out if np.ndim(xi) else complex(out)

    # -- physical-domain reconstruction ----------------------------------------

    def check_position(self, Y, min_angle_deg=5.0):
        """(x, y) of a position Y that grad_u0 and u0 can serve, or
        GeometryError: Y must be finite, off the interface, at least
        min_angle_deg from it, within the reach, and far enough from the
        interface that _refuse_mesh passes the Cauchy mesh of the phi^+
        table it needs (for a point load, |y| above about 5e-3 for
        point_triple(1, 1, 0.5) on Bimaterial(3, 1, 0.25)). Nothing is
        sampled."""
        yx, yy = float(Y[0]), float(Y[1])
        if not (math.isfinite(yx) and math.isfinite(yy)):
            raise GeometryError("field evaluation requires a finite position")
        if yy == 0.0:
            raise GeometryError("field evaluation requires |y| > 0 (off the interface)")
        angle = math.atan2(yy, yx)
        # atan2 of (d cos g, d sin g) can come back an ulp below the guard g
        if abs(angle) < math.radians(min_angle_deg) * (1.0 - 1e-12):
            raise GeometryError(
                f"position angle {math.degrees(angle):.2f} deg below the "
                f"{min_angle_deg} deg guard near the intact interface")
        r = math.hypot(yx, yy)
        if r > self.reach:
            raise GeometryError(f"position at distance {r:.4g} lies past the "
                                f"phi^+ table's reach {self.reach:.4g}")
        try:
            self._refuse_mesh(self._pv_cut(self._table_hi(_DECAY / abs(yy))))
        except DomainError as exc:
            raise GeometryError(f"position at height {yy:.4g} needs a phi^+ "
                                f"table, but {exc}") from exc
        return yx, yy

    def _a_line(self, y, y_min, x_max, weight, spec):
        """The A_j line integral of grad_u0 and u0: int_0^cut weight(xi, A_j)
        over xi > 0, with j = 1 for y > 0 and 2 below, cut = _DECAY / y_min
        and the phi^+ table filled to the cut, in one numerics.half_line
        pass (head to min(mu0, 0.25 / y_min), one period_seeds seed per
        period of e^{-i xi x_max}). Returns (value, error estimate, the A_j
        callable, cut)."""
        j = 1 if y > 0 else 2
        cut = _DECAY / y_min
        self._phi_table(cut)

        def a_j(xi):
            return self.a_coeff(j, xi, self.phi_plus_cached(xi))

        seeds = period_seeds(0.0, cut, x_max, 4000) if x_max else ()
        val, err = half_line(lambda xi: weight(xi, a_j(xi)),
                             min(self.kernel.mu0, 0.25 / y_min), cut, spec, seeds)
        return val, err, a_j, cut

    def _grad_integrals(self, yx, yy, spec):
        """(gx, gy, err) at (yx, yy); err bounds the error of the vector
        (gx, gy) in length. The gx integrand is i times the gy one, so a
        single integral H gives gx = -Im H / pi and gy = sign(y) Re H / pi."""
        val, err, a_j, cut = self._a_line(
            yy, abs(yy), abs(yx),
            lambda xi, a: -xi * a * np.exp(-xi * abs(yy) - 1j * xi * yx), spec)
        tail_mag = float(np.abs(a_j(np.array([cut]))[0])) * cut * math.exp(
            -cut * abs(yy)) / abs(yy)
        gx = -val.imag / math.pi
        gy = math.copysign(1.0, yy) * val.real / math.pi
        return gx, gy, (err + tail_mag) / math.pi

    def grad_u0(self, Y, min_angle_deg=5.0):
        """(du/dx, du/dy) of the unperturbed field at Y = (x, y), |y| > 0,
        folded to xi > 0 through A_j(-xi) = conj(A_j(xi))."""
        gx, gy, _ = self._grad_integrals(*self.check_position(Y, min_angle_deg),
                                         self.spec)
        return gx, gy

    def u0(self, x, y, ref=None):
        """Unperturbed displacement at (x, y), y != 0, relative to the
        reference point ref (default (0, sign(y) * reference_length)); the
        1/|xi| spectral weight makes only differences well defined. Both
        points pass check_position with no angle guard before anything is
        sampled."""
        x, y = self.check_position((x, y), 0.0)
        if ref is None:
            ref = (0.0, math.copysign(self.load.reference_length, y))
        rx, ry = self.check_position(ref, 0.0)
        if ry * y <= 0.0:
            raise GeometryError("reference point must lie in the same half-plane")
        val = self._a_line(
            y, min(abs(y), abs(ry)), max(abs(x), abs(rx)),
            lambda xi, a: a * (np.exp(-xi * abs(y) - 1j * xi * x)
                               - np.exp(-xi * abs(ry) - 1j * xi * rx)),
            self.spec)[0]
        return float(val.real) / math.pi
