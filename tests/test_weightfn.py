"""Weight-function transforms, the sigma0 Betti quadrature, and the
perfect-interface comparison quantities."""

import dataclasses
import math

import numpy as np
import pytest

from interfrac import model
from interfrac.errors import (DomainError, SelfBalanceViolation,
                              UnsupportedLoad)
from interfrac.model import (Bimaterial, bimaterial_from_dimensionless,
                             custom_transform, point_triple,
                             smooth_exponential)
from interfrac.weightfn import (WeightField, k3_perfect, ratio_r, sigma0)
from oracles import weight_phi_minus, weight_phi_plus, wiener_hopf_residual

# frozen from the dense-quadrature oracle (rel 1e-9, abs 1e-13, doubled
# truncation stretch); production must reproduce it to 1e-4 relative
SIGMA0_REFERENCE = 1.16443024394164  # mu*=0, kappa*=1, a=1, b=3/4, F=1


@pytest.fixture(scope="module")
def field():
    # mu1 = mu2 = 1, kappa = 1/2: kappa* = 1 at a = 1, mu0 = 4
    return WeightField(Bimaterial(1.0, 1.0, 0.5), a=1.0)


@pytest.fixture(scope="module")
def field_contrast():
    return WeightField(Bimaterial(3.0, 1.0, 0.25), a=1.0)


def log_grid(mu0, n=60):
    half = np.geomspace(1e-3 * mu0, 1e3 * mu0, n)
    return np.concatenate([-half[::-1], half])


class TestTransforms:
    def test_wiener_hopf_residual(self, field_contrast):
        grid = log_grid(field_contrast.kernel.mu0)
        assert np.max(wiener_hopf_residual(field_contrast, grid)) < 1e-8

    def test_phi_minus_is_scaled_jump(self, field_contrast):
        # kappa xi Phi^- = -(xi |xi| / mu0) [U]: the Betti integrands use it
        f = field_contrast
        grid = log_grid(f.kernel.mu0)
        lhs = f.kappa * grid * weight_phi_minus(f, grid)
        rhs = -(grid * np.abs(grid) / f.kernel.mu0) * f.jump_u(grid)
        assert np.max(np.abs(lhs - rhs) / np.abs(rhs)) < 1e-14

    def test_phi_plus_asymptote_modulus(self, field):
        mu0 = field.kernel.mu0
        x = 1e7 * mu0
        assert abs(x * weight_phi_plus(field, x)) == pytest.approx(
            1.0 / math.sqrt(math.pi * mu0), rel=1e-5)

    def test_phi_minus_asymptote_modulus(self, field):
        mu0 = field.kernel.mu0
        x = 1e7 * mu0
        assert abs(x * weight_phi_minus(field, x)) == pytest.approx(
            1.0 / (field.kappa * math.sqrt(mu0 * math.pi)), rel=1e-5)

    def test_jump_asymptote_modulus(self, field):
        mu0 = field.kernel.mu0
        x = 1e7 * mu0
        assert abs(x * x * field.jump_u(x)) * math.pi / math.sqrt(math.pi * mu0) \
            == pytest.approx(1.0, rel=1e-5)

    def test_jump_near_zero_modulus(self, field):
        # formula-true limit 1/sqrt(pi) (Xi0^-(0) = 1/sqrt(pi))
        x = 1e-9 * field.kernel.mu0
        val = abs(x * np.sqrt(-1j * x) * field.jump_u(x))
        assert val == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-6)


class TestSigma0:
    def test_field_for_another_material_refused(self):
        # the other material's field gave its own sigma0 (0.14599 here, not
        # 0.18025), with no error
        with pytest.raises(DomainError, match="built for"):
            sigma0(smooth_exponential(), Bimaterial(3.0, 1.0, 0.25),
                   field=WeightField(Bimaterial(1.0, 1.0, 0.5)))

    def test_regression_anchor(self):
        m = Bimaterial(1.0, 1.0, 0.5)
        r = sigma0(point_triple(1.0, 1.0, 0.75), m)
        assert abs(r.sigma0 - SIGMA0_REFERENCE) / SIGMA0_REFERENCE < 1e-4

    def test_linear_in_force(self):
        m = Bimaterial(1.0, 1.0, 0.5)
        s1 = sigma0(point_triple(1.0, 1.0, 0.75), m).sigma0
        s3 = sigma0(point_triple(3.0, 1.0, 0.75), m).sigma0
        assert s3 == pytest.approx(3.0 * s1, rel=1e-12)

    def test_integral_is_real(self):
        m = Bimaterial(3.0, 1.0, 0.25)
        r = sigma0(point_triple(1.0, 1.0, 0.75), m)
        assert abs(r.integral.imag) < 1e-6 * abs(r.integral.real)

    def test_unit_system_invariance(self):
        # lengths x L, stresses x S: sigma0 scales by S
        L, S = 3.0, 7.0
        base = sigma0(point_triple(1.0, 1.0, 0.75), Bimaterial(1.0, 2.0, 0.5))
        scaled = sigma0(point_triple(S * L * 1.0, L * 1.0, L * 0.75),
                        Bimaterial(S * 1.0, S * 2.0, L / S * 0.5))
        assert scaled.sigma0 == pytest.approx(S * base.sigma0, rel=1e-6)

    def test_stiff_limit_collapse(self):
        m = bimaterial_from_dimensionless(-0.99, 1.0, a=1.0)
        s34 = sigma0(point_triple(1.0, 1.0, 0.75), m).sigma0
        s14 = sigma0(point_triple(1.0, 1.0, 0.25), m).sigma0
        assert abs(s34 - s14) / abs(s34) < 0.02

    def test_smooth_load(self):
        m = Bimaterial(1.0, 1.0, 0.5)
        r = sigma0(smooth_exponential(), m)
        assert r.est_error < 1e-6 * abs(r.sigma0)
        assert abs(r.integral.imag) < 1e-8 * abs(r.integral.real)

    @pytest.mark.parametrize("load, material", [
        (point_triple(1.0, 1.0, 0.75), Bimaterial(1.0, 1.0, 0.5)),
        (smooth_exponential(), Bimaterial(3.0, 1.0, 0.25)),
    ], ids=["point-triple-anchor", "smooth"])
    def test_one_jump_u_per_node(self, load, material, monkeypatch):
        # work guard: the kernel factors and the load's transform routine
        # are each evaluated once per load node (the oscillatory tails add a
        # few envelope points of b_plus of their own)
        field = WeightField(material, a=1.0)
        points = {"b_plus": 0, "load": 0, "routine": 0}

        def counted(key, fn, pos=0):
            def call(*args):
                points[key] += np.size(args[pos])
                return fn(*args)
            return call

        monkeypatch.setattr(field.kernel, "b_plus",
                            counted("b_plus", field.kernel.b_plus))
        monkeypatch.setattr(model, "point_load_transforms", counted(
            "routine", model.point_load_transforms, pos=3))
        monkeypatch.setattr(model, "smooth_load_transforms", counted(
            "routine", model.smooth_load_transforms))
        load = dataclasses.replace(
            load, transforms=counted("load", load.transforms))
        sigma0(load, material, field=field)
        assert 0 < points["b_plus"] <= 1.05 * points["load"]
        assert points["load"] <= points["routine"] <= 1.05 * points["b_plus"]
        if load.oscillations:
            assert load.phase_scale == load.oscillations[-1][0]

    def test_tiny_reference_length_without_overflow(self):
        # the smooth load does not scale with a, which moves only the
        # spectral cut-off, here out to 1e305, where no square may overflow
        m = Bimaterial(1.0, 1.0, 0.5)
        tiny = sigma0(smooth_exponential(reference_length=1e-300), m)
        base = sigma0(smooth_exponential(), m)
        assert abs(tiny.sigma0 - base.sigma0) <= tiny.est_error + base.est_error

    def test_custom_transform_load_matches_builtin(self):
        # wrapping the smooth transforms as a custom pair must reproduce
        # the built-in result through the declared-decay tail route
        from interfrac.model import custom_transform
        m = Bimaterial(3.0, 1.0, 0.25)
        builtin = sigma0(smooth_exponential(), m)
        wrapped = custom_transform(
            lambda x: smooth_exponential().transforms(x)[0],
            lambda x: smooth_exponential().transforms(x)[1],
            decay_exponent=1.0)
        custom = sigma0(wrapped, m)
        assert custom.sigma0 == pytest.approx(builtin.sigma0, rel=1e-9)

    def test_unbalanced_load_rejected(self):
        from interfrac.model import CrackLoad
        bad = CrackLoad(kind="custom-transform",
                        transforms=lambda x: (1.0 / (1.0 + 1j * np.asarray(x)) ** 2,
                                              np.ones_like(np.asarray(x), dtype=complex)),
                        decay_exponent=1.0)
        with pytest.raises(SelfBalanceViolation):
            sigma0(bad, Bimaterial(1.0, 1.0, 0.5))


def _sigma0_transform_limit(load, material, t_values):
    """Independent route to the tip traction: the one-sided traction
    transform of the loaded problem is phi^+, so by the initial-value
    theorem sigma(0+) = lim_{T->inf} T phi^+(iT), evaluated up the
    imaginary axis where the Cauchy integral needs no principal value."""
    from interfrac import _kernels
    from interfrac.numerics import QuadratureSpec, algebraic_tail, integrate_err
    from interfrac.unperturbed import UnperturbedSolution

    sol = UnperturbedSolution(load, material)
    spec = QuadratureSpec()
    mu0 = sol.kernel.mu0
    kappa = material.kappa

    def phi_plus_imag(T):
        g = sol.g_rhs
        den = lambda b: b - 1j * T
        zone = min(mu0, 1.0)
        t0 = math.sqrt(zone)
        total = 0j
        for sgn in (-1.0, 1.0):
            f = lambda t, sgn=sgn: g(sgn * t * t) / den(sgn * t * t) * 2.0 * t
            v, _ = integrate_err(f, 0.0, t0, spec,
                                 breakpoints=[t0 * 2.0 ** (-j) for j in range(1, 22)])
            total += v
        big = max(2e3, 3.0 * T)
        for lo, hi in [(-big, -zone), (zone, big)]:
            seeds = set()
            q = zone
            while q < big:
                if lo < -q < hi:
                    seeds.add(-q)
                if lo < q < hi:
                    seeds.add(q)
                q *= 2.0
            v, _ = integrate_err(lambda b: g(b) / den(b), lo, hi, spec,
                                 breakpoints=sorted(seeds))
            total += v
        for mirror in (lambda u: g(u) / den(u), lambda u: g(-u) / den(-u)):
            v, _ = algebraic_tail(mirror, big, spec)
            total += v
        l_plus = total / (2j * math.pi)
        xi0 = sol.kernel.xi0_plus(1j * T)
        f = lambda t: _kernels.ln_xi_star(t, mu0) / (t * t + T * T)
        top = 300 * max(T, mu0)
        seeds = [min(mu0, T) * 2.0 ** k for k in range(-20, 44)
                 if min(mu0, T) * 2.0 ** k < top]
        v, _ = integrate_err(f, 0.0, top, spec, breakpoints=seeds)
        xistar = math.exp(T / math.pi * float(v.real))
        b_plus = xi0 * xistar / math.sqrt(T)
        return -l_plus / (kappa * math.pi * mu0 * b_plus)

    ts = np.asarray(t_values, dtype=float)
    vals = np.array([(t * phi_plus_imag(t)).real for t in ts])
    basis = np.vstack([np.ones_like(ts), np.log(ts) / ts, 1.0 / ts]).T
    coef, *_ = np.linalg.lstsq(basis, vals, rcond=None)
    return float(coef[0])


class TestSigma0TransformLimit:
    def test_magnitude_agrees_with_betti_route(self):
        # the two routes share no quadrature machinery past the kernel
        # factors; they agree in magnitude, with the opposite overall sign
        # (sigma0 here follows the unit weight normalization, under which
        # the Betti integral evaluates to the negative of the one-sided
        # traction limit; the shielding/amplification classification depends
        # only on the normalization-invariant sign of sigma0 * delta_sigma0)
        m = Bimaterial(1.0, 1.0, 0.5)
        load = smooth_exponential()
        betti = sigma0(load, m).sigma0
        abelian = _sigma0_transform_limit(load, m, (50.0, 100.0, 200.0, 400.0, 800.0))
        assert abelian / betti == pytest.approx(-1.0, abs=2e-3)


class TestK3Perfect:
    def test_point_closed_form(self):
        # mu*=0, F=1, a=1, b=1/4
        m = Bimaterial(1.0, 1.0, 1.0)
        val = k3_perfect(point_triple(1.0, 1.0, 0.25), m)
        ref = -math.sqrt(2 / math.pi) * 0.5 * (
            1.0 + 0.5 * (1.25 ** -0.5 + 0.75 ** -0.5))
        assert val == pytest.approx(ref, rel=1e-12)
        assert val == pytest.approx(-0.80768, abs=5e-6)

    def test_b_to_zero_limit(self):
        # all three loads collapse: average weight F, jump 0
        m = Bimaterial(1.0, 1.0, 1.0)
        val = k3_perfect(point_triple(1.0, 1.0, 1e-9), m)
        assert val == pytest.approx(-math.sqrt(2 / math.pi), rel=1e-6)

    def test_linear_in_force(self):
        m = Bimaterial(2.0, 1.0, 1.0)
        v1 = k3_perfect(point_triple(1.0, 1.0, 0.5), m)
        v2 = k3_perfect(point_triple(2.0, 1.0, 0.5), m)
        assert v2 == pytest.approx(2 * v1, rel=1e-14)

    def test_smooth_against_gamma_moment(self):
        # <p>(-r) = (r/2)((4/9)e^{-2r} + e^{-3r}); moment with r^{-1/2} is
        # Gamma(3/2)((4/9) 2^{-3/2} + 3^{-3/2})/2
        m = Bimaterial(1.0, 1.0, 1.0)
        val = k3_perfect(smooth_exponential(), m)
        ref = -math.sqrt(2 / math.pi) * math.gamma(1.5) * 0.5 * (
            (4.0 / 9.0) * 2 ** -1.5 + 3 ** -1.5)
        assert val == pytest.approx(ref, rel=1e-10)

    def test_custom_load_unsupported(self):
        load = custom_transform(
            lambda x: 1.0 / (1.0 + 1j * np.asarray(x)) ** 2,
            lambda x: 1j * np.asarray(x) / (1.0 + 1j * np.asarray(x)) ** 3,
            decay_exponent=1.0)
        with pytest.raises(UnsupportedLoad):
            k3_perfect(load, Bimaterial(1.0, 1.0, 1.0))


class TestRatio:
    @pytest.mark.parametrize("mu1,mu2,name", [
        (0.0, -1.0, "mu_star_2"), (0.0, 1.5, "mu_star_2"),
        (1.0, 0.0, "mu_star_1"), (math.nan, 0.0, "mu_star_1")])
    def test_mu_star_outside_open_interval_refused(self, mu1, mu2, name):
        with pytest.raises(DomainError, match=name):
            ratio_r(1.0, mu1, mu2, smooth_exponential())

    def test_identical_pairs(self):
        r = ratio_r(0.37, 0.3, 0.3, point_triple(1.0, 1.0, 0.5))
        assert r == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("mu2", [-0.5, 0.5])
    def test_perfect_interface_limit_point(self, mu2):
        r = ratio_r(0.01, 0.0, mu2, point_triple(1.0, 1.0, 0.25))
        assert abs(r - 1.0) < 0.05

    @pytest.mark.parametrize("mu2", [-0.5, 0.5])
    def test_perfect_interface_limit_smooth(self, mu2):
        r = ratio_r(0.01, 0.0, mu2, smooth_exponential())
        assert abs(r - 1.0) < 0.05
