"""Quadrature, principal-value, half-line Fourier and log-gamma kernels."""

import math

import numpy as np
import pytest

from interfrac import _kernels
from interfrac.errors import (DomainError, NonFiniteSample, PoleError)
from interfrac.numerics import (QuadratureSpec, integrate_adaptive,
                                integrate_err, log_gamma)
from oracles import halfline_fourier, pv_integral_even_logkernel

SPEC = QuadratureSpec()

# frozen oracle values (mpmath, 40 digits)
LOGGAMMA_1_PLUS_I = complex(-0.65092319930185633889, -0.30164032046753319789)
LN_SQRT_PI = 0.57236494292470008707
SQRT_PI = 1.7724538509055160273
PV_LNXISTAR_MU1_XI1 = 0.041500473720915665644
# log Gamma(c - i xi/pi) at the arguments of Xi_0^+ (mu0 = 1), keyed by
# (xi, c); the arguments are the doubles complex(c, -xi / math.pi). The
# values at c + i xi/pi are their conjugates.
LOGGAMMA_XI0 = {
    (1e2, 1.0): complex(-47.350841316725980923, -79.101027273282458875),
    (1e2, 0.5): complex(-49.081061466795326513, -78.319556262240873625),
    (1e3, 1.0): complex(-496.19954877022899597, -1516.9032071425099508),
    (1e3, 0.5): complex(-499.08106146679536445, -1516.1182016783556928),
    (1e4, 1.0): complex(-4995.0482562237323078, -22491.322068563600841),
    (1e4, 0.5): complex(-4999.0810614667956992, -22490.536709670111724),
}


class TestIntegrateAdaptive:
    def test_constant(self):
        assert integrate_adaptive(lambda t: np.ones_like(t), 0, 1, SPEC) == pytest.approx(1.0, abs=1e-13)

    def test_quadratic(self):
        assert integrate_adaptive(lambda t: t ** 2, 0, 1, SPEC) == pytest.approx(1 / 3, rel=1e-13)

    def test_gaussian_against_high_precision(self):
        val = integrate_adaptive(lambda t: np.exp(-t * t), -8, 8, SPEC)
        assert abs(val - SQRT_PI) < 1e-10

    def test_linearity_random_integrands(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            a, b = rng.uniform(-2, 2, 2)
            c = rng.uniform(0.5, 3.0)
            f = lambda t: np.sin(c * t) + t ** 2
            g = lambda t: np.exp(-t * t) * np.cos(t)
            lhs = integrate_adaptive(lambda t: a * f(t) + b * g(t), -1, 2, SPEC)
            rhs = (a * integrate_adaptive(f, -1, 2, SPEC)
                   + b * integrate_adaptive(g, -1, 2, SPEC))
            assert abs(lhs - rhs) <= 10 * SPEC.rel_tol * max(1.0, abs(lhs))

    def test_reversed_bounds_negate(self):
        v1 = integrate_adaptive(lambda t: t ** 3 + 1, 0, 2, SPEC)
        v2 = integrate_adaptive(lambda t: t ** 3 + 1, 2, 0, SPEC)
        assert v1 == pytest.approx(-v2, rel=1e-13)

    def test_scalar_callable_is_wrapped(self):
        val = integrate_adaptive(lambda t: float(t) ** 2, 0.0, 1.0, SPEC)
        assert val == pytest.approx(1 / 3, rel=1e-12)

    def test_non_finite_sample_raises(self):
        with pytest.raises(NonFiniteSample):
            integrate_adaptive(
                lambda t: np.where(np.abs(t - 0.5) < 0.2, np.nan, t), 0, 1, SPEC)


def _excision_oracle(g, xi, eps_ladder=(0.1, 0.05, 0.025, 0.0125), big=4e5):
    """Independent PV oracle: symmetric eps-excised fine sums, Richardson
    extrapolated in eps (the excision error expands in odd powers of eps)."""
    from scipy.integrate import simpson
    vals = []
    for eps in eps_ladder:
        t1 = np.linspace(1e-12, xi - eps, 400001)
        t2 = np.geomspace(xi + eps, big, 2000001)
        v = simpson(g(t1) / (t1 * t1 - xi * xi), x=t1)
        v += simpson(g(t2) / (t2 * t2 - xi * xi), x=t2)
        vals.append(v)
    r1 = [2 * vals[i + 1] - vals[i] for i in range(len(vals) - 1)]
    r2 = [(8 * r1[i + 1] - r1[i]) / 7 for i in range(len(r1) - 1)]
    r3 = [(32 * r2[i + 1] - r2[i]) / 31 for i in range(len(r2) - 1)]
    return r3[-1]


class TestPrincipalValue:
    def test_zero_integrand(self):
        assert pv_integral_even_logkernel(lambda t: np.zeros_like(t), 1.0, SPEC) == 0.0

    @pytest.mark.parametrize("xi", [0.3, 1.0, 7.7])
    def test_constant_integrand_vanishes(self, xi):
        # PV int_0^inf dt/(t^2 - xi^2) = 0 by the symmetric-limit antiderivative
        val = pv_integral_even_logkernel(lambda t: 3.0 * np.ones_like(t), xi, SPEC)
        assert abs(val) < 1e-10

    def test_log_kernel_against_excision_oracle(self):
        g = lambda t: _kernels.ln_xi_star(t, 1.0)
        mine = pv_integral_even_logkernel(g, 1.0, SPEC)
        oracle = _excision_oracle(g, 1.0)
        assert abs(mine - oracle) < 1e-6
        assert mine == pytest.approx(PV_LNXISTAR_MU1_XI1, abs=1e-12)

    def test_continuity_in_xi(self):
        g = lambda t: _kernels.ln_xi_star(t, 1.0)
        v1 = pv_integral_even_logkernel(g, 0.7, SPEC)
        v2 = pv_integral_even_logkernel(g, 0.7 + 1e-6, SPEC)
        assert abs(v1 - v2) < 1e-4

    def test_domain_error(self):
        with pytest.raises(DomainError):
            pv_integral_even_logkernel(lambda t: t, -1.0, SPEC)
        with pytest.raises(DomainError):
            pv_integral_even_logkernel(lambda t: t, 0.0, SPEC)


class TestHalflineFourier:
    def test_exponential_at_zero(self):
        val = halfline_fourier(lambda x: np.exp(2 * x), "negative-axis", 0.0, SPEC)
        assert val == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("xi", [0.0, 1.3, -4.7, 20.0])
    def test_x_exponential_closed_form(self, xi):
        # int_{-inf}^0 (-x) e^{2x} e^{i xi x} dx = 1/(2 + i xi)^2
        val = halfline_fourier(lambda x: -x * np.exp(2 * x), "negative-axis", xi, SPEC)
        assert val == pytest.approx(1.0 / (2.0 + 1j * xi) ** 2, abs=1e-12)

    def test_lorentzian_at_zero(self):
        val = halfline_fourier(lambda x: 1.0 / (1.0 + x * x), "positive-axis", 0.0, SPEC)
        assert val == pytest.approx(math.pi / 2, abs=1e-10)

    def test_zero_frequency_equals_plain_integral(self):
        f = lambda x: np.exp(-1.7 * x) * (1 + x)
        val = halfline_fourier(f, "positive-axis", 0.0, SPEC)
        plain = integrate_adaptive(f, 0.0, 60.0, SPEC)
        assert val == pytest.approx(complex(plain), abs=1e-11)

    def test_truncation_independence_oscillatory(self):
        f = lambda x: 1.0 / (1.0 + x * x)
        v1 = halfline_fourier(f, "positive-axis", 3.0, SPEC)
        v2 = halfline_fourier(f, "positive-axis", 3.0,
                              QuadratureSpec(truncation_radius=3e4))
        assert abs(v1 - v2) < 1e-11

    def test_side_validation(self):
        with pytest.raises(DomainError):
            halfline_fourier(lambda x: x, "both", 0.0, SPEC)


class TestLogGamma:
    def test_at_one(self):
        assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-14)

    def test_at_half(self):
        assert log_gamma(0.5) == pytest.approx(LN_SQRT_PI, rel=1e-13)

    def test_against_high_precision_oracle(self):
        assert abs(log_gamma(1 + 1j) - LOGGAMMA_1_PLUS_I) < 1e-12

    @pytest.mark.parametrize("xi,c", sorted(LOGGAMMA_XI0))
    def test_against_oracle_at_xi0_arguments(self, xi, c):
        ref = LOGGAMMA_XI0[(xi, c)]
        for sgn in (-1.0, 1.0):
            want = ref if sgn < 0 else ref.conjugate()
            got = log_gamma(complex(c, sgn * xi / math.pi))
            assert abs(got - want) <= 1e-13 * abs(want)

    def test_recurrence_property(self):
        rng = np.random.default_rng(17)
        z = rng.uniform(0.5, 5.0, 100) + 1j * rng.uniform(-100.0, 100.0, 100)
        res = log_gamma(z + 1) - log_gamma(z) - np.log(z)
        assert np.max(np.abs(res)) < 1e-11

    @pytest.mark.parametrize("z", [0.0, -1.0, -2.0, -7.0])
    def test_poles(self, z):
        with pytest.raises(PoleError):
            log_gamma(z)

    def test_array_shape(self):
        z = np.array([[1.0, 2.0], [0.5 + 1j, 3.0]])
        out = log_gamma(z)
        assert out.shape == z.shape


class TestQuadratureSpec:
    def test_validation(self):
        with pytest.raises(DomainError):
            QuadratureSpec(rel_tol=0.0)
        with pytest.raises(DomainError):
            QuadratureSpec(abs_tol=-1.0)
        with pytest.raises(DomainError):
            QuadratureSpec(max_subdivisions=0)

    def test_error_estimate_contract(self):
        val, err = integrate_err(lambda t: np.sin(7 * t) / (1 + t * t), 0, 30, SPEC)
        assert err <= max(SPEC.abs_tol, SPEC.rel_tol * abs(val)) * 1.0001
