"""Wiener-Hopf kernel factorization: gamma factors, Plemelj boundary values,
the combined factors, and the cached Cauchy integral."""

import math

import numpy as np
import pytest

from interfrac import _kernels
from interfrac.errors import DomainError
from interfrac.kernel import KernelFactors
from interfrac.numerics import QuadratureSpec
from oracles import pv_integral_even_logkernel

# frozen: Gamma(1 + 1/pi) / Gamma(1/2 + 1/pi), mpmath at 40 digits
XI0_PLUS_AT_I = 0.78203543087545788394


@pytest.fixture(scope="module")
def kf():
    return KernelFactors(1.0)


def log_grid(mu0, n=100):
    half = np.geomspace(1e-3 * mu0, 1e3 * mu0, n)
    return np.concatenate([-half[::-1], half])


class TestKernelValues:
    def test_total(self, kf):
        assert kf.xi(1.0) == pytest.approx(2.0)
        assert kf.xi(-1.0) == pytest.approx(2.0)
        assert kf.xi(1e8) == pytest.approx(1.0, rel=1e-7)

    def test_xi_star_value(self, kf):
        assert kf.xi_star(1.0) == pytest.approx(math.tanh(1.0) * 2.0, rel=1e-14)
        assert kf.xi_star(-1.0) == pytest.approx(kf.xi_star(1.0))

    def test_xi_star_near_zero_leading_order(self, kf):
        # Xi_* = 1 + x + O(x^2); the definition fixes the x^2 coefficient -1/3
        x = np.array([1e-5, 1e-4, 1e-3])
        vals = kf.xi_star(x)
        assert np.allclose((vals - 1.0) / x, 1.0, atol=2e-3)
        c2 = (kf.xi_star(1e-4) - 1.0 - 1e-4) / 1e-8
        assert c2 == pytest.approx(-1.0 / 3.0, abs=1e-3)

    def test_xi_star_large(self, kf):
        x = 50.0
        assert kf.xi_star(x) == pytest.approx(1.0 + 1.0 / x, rel=1e-12)

    def test_zero_rejected(self, kf):
        for fn in (kf.xi, kf.xi_star, kf.xi_star_plus, kf.b_plus):
            with pytest.raises(DomainError):
                fn(0.0)


class TestGammaFactor:
    def test_value_at_zero(self, kf):
        assert abs(kf.xi0_plus(0.0) - 1.0 / math.sqrt(math.pi)) < 1e-10

    def test_imaginary_axis_anchor(self, kf):
        v = kf.xi0_plus(1j)
        assert v.imag == pytest.approx(0.0, abs=1e-14)
        assert v.real == pytest.approx(XI0_PLUS_AT_I, rel=1e-13)

    @pytest.mark.parametrize("x", [100.0, 1000.0])
    def test_stirling_three_terms(self, kf, x):
        beta = -1j * x / (math.pi * kf.mu0)
        s3 = np.sqrt(beta) + 0.125 / np.sqrt(beta) + beta ** -1.5 / 128.0
        err = abs(kf.xi0_plus(x) - s3)
        # remainder is the next Stirling coefficient, 5/1024 ~ 0.0049
        assert err * abs(beta) ** 2.5 < 0.05

    def test_reflection_between_factors(self, kf):
        z = 0.35 + 0.2j
        assert kf.xi0_minus(-z) == pytest.approx(kf.xi0_plus(z), rel=1e-14)

    def test_analyticity_guard(self, kf):
        with pytest.raises(DomainError):
            kf.xi0_plus(-2j * math.pi)
        with pytest.raises(DomainError):
            kf.xi0_minus(2j * math.pi)

    def test_coth_identity(self, kf):
        x = np.geomspace(1e-2, 50.0, 60)
        lhs = kf.xi0_plus(x) * kf.xi0_minus(x) * (math.pi * kf.mu0 / x)
        rhs = 1.0 / np.tanh(x / kf.mu0)
        assert np.max(np.abs(lhs / rhs - 1.0)) < 1e-8


class TestPlemeljFactor:
    def test_modulus_identity(self, kf):
        grid = log_grid(kf.mu0)
        res = np.abs(np.abs(kf.xi_star_plus(grid)) ** 2 - kf.xi_star(grid))
        assert np.max(res / kf.xi_star(grid)) < 1e-8

    def test_conjugate_pair(self, kf):
        grid = log_grid(kf.mu0, 40)
        assert np.allclose(kf.xi_star_minus(grid),
                           np.conj(kf.xi_star_plus(grid)), atol=1e-14)

    def test_limits_at_zero_and_infinity(self, kf):
        assert kf.xi_star_plus(1e-9) == pytest.approx(1.0, abs=1e-7)
        assert kf.xi_star_plus(1e9) == pytest.approx(1.0, abs=1e-7)

    def test_scale_covariance(self):
        k1 = KernelFactors(1.0)
        k2 = KernelFactors(7.3)
        for x in (0.17, 2.2, 40.0):
            assert k2.xi_star_plus(7.3 * x) == pytest.approx(
                k1.xi_star_plus(x), abs=1e-8)

    def test_cached_vs_direct_cauchy(self):
        mu0 = 2.5
        x = np.geomspace(1e-6, 1e6, 25) * mu0
        cached = KernelFactors(mu0).cauchy_integral(x)
        direct = _kernels.pv_cauchy_batch(x / mu0, 1.0) / mu0
        assert np.max(np.abs(cached - direct)) < 1e-9

    def test_batch_rule_matches_adaptive(self):
        spec = QuadratureSpec()
        for mu0, x in [(1.0, 0.03), (1.0, 5.0), (4e4, 17.0), (0.01, 2.0)]:
            adaptive = pv_integral_even_logkernel(
                lambda t: _kernels.ln_xi_star(t, mu0), x, spec)
            batch = _kernels.pv_cauchy_batch(x, mu0)
            assert batch == pytest.approx(adaptive, abs=1e-10 * max(1, abs(adaptive)))


class TestCombinedFactors:
    def test_factorization_identity_on_grid(self, kf):
        grid = log_grid(kf.mu0)
        assert np.max(kf.factorization_residual(grid)) < 1e-6

    def test_residual_even(self, kf):
        for x in (0.02, 1.3, 700.0):
            assert kf.factorization_residual(x) == pytest.approx(
                kf.factorization_residual(-x), abs=1e-12)

    def test_b_scaling_small(self, kf):
        # |B(+-)| ~ |xi|^{-1/2} with prefactor Xi0(0) Xi_*(0) = 1/sqrt(pi)
        for x in (1e-8, 1e-6):
            assert abs(kf.b_plus(x)) * math.sqrt(x) == pytest.approx(
                1.0 / math.sqrt(math.pi), rel=1e-3)

    def test_b_scaling_large(self, kf):
        # |B(+-)| -> 1/sqrt(pi mu0)
        for x in (1e6, 1e8):
            assert abs(kf.b_minus(x)) == pytest.approx(
                1.0 / math.sqrt(math.pi * kf.mu0), rel=1e-4)

    def test_b_conjugate_symmetry(self, kf):
        x = np.geomspace(0.01, 100, 20)
        assert np.allclose(kf.b_plus(-x), np.conj(kf.b_plus(x)), atol=1e-13)
        assert np.allclose(kf.b_minus(-x), np.conj(kf.b_minus(x)), atol=1e-13)

    def test_residual_improves_with_gamma_accuracy(self, kf):
        # the identity is exact; the measured residual sits at roundoff level
        grid = log_grid(kf.mu0, 50)
        assert np.max(kf.factorization_residual(grid)) < 1e-10


class TestValidation:
    def test_mu0_positive(self):
        with pytest.raises(DomainError):
            KernelFactors(0.0)

    def test_array_shapes(self, kf):
        x = np.array([[0.5, 1.0], [-2.0, 3.0]])
        assert kf.xi_star_plus(x).shape == x.shape
        assert kf.factorization_residual(x).shape == x.shape
