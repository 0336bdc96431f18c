"""Wiener-Hopf kernel factorization: gamma factors, Plemelj boundary values,
the combined factors, and the cached Cauchy integral."""

import math

import numpy as np
import pytest

from interfrac import _kernels
from interfrac.errors import DomainError
from interfrac.kernel import KernelFactors
from interfrac.model import Bimaterial
from interfrac.numerics import QuadratureSpec
from interfrac.weightfn import WeightField
from oracles import (factors_checked, pv_cauchy_per_target,
                     pv_integral_even_logkernel)

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
        # every public method with a checked input, scalar and array
        for fn in (kf.xi, kf.ln_xi_star, kf.xi_star, kf.cauchy_integral,
                   kf.xi_star_plus, kf.xi_star_minus, kf.b_plus, kf.b_minus,
                   kf.factorization_residual):
            for x in (0.0, np.array([1.0, 0.0, -2.0])):
                with pytest.raises(DomainError):
                    fn(x)


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

    @pytest.mark.parametrize("mu0", [1.0, 0.01, 4e4])
    def test_guard_on_complex_input(self, mu0):
        # real input skips the guard (Re(1 + w) = 1); complex input keeps it,
        # from the edge Im z = +-pi mu0 / 2 on
        k = KernelFactors(mu0)
        edge = 0.5 * math.pi * mu0
        for z in (0.3 * mu0 + 1j * edge, np.array([1.0, 2.0 + 1j * edge]),
                  np.array([0.5 + 3j * edge])):
            with pytest.raises(DomainError):
                k.xi0_minus(z)
            with pytest.raises(DomainError):
                k.xi0_plus(np.conjugate(z))
        assert np.isfinite(k.xi0_minus(0.3 * mu0 + 0.99j * edge))

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


class TestBatchRule:
    # every fourth node of the phase table's grid: three blocks of targets
    GRID = np.geomspace(1e-9, 1e9, 4501)[::4]

    @pytest.mark.parametrize("mu0", [1.0, 4e4, 0.01])
    def test_batch_matches_per_target_loop(self, mu0):
        s = self.GRID * mu0
        batch = _kernels.pv_cauchy_batch(s, mu0)
        loop = pv_cauchy_per_target(s, mu0)
        assert np.max(np.abs(batch - loop) / np.abs(loop)) <= 1e-13

    @pytest.mark.parametrize("mu0", [1.0, 4e4, 0.01])
    def test_scalar_and_zero_d(self, mu0):
        for x in (3.7e-8, 0.9, 2.0e6):
            s = x * mu0
            ref = pv_cauchy_per_target(s, mu0)
            for arg in (s, np.array(s)):
                out = _kernels.pv_cauchy_batch(arg, mu0)
                assert isinstance(out, float)
                assert out == pytest.approx(ref, rel=1e-13, abs=0.0)

    def test_shapes(self):
        s = np.array([[0.5, 1.0], [2.0, 3.0]])
        assert _kernels.pv_cauchy_batch(s, 1.0).shape == (2, 2)
        assert _kernels.pv_cauchy_batch(np.array([]), 1.0).shape == (0,)


class TestCheckOnce:
    """The factors check their input once and compose from unchecked
    internals; the values must be those composed through the checked public
    methods, bit for bit, including outside the table's [1e-9, 1e9] mu0."""

    @staticmethod
    def points(mu0):
        half = np.concatenate([np.geomspace(1e-13, 1e13, 211),
                               [1e-9, 1e9, 0.5e-9, 2e9]]) * mu0
        return np.concatenate([-half[::-1], half])

    @pytest.mark.parametrize("mu0", [1.0, 0.01, 4e4])
    def test_factors_bitwise(self, mu0):
        k = KernelFactors(mu0)
        x = self.points(mu0)
        ref = factors_checked(k, x)
        for name in ("xi_star_plus", "xi0_plus", "xi0_minus", "b_plus", "b_minus"):
            assert np.array_equal(getattr(k, name)(x), ref[name]), name

    def test_jump_u_bitwise(self):
        field = WeightField(Bimaterial(3.0, 1.0, 0.25))
        x = self.points(field.kernel.mu0)
        assert np.array_equal(field.jump_u(x),
                              factors_checked(field.kernel, x)["jump_u"])

    def test_scalar_bitwise(self, kf):
        for x in (-2e10, -0.3, 4e-11, 7.0):
            ref = factors_checked(kf, np.array(x))
            for name in ("xi_star_plus", "b_plus", "b_minus"):
                out = getattr(kf, name)(x)
                assert isinstance(out, complex)
                assert out == complex(ref[name]), name


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
