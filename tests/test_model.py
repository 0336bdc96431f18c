"""Domain data: materials, derived groups, loads and their transforms."""

import math

import numpy as np
import pytest

from interfrac.errors import DomainError, SelfBalanceViolation
from interfrac.model import (Bimaterial, InclusionSpec,
                             bimaterial_from_dimensionless, custom_transform,
                             derive_params, inclusion_centre,
                             point_load_transforms, point_triple,
                             smooth_exponential, smooth_load_transforms)
from interfrac.numerics import QuadratureSpec
from oracles import halfline_fourier


class TestDerivedParams:
    def test_equal_moduli(self):
        p = derive_params(Bimaterial(1.0, 1.0, 2.0), a=1.0)
        assert p.mu0 == pytest.approx(1.0)
        assert p.mu_star == 0.0
        assert p.kappa_star == pytest.approx(4.0)

    def test_contrast(self):
        p = derive_params(Bimaterial(3.0, 1.0, 1.0), a=1.0)
        assert p.mu0 == pytest.approx(4.0 / 3.0)
        assert p.mu_star == pytest.approx(0.5)
        assert p.kappa_star == pytest.approx(4.0)

    @pytest.mark.parametrize("kappa,a", [(0.3, 2.0), (5.0, 0.7)])
    def test_symmetry_gives_zero_contrast(self, kappa, a):
        p = derive_params(Bimaterial(2.2, 2.2, kappa), a=a)
        assert p.mu_star == 0.0

    def test_validation(self):
        with pytest.raises(DomainError):
            Bimaterial(-1.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            Bimaterial(1.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            derive_params(Bimaterial(1.0, 1.0, 1.0), a=0.0)

    def test_dimensionless_constructor(self):
        m = bimaterial_from_dimensionless(0.5, 4.0, a=1.0)
        p = derive_params(m, 1.0)
        assert p.mu_star == pytest.approx(0.5)
        assert p.kappa_star == pytest.approx(4.0)


class TestPointLoadTransforms:
    def test_zero_frequency(self):
        avg, jump = point_load_transforms(2.0, 1.0, 0.5, 0.0)
        assert avg == pytest.approx(2.0)
        assert jump == pytest.approx(0.0, abs=1e-15)

    def test_pi_over_b(self):
        F, a, b = 1.0, 1.0, 0.25
        xi = math.pi / b
        avg, jump = point_load_transforms(F, a, b, xi)
        assert abs(avg) < 1e-14
        assert jump == pytest.approx(-2.0 * F * np.exp(-1j * (a + b) * xi), abs=1e-12)

    def test_zero_load(self):
        avg, jump = point_load_transforms(0.0, 1.0, 0.5, 1.7)
        assert avg == 0.0 and jump == 0.0

    def test_homogeneous_in_force(self):
        xi = np.linspace(-5, 5, 11)
        a1, j1 = point_load_transforms(1.0, 1.0, 0.5, xi)
        a3, j3 = point_load_transforms(3.0, 1.0, 0.5, xi)
        assert np.allclose(a3, 3 * a1) and np.allclose(j3, 3 * j1)

    def test_precondition(self):
        with pytest.raises(DomainError):
            point_load_transforms(1.0, 1.0, 1.5, 0.0)

    def test_oscillation_components_reconstruct(self):
        load = point_triple(2.0, 1.0, 0.75)
        shifts = [s for s, _, _ in load.oscillations]
        assert shifts == sorted(set(shifts))
        xi = np.linspace(-20, 20, 41)
        avg = sum(a * np.exp(-1j * s * xi) for s, a, _ in load.oscillations)
        jump = sum(j * np.exp(-1j * s * xi) for s, _, j in load.oscillations)
        a_ref, j_ref = load.transforms(xi)
        assert np.allclose(avg, a_ref, atol=1e-14)
        assert np.allclose(jump, j_ref, atol=1e-14)


class TestSmoothLoadTransforms:
    def test_self_balance_at_zero(self):
        avg, jump = smooth_load_transforms(0.0)
        assert jump == pytest.approx(0.0, abs=1e-15)
        assert avg == pytest.approx(1.0 / 9.0)

    def test_decay(self):
        avg, jump = smooth_load_transforms(1e6)
        assert abs(avg) < 2e-12 and abs(jump) < 2e-12

    @pytest.mark.parametrize("xi", [0.0, 0.9, -2.3, 11.0])
    def test_against_halfline_quadrature(self, xi):
        spec = QuadratureSpec()
        p_plus = halfline_fourier(lambda x: -(4.0 / 9.0) * x * np.exp(2 * x),
                                  "negative-axis", xi, spec)
        p_minus = halfline_fourier(lambda x: -x * np.exp(3 * x),
                                   "negative-axis", xi, spec)
        avg, jump = smooth_load_transforms(xi)
        assert avg == pytest.approx(0.5 * (p_plus + p_minus), abs=1e-8)
        assert jump == pytest.approx(p_plus - p_minus, abs=1e-8)


class TestCrackLoad:
    @pytest.mark.parametrize("load", [point_triple(1.0, 1.0, 0.5),
                                      smooth_exponential()])
    def test_self_balance_and_total(self, load):
        load.check_self_balance()
        avg0 = complex(np.asarray(load.transform_avg(np.array([0.0])))[0])
        assert avg0.imag == pytest.approx(0.0, abs=1e-15)
        assert avg0.real > 0

    @pytest.mark.parametrize("load", [point_triple(1.5, 1.0, 0.25),
                                      smooth_exponential()])
    def test_conjugate_symmetry(self, load):
        xi = np.linspace(0.1, 30, 40)
        ap, jp = load.transforms(xi)
        am, jm = load.transforms(-xi)
        assert np.allclose(am, np.conj(ap), atol=1e-14)
        assert np.allclose(jm, np.conj(jp), atol=1e-14)

    def test_custom_transform_balance_guard(self):
        with pytest.raises(SelfBalanceViolation):
            custom_transform(lambda x: np.ones_like(x, dtype=complex),
                             lambda x: np.ones_like(x, dtype=complex),
                             decay_exponent=1.0)

    def test_custom_transform_accepts_balanced(self):
        load = custom_transform(
            lambda x: 1.0 / (1.0 + 1j * np.asarray(x)) ** 2,
            lambda x: 1j * np.asarray(x) / (1.0 + 1j * np.asarray(x)) ** 3,
            decay_exponent=1.0)
        assert load.kind == "custom-transform"

    def test_custom_requires_positive_decay(self):
        with pytest.raises(DomainError):
            custom_transform(lambda x: x, lambda x: x, decay_exponent=0.0)


class TestInclusion:
    def test_centre_vertical(self):
        s = InclusionSpec(d=1.0, phi=math.pi / 2, alpha=0.0, ell_a=0.1,
                          ell_b=0.05, nu_star=2.0)
        cx, cy = inclusion_centre(s)
        assert cx == pytest.approx(0.0, abs=1e-16)
        assert cy == pytest.approx(1.0)

    def test_centre_diagonal(self):
        s = InclusionSpec(d=2.0, phi=math.pi / 4, alpha=0.0, ell_a=0.1,
                          ell_b=0.05, nu_star=2.0)
        assert inclusion_centre(s) == pytest.approx((math.sqrt(2), math.sqrt(2)))

    def test_centre_lower_half_plane(self):
        s = InclusionSpec(d=1.0, phi=-math.pi / 2, alpha=0.0, ell_a=0.1,
                          ell_b=0.05, nu_star=2.0)
        assert inclusion_centre(s)[1] == pytest.approx(-1.0)

    def test_validation(self):
        with pytest.raises(DomainError):
            InclusionSpec(d=0.0, phi=1.0, alpha=0.0, ell_a=0.1, ell_b=0.05, nu_star=1.0)
        with pytest.raises(DomainError):
            InclusionSpec(d=1.0, phi=0.0, alpha=0.0, ell_a=0.1, ell_b=0.05, nu_star=1.0)
        with pytest.raises(DomainError):
            InclusionSpec(d=1.0, phi=1.0, alpha=0.0, ell_a=0.05, ell_b=0.1, nu_star=1.0)
        with pytest.raises(DomainError):
            InclusionSpec(d=1.0, phi=1.0, alpha=0.0, ell_a=0.1, ell_b=0.05, nu_star=-1.0)
        with pytest.raises(DomainError):
            InclusionSpec(d=1.0, phi=1.0, alpha=0.0, ell_a=1.5, ell_b=0.1, nu_star=1.0)
        rigid = InclusionSpec(d=1.0, phi=1.0, alpha=0.0, ell_a=0.1, ell_b=0.05,
                              rigid=True)
        assert rigid.epsilon == pytest.approx(0.1)
