"""Wiener-Hopf kernel factorization: gamma factors, Plemelj boundary values,
the combined factors, and the cached Cauchy integral."""

import math

import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator

from interfrac import _kernels
from interfrac.errors import DomainError
from interfrac import kernel
from interfrac.kernel import KernelFactors, _phase, _ratio_phase
from interfrac.model import (Bimaterial, InclusionSpec, point_triple,
                             smooth_exponential)
from interfrac.numerics import QuadratureSpec
from interfrac.perturbation import delta_sigma0
from interfrac.unperturbed import UnperturbedSolution
from interfrac.weightfn import WeightField, sigma0
from oracles import (factors_checked, pv_cauchy_per_target,
                     pv_integral_even_logkernel)

# frozen: Gamma(1 + 1/pi) / Gamma(1/2 + 1/pi), mpmath at 40 digits
XI0_PLUS_AT_I = 0.78203543087545788394

# frozen: (Re z, Re, Im) of Xi_0^+(z) = Gamma(1 - iz/pi) / Gamma(1/2 - iz/pi)
# at mu0 = 1, mpmath at 40 digits at the w = -iz/pi the library forms; out
# to |w| = 1e10, where the difference of two log-gammas lost 2e-6
RATIO_FROZEN = [
    (0.003, 0.5641899354657115, -0.0007468815652484773),
    (-0.003, 0.5641899354657115, 0.0007468815652484773),
    (1.5, 0.6394156011804955, -0.34445133589903226),
    (-1.5, 0.6394156011804955, 0.34445133589903226),
    (9.0, 1.2481562140844777, -1.1431951400166889),
    (-9.0, 1.2481562140844777, 1.1431951400166889),
    (24.5, 2.0060809352831575, -1.9427381430847352),
    (-24.5, 2.0060809352831575, 1.9427381430847352),
    (25.5, 2.0453632112698865, -1.9832779511884864),
    (-25.5, 2.0453632112698865, 1.9832779511884864),
    (60.0, 3.1103548519894795, -3.0698999765029713),
    (-60.0, 3.1103548519894795, 3.0698999765029713),
    (300.0, 6.918922123853812, -6.900832014995255),
    (-300.0, 6.918922123853812, 6.900832014995255),
    (30000.0, 69.09973438991574, -69.09792538677857),
    (-30000.0, 69.09973438991574, 69.09792538677857),
    (3000000.0, 690.9883893928219, -690.9882084925083),
    (-3000000.0, 690.9883893928219, 690.9882084925083),
    (300000000.0, 6909.882998471726, -6909.882980381694),
    (-300000000.0, 6909.882998471726, 6909.882980381694),
    (30000000000.0, 69098.8298951716, -69098.82989336259),
    (-30000000000.0, 69098.8298951716, 69098.82989336259),
    (31000000000.0, 70241.0366948962, -70241.03669311662),
    (-31000000000.0, 70241.0366948962, 70241.03669311662),
]

# frozen: (y, theta(y)) with theta(y) = arg Gamma(1 + iy) / Gamma(1/2 + iy),
# mpmath at 40 digits; on both sides of the switch to the series at |y| = 8
THETA_FROZEN = [
    (1e-08, 1.3862943611198904e-08),
    (0.0001, 0.00013862943370787534),
    (0.01, 0.013860540119367794),
    (0.1, 0.1362857779227333),
    (0.35, 0.4063281530805768),
    (0.5, 0.506670903216623),
    (1.0, 0.6533674038750359),
    (2.0, 0.7221832982868229),
    (3.7, 0.7515091616784123),
    (5.0, 0.7603559805994013),
    (7.99, 0.7697433483678202),
    (8.0, 0.7697629426092426),
    (8.01, 0.7697824878294416),
    (10.0, 0.7728929393188109),
    (30.0, 0.7812313037651923),
    (100.0, 0.7841481581889587),
    (1000.0, 0.78527316339224),
    (100000.0, 0.7853969133974483),
    (10000000.0, 0.7853981508974484),
    (10000000000.0, 0.7853981633849483),
]

# frozen: (Re z, Im z, Re, Im) of e^z E1(z), mpmath at 30 digits: |z| from
# 1e-6 to 1e5 on either side of the series/fraction switches (|z| = 38,
# |z| + Re z = 4) and at arg z = +-(pi - 1e-9), beside the E1 cut
E1_FROZEN = [
    (1e-06, 0.0, 13.238309131365003, 0.0),
    (5.403023058681398e-07, 8.414709848078964e-07, 13.238303427514676, -0.9999885591833713),
    (-4.161468365471424e-07, -9.092974268256817e-07, 13.238290786430644, 1.9999862208663417),
    (-1e-06, 1.0000002052050508e-15, 13.23828065477522, -3.141589510998697),
    (-1e-06, -1.0000002052050508e-15, 13.23828065477522, 3.141589510998697),
    (0.5, 0.0, 0.9229106324837305, 0.0),
    (0.2701511529340699, 0.42073549240394825, 0.8247427132556241, -0.5419345493150954),
    (-0.2080734182735712, -0.45464871341284085, 0.5026911366877836, 1.1108485826865448),
    (-0.5, 5.000001026025254e-10, -0.27549829759853395, -1.905472263867929),
    (-0.5, -5.000001026025254e-10, -0.27549829759853395, 1.905472263867929),
    (2.0, 0.0, 0.3613286168882226, 0.0),
    (1.0806046117362795, 1.682941969615793, 0.27583882913359475, -0.26850557986969065),
    (-0.8322936730942848, -1.8185948536513634, -0.0009666277992570149, 0.47320345027277944),
    (-2.0, 2.0000004104101018e-09, -0.6704827089397365, -0.4251683319286018),
    (-2.0, -2.0000004104101018e-09, -0.6704827089397365, 0.4251683319286018),
    (3.0, 0.0, 0.2620837402553185, 0.0),
    (1.6209069176044193, 2.5244129544236893, 0.1889156808239886, -0.2031261177526497),
    (-1.2484405096414273, -2.727892280477045, -0.038015529100646685, 0.3306605139600916),
    (-3.0, 3.0000006156151526e-09, -0.4945764008794091, -0.15641068871198344),
    (-3.0, -3.0000006156151526e-09, -0.4945764008794091, 0.15641068871198344),
    (5.0, 0.0, 0.1704221762847322, 0.0),
    (2.701511529340699, 4.207354924039483, 0.11441007402067775, -0.13699262301272544),
    (-2.080734182735712, -4.546487134128409, -0.04672452169474698, 0.2001952611107741),
    (-5.0, 5.000001026025255e-09, -0.27076625538521776, -0.021167885146435646),
    (-5.0, -5.000001026025255e-09, -0.27076625538521776, 0.021167885146435646),
    (8.0, 0.0, 0.1122796392534993, 0.0),
    (4.322418446945118, 6.731767878463172, 0.0711022325998007, -0.09212140905732234),
    (-3.3291746923771393, -7.274379414605454, -0.038578829409483664, 0.12297658183846605),
    (-8.0, 8.000001641640407e-09, -0.1477309983649699, -0.001053887109220482),
    (-8.0, -8.000001641640407e-09, -0.1477309983649699, 0.001053887109220482),
    (20.0, 0.0, 0.04771854549596084, 0.0),
    (10.806046117362795, 16.82941969615793, 0.02783322961993474, -0.039857512012568964),
    (-8.322936730942848, -18.185948536513635, -0.01893532214706663, 0.04724738098547355),
    (-20.0, 2.000000410410102e-08, -0.052797795279648, -6.53126099524836e-09),
    (-20.0, -2.000000410410102e-08, -0.052797795279648, 6.53126099524836e-09),
    (37.9, 0.0, 0.02572314580032149, 0.0),
    (20.477457392402496, 31.891750324219277, 0.014511294367319526, -0.021576471297898994),
    (-15.771965105136697, -34.46237247669333, -0.010489665918033905, 0.024505606411615494),
    (-37.9, 3.790000777727143e-08, -0.02712140539687437, -2.790137925761036e-11),
    (-37.9, -3.790000777727143e-08, -0.02712140539687437, 2.790137925761036e-11),
    (38.1, 0.0, 0.025591408640389335, 0.0),
    (20.585517853576125, 32.060044521180856, 0.014433955041128155, -0.021466431970996687),
    (-15.855194472446126, -34.64423196205848, -0.010437346120370087, 0.02437437130689779),
    (-38.1, 3.810000781831244e-08, -0.0269749648660855, -2.7746256325458905e-11),
    (-38.1, -3.810000781831244e-08, -0.0269749648660855, 2.7746256325458905e-11),
    (40.0, 0.0, 0.024404115079628575, 0.0),
    (21.61209223472559, 33.65883939231586, 0.013738285797048779, -0.020474433123907624),
    (-16.645873461885696, -36.37189707302727, -0.009965017277328762, 0.023194279332498107),
    (-40.0, 4.000000820820204e-08, -0.025658862785975144, -2.635453019368319e-11),
    (-40.0, -4.000000820820204e-08, -0.025658862785975144, 2.635453019368319e-11),
    (1000.0, 0.0, 0.0009990019940238808, 0.0),
    (540.3023058681398, 841.4709848078965, 0.0005407164766482487, -0.0008405619741389216),
    (-416.1468365471424, -909.2974268256817, -0.0004154912717329442, 0.0009100536645408523),
    (-1000.0, 1.000000205205051e-06, -0.0010010020060241206, -1.0020062297374222e-12),
    (-1000.0, -1.000000205205051e-06, -0.0010010020060241206, 1.0020062297374222e-12),
    (100000.0, 0.0, 9.99990000199994e-06, 0.0),
    (54030.230586813974, 84147.09848078965, 5.403064671385106e-06, -8.414618918618568e-06),
    (-41614.68365471424, -90929.74268256818, -4.1614029991889875e-06, 9.093049947947456e-06),
    (-100000.0, 0.00010000002052050509, -1.000010000200006e-05, -1.0000202058091791e-14),
    (-100000.0, -0.00010000002052050509, -1.000010000200006e-05, 1.0000202058091791e-14),
]


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

    @staticmethod
    def checked_methods(kf):
        # every public method with a checked input
        return (kf.xi, kf.ln_xi_star, kf.xi_star, kf.cauchy_integral,
                kf.xi_star_plus, kf.xi_star_minus, kf.b_plus, kf.b_minus,
                kf.factorization_residual)

    def test_zero_rejected(self, kf):
        # scalar and array
        for fn in self.checked_methods(kf):
            for x in (0.0, np.array([1.0, 0.0, -2.0])):
                with pytest.raises(DomainError):
                    fn(x)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, kf, bad):
        # and [U], through B^+
        field = WeightField(Bimaterial(3.0, 1.0, 0.25))
        for fn in self.checked_methods(kf) + (field.jump_u,):
            for x in (bad, np.array([1.0, bad, -2.0])):
                with pytest.raises(DomainError, match="finite"):
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

    def test_real_axis_ratio_frozen(self, kf):
        # the asymptotic log-ratio from |w| = 8 on; below it the two
        # log-gammas, within their own rounding
        z = np.array([r[0] for r in RATIO_FROZEN])
        want = np.array([complex(r[1], r[2]) for r in RATIO_FROZEN])
        got = kf.xi0_plus(z)
        tol = np.where(np.abs(z) / math.pi >= 8.0, 1e-15, 4e-15)
        assert np.all(np.abs(got - want) <= tol * np.abs(want))
        assert kf.xi0_minus(-z[-1]) == kf.xi0_plus(z[-1]) == got[-1]

    def test_coth_identity(self, kf):
        x = np.geomspace(1e-2, 50.0, 60)
        lhs = kf.xi0_plus(x) * kf.xi0_minus(x) * (math.pi * kf.mu0 / x)
        rhs = 1.0 / np.tanh(x / kf.mu0)
        assert np.max(np.abs(lhs / rhs - 1.0)) < 1e-8


class TestScaledE1:
    def test_frozen_values(self):
        z = np.array([complex(a, b) for a, b, _, _ in E1_FROZEN])
        want = np.array([complex(c, d) for _, _, c, d in E1_FROZEN])
        got = _kernels.scaled_e1(z)
        assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))

    def test_shapes_and_points_alone(self):
        # a point's value does not depend on the batch around it, beyond
        # the rounding of numpy's vector loops
        z = np.array([complex(a, b) for a, b, _, _ in E1_FROZEN])
        batch = _kernels.scaled_e1(z.reshape(6, 10))
        assert batch.shape == (6, 10)
        alone = np.array([_kernels.scaled_e1(v) for v in z])
        assert _kernels.scaled_e1(z[0]).shape == ()
        assert np.all(np.abs(alone - batch.ravel()) <= 1e-14 * np.abs(alone))

    @pytest.mark.parametrize("x", [0.5, 5.0, 30.0, 37.9])
    def test_signed_zero_picks_the_side(self, x):
        # E1(-x + i0) - E1(-x - i0) = -2 pi i, so the scaled values differ
        # by -2 pi i e^-x and are conjugate
        above, below = _kernels.scaled_e1(np.array([complex(-x, 0.0),
                                                    complex(-x, -0.0)]))
        assert below == np.conj(above)
        jump = -2j * math.pi * math.exp(-x)
        assert abs((above - below) - jump) <= 1e-12 * abs(jump)


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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("mu0, x", [(1e-10, 1e300), (1e-10, -1e300),
                                        (4e4, 5e-324)])
    def test_where_the_ratio_under_or_overflows(self, mu0, x):
        # |x|/mu0 is inf or 0; H keeps its end rule through ln|x| - ln mu0,
        # and Xi_*^+/- tend to 1
        k = KernelFactors(mu0)
        for arg in (x, np.array([x])):
            h = k.cauchy_integral(arg)
            if abs(x) < 1.0:
                # c0 - ln s carries H over from x = 1e-300, where the ratio
                # is a normal float (clamping s to 5e-324 is 1.4 % off)
                assert h == pytest.approx(
                    k.cauchy_integral(1e-300)
                    + (math.log(1e-300) - math.log(x)) / mu0, rel=1e-14)
            else:
                # (c1 - ln s)/s^2 underflows
                assert h == 0.0
            for fn in (k.xi_star_plus, k.xi_star_minus):
                assert fn(arg) == pytest.approx(1.0, abs=1e-15)

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
    internals; Xi_*^+ and Xi_0^+- must be those composed through the checked
    public methods, bit for bit, including outside the table's [1e-9, 1e9]
    mu0. B^+ is in polar form, B^- = conj B^+ and [U] reads B^+, so those
    three are compared to the oracle's product route (with its own minus
    formulas) within 2e-14 relative: the log-gamma difference of the
    product route is itself off by up to 7.5e-15."""

    @staticmethod
    def points(mu0):
        half = np.concatenate([np.geomspace(1e-13, 1e13, 211),
                               [1e-9, 1e9, 0.5e-9, 2e9]]) * mu0
        return np.concatenate([-half[::-1], half])

    @staticmethod
    def assert_close(got, want, name):
        assert np.max(np.abs(got - want) / np.abs(want)) <= 2e-14, name

    @pytest.mark.parametrize("mu0", [1.0, 0.01, 4e4])
    def test_factors_bitwise(self, mu0):
        k = KernelFactors(mu0)
        x = self.points(mu0)
        ref = factors_checked(k, x)
        for name in ("xi_star_plus", "xi0_plus", "xi0_minus"):
            assert np.array_equal(getattr(k, name)(x), ref[name]), name
        for name in ("b_plus", "b_minus"):
            self.assert_close(getattr(k, name)(x), ref[name], name)

    def test_jump_u_matches_product_route(self):
        field = WeightField(Bimaterial(3.0, 1.0, 0.25))
        x = self.points(field.kernel.mu0)
        self.assert_close(field.jump_u(x),
                          factors_checked(field.kernel, x)["jump_u"], "jump_u")

    def test_scalar_bitwise(self, kf):
        for x in (-2e10, -0.3, 4e-11, 7.0):
            ref = factors_checked(kf, np.array(x))
            for name in ("xi_star_plus", "b_plus", "b_minus"):
                out = getattr(kf, name)(x)
                assert isinstance(out, complex)
                if name == "xi_star_plus":
                    assert out == complex(ref[name]), name
                else:
                    self.assert_close(out, complex(ref[name]), name)


class TestRatioPhase:
    """theta(y) = arg Gamma(1 + iy) / Gamma(1/2 + iy), the phase of B^+ that
    replaces the two log-gammas."""

    def test_frozen(self):
        y = np.array([r[0] for r in THETA_FROZEN])
        want = np.array([r[1] for r in THETA_FROZEN])
        assert np.max(np.abs(_ratio_phase(y) - want)) <= 1e-15
        assert np.max(np.abs(_ratio_phase(-y) + want)) <= 1e-15

    def test_shapes(self):
        y = np.array([[0.3, 9.0], [-12.0, -7.5]])
        got = _ratio_phase(y)
        assert got.shape == y.shape
        # one point at a time (numpy may round a one-element array in the
        # last bit differently from a longer one)
        for i in np.ndindex(y.shape):
            assert abs(got[i] - _ratio_phase(np.array([y[i]]))[0]) <= 1e-15
        assert _ratio_phase(np.array([0.3, 0.4])).shape == (2,)
        assert _ratio_phase(np.array([9.0, 40.0])).shape == (2,)

    def test_no_log_gamma_in_b_plus_or_jump_u(self, monkeypatch):
        def refuse(z):
            raise AssertionError("log-gamma called")

        monkeypatch.setattr(_kernels, "log_gamma_raw", refuse)
        field = WeightField(Bimaterial(3.0, 1.0, 0.25))
        x = np.geomspace(1e-6, 1e6, 50) * field.kernel.mu0
        field.kernel.b_plus(np.concatenate([-x, x]))
        field.jump_u(np.concatenate([-x, x]))


def refuse_all(*args, **kwargs):
    raise AssertionError("direct phase called")


class TestPhaseTable:
    """Inside s = |x|/mu0 in [1e-9, 1e9] B^+ reads its phase
    sgn x (pi/4 - Phi(s)), Phi(s) = s Hhat(s)/pi + theta(s/pi), from the
    polynomial table fitted to the PCHIP Hhat and _ratio_phase; outside,
    _phase takes the end rules of Hhat and theta."""

    @staticmethod
    def direct_phi(k, s):
        x = s * k.mu0
        return (x * k.cauchy_integral(x) / math.pi
                + _ratio_phase(x / (math.pi * k.mu0)))

    @staticmethod
    def direct_b_plus(k, x):
        # the polar B^+ with its phase from the PCHIP Hhat and theta
        x = np.asarray(x, dtype=float)
        a = np.abs(x)
        phase = (np.copysign(0.25 * math.pi, x)
                 - x * k.cauchy_integral(x) / math.pi
                 - _ratio_phase(x / (math.pi * k.mu0)))
        return (np.sqrt((a + k.mu0) / (math.pi * k.mu0)) / np.sqrt(a)
                * np.exp(1j * phase))

    @pytest.mark.parametrize("mu0", [1.0, 0.01, 4e4])
    def test_matches_direct_phase(self, mu0):
        k = KernelFactors(mu0)
        rng = np.random.default_rng(20)
        random = np.exp(rng.uniform(math.log(1e-9), math.log(1e9), 100_000))
        edges = np.geomspace(1e-9, 1e9, 4501)
        for s in (random, edges):
            assert np.max(np.abs(_phase(s) - self.direct_phi(k, s))) <= 5e-15

    @pytest.mark.parametrize("mu0", [1.0, 0.01, 4e4])
    def test_off_table_matches_direct_phase(self, mu0):
        k = KernelFactors(mu0)
        below = np.geomspace(1e-300, 1e-9, 3001)[:-1]
        above = np.geomspace(1e9, 1e300, 3001)[1:]
        for s in (below, np.nextafter(1e-9, 0.0), above, np.nextafter(1e9, 2e9)):
            assert np.max(np.abs(_phase(s) - self.direct_phi(k, s))) <= 5e-16

    @pytest.mark.filterwarnings("error")
    def test_phase_where_s_under_or_overflows(self):
        # |x|/mu0 can round to 0 or inf; Phi tends to 0 and pi/4 there
        got = _phase(np.array([0.0, 5e-324, np.inf, 1e308]))
        assert abs(got[0]) <= 1e-320 and abs(got[1]) <= 1e-320
        assert got[2] == got[3] == pytest.approx(0.25 * math.pi, abs=1e-16)

    @pytest.mark.parametrize("mu0", [1.0, 0.25, 4e4])
    def test_b_plus_across_the_table_ends(self, mu0):
        k = KernelFactors(mu0)
        ends = np.array([1e-9, 1e9])
        s = np.concatenate([ends, np.nextafter(ends, 0.0),
                            np.nextafter(ends, np.inf), [0.5e-9, 3.0, 2e9]])
        x = np.concatenate([s, -s]) * mu0
        got = k.b_plus(x)
        want = self.direct_b_plus(k, x)
        assert np.max(np.abs(got - want) / np.abs(want)) <= 5e-15
        for i, xi in enumerate(x):
            one = k.b_plus(xi)
            assert isinstance(one, complex)
            assert k.b_plus(np.array(xi)) == one
            assert abs(one - got[i]) <= 1e-15 * abs(got[i])
        assert k.b_plus(x.reshape(3, 6)).shape == (3, 6)
        assert k.b_plus(np.array([])).shape == (0,)

    @staticmethod
    def refuse_direct_phase(monkeypatch):
        # the direct phase (_cauchy and the PCHIP Hhat, _ratio_phase and its
        # shifted branch) refuses to run, as does every other PCHIP table
        monkeypatch.setattr(KernelFactors, "_cauchy", refuse_all)
        monkeypatch.setattr(kernel, "_ratio_phase", refuse_all)
        monkeypatch.setattr(kernel, "_shifted_phase", refuse_all)
        monkeypatch.setattr(PchipInterpolator, "__call__", refuse_all)

    def test_b_plus_reads_only_the_table(self, monkeypatch):
        field = WeightField(Bimaterial(3.0, 1.0, 0.25))
        k = field.kernel
        x = np.geomspace(1e-14, 1e14, 301) * k.mu0
        x = np.concatenate([-x[::-1], x])
        want = k.b_plus(x)
        self.refuse_direct_phase(monkeypatch)
        assert np.array_equal(k.b_plus(x), want)
        field.jump_u(x)

    def test_solves_read_only_the_table(self, monkeypatch):
        # a whole sigma0 solve for both loads and a warm delta_sigma0, run
        # after the tables are built, take every B^+ phase from _phase and
        # phi^+ from its LogTable: no PCHIP call
        material = Bimaterial(3.0, 1.0, 0.25)
        load = smooth_exponential()
        solution = UnperturbedSolution(load, material)
        field = WeightField(material, kernel=solution.kernel)
        inc = InclusionSpec(d=1.0, phi=1.2, alpha=0.3, ell_a=0.2, ell_b=0.1,
                            nu_star=5.0)
        want = delta_sigma0(load, material, inc, solution=solution, field=field)
        self.refuse_direct_phase(monkeypatch)
        for one in (point_triple(1.0, 1.0, 0.75), load):
            sigma0(one, material)
        assert delta_sigma0(load, material, inc, solution=solution,
                            field=field) == want


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

    @pytest.mark.parametrize("x", [1e200, -1e300])
    def test_b_far_out_without_overflow(self, x):
        # neither the H end rule nor the series phase squares |x|
        b = KernelFactors(1.0).b_plus(x)
        assert b == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-15)

    def test_b_subnormal_without_overflow(self):
        # |B^+| ~ 1/sqrt(pi x) = 2.5e161 at the smallest subnormal, where
        # the quotient (x + mu0)/(pi mu0 x) alone would overflow
        b = KernelFactors(1.0).b_plus(np.array([5e-324]))
        assert abs(b[0]) == pytest.approx(
            1.0 / (math.sqrt(math.pi) * math.sqrt(5e-324)), rel=1e-15)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("mu0, x", [(4e4, 5e-324), (1e300, 1e-300)])
    def test_b_where_the_ratio_underflows(self, mu0, x):
        # |x|/mu0 underflows to 0, where the phase's limit is sgn(x) pi/4
        k = KernelFactors(mu0)
        modulus = math.sqrt((x + mu0) / (math.pi * mu0)) / math.sqrt(x)
        for sign in (1.0, -1.0):
            for b in (k.b_plus(np.array([sign * x]))[0], k.b_plus(sign * x)):
                assert np.angle(b) == pytest.approx(sign * math.pi / 4,
                                                    abs=2e-16)
                assert abs(b) == pytest.approx(modulus, rel=1e-15)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("mu0, x", [(1e-10, 1e300), (1e-10, 1.7e308),
                                        (1e-300, 1e10)])
    def test_b_where_the_ratio_overflows(self, mu0, x):
        # |x|/mu0 overflows to inf, where |B^+| tends to 1/sqrt(pi mu0) and
        # the phase to 0; the quotient (|x| + mu0)/(pi mu0) overflows there
        k = KernelFactors(mu0)
        limit = 1.0 / math.sqrt(math.pi * mu0)
        for sign in (1.0, -1.0):
            for b in (k.b_plus(np.array([sign * x]))[0], k.b_plus(sign * x)):
                assert b == pytest.approx(limit, rel=1e-15)

    def test_b_conjugate_symmetry(self, kf):
        x = np.geomspace(0.01, 100, 20)
        assert np.allclose(kf.b_plus(-x), np.conj(kf.b_plus(x)), atol=1e-13)
        assert np.allclose(kf.b_minus(-x), np.conj(kf.b_minus(x)), atol=1e-13)

    def test_residual_sees_the_phase(self, kf, monkeypatch):
        # the polar B^+ meets the identity by construction; paired with the
        # product-route B^-, the residual still reads a phase error of B^+
        grid = log_grid(kf.mu0, 50)
        monkeypatch.setattr(kernel, "_phase", lambda s: _phase(s) + 1e-8)
        res = kf.factorization_residual(grid)
        assert np.all(np.abs(res - 1e-8) < 1e-12)

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
