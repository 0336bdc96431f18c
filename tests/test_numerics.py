"""Quadrature, principal-value, half-line Fourier and log-gamma kernels."""

import ast
import cmath
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.special import erf

import interfrac
from interfrac import _kernels
from interfrac.errors import (DomainError, NonFiniteSample)
from interfrac.numerics import (LogTable, QuadratureSpec, algebraic_tail,
                                half_line, integrate_err, oscillatory_tail,
                                period_seeds)
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
    """The value of integrate_err, the adaptive GL12 rule."""

    def test_constant(self):
        assert integrate_err(lambda t: np.ones_like(t), 0, 1, SPEC)[0] == pytest.approx(1.0, abs=1e-13)

    def test_quadratic(self):
        assert integrate_err(lambda t: t ** 2, 0, 1, SPEC)[0] == pytest.approx(1 / 3, rel=1e-13)

    def test_gaussian_against_high_precision(self):
        val = integrate_err(lambda t: np.exp(-t * t), -8, 8, SPEC)[0]
        assert abs(val - SQRT_PI) < 1e-10

    def test_linearity_random_integrands(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            a, b = rng.uniform(-2, 2, 2)
            c = rng.uniform(0.5, 3.0)
            f = lambda t: np.sin(c * t) + t ** 2
            g = lambda t: np.exp(-t * t) * np.cos(t)
            lhs = integrate_err(lambda t: a * f(t) + b * g(t), -1, 2, SPEC)[0]
            rhs = (a * integrate_err(f, -1, 2, SPEC)[0]
                   + b * integrate_err(g, -1, 2, SPEC)[0])
            assert abs(lhs - rhs) <= 10 * SPEC.rel_tol * max(1.0, abs(lhs))

    def test_reversed_bounds_negate(self):
        v1 = integrate_err(lambda t: t ** 3 + 1, 0, 2, SPEC)[0]
        v2 = integrate_err(lambda t: t ** 3 + 1, 2, 0, SPEC)[0]
        assert v1 == pytest.approx(-v2, rel=1e-13)


    def test_non_finite_sample_raises(self):
        with pytest.raises(NonFiniteSample):
            integrate_err(
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


class TestHalfLine:
    @pytest.mark.parametrize("seeds", [(), (0.3, 2.5, 7.0, 11.0)])
    @pytest.mark.parametrize("omega", [0.0, 20.0])
    def test_inverse_sqrt_exponential(self, omega, seeds):
        # int_0^X u^{-1/2} e^{-cu} du = sqrt(pi/c) erf(sqrt(cX)), c = 1 - i omega;
        # at omega = 0 the panels resolve the integrand at once and the
        # estimate is at rounding level, so a few ulps are allowed on top
        c, x_cut = 1.0 - 1j * omega, 30.0
        val, est = half_line(lambda u: np.exp(-c * u) / np.sqrt(u), 1.0, x_cut,
                             SPEC, seeds)
        exact = cmath.sqrt(math.pi / c) * erf(cmath.sqrt(c * x_cut))
        assert abs(val - exact) <= est + 4 * np.finfo(float).eps * abs(exact)
        assert est <= SPEC.tolerance(exact)

    def test_inverse_sqrt_plus_root_log(self):
        # u^{-1/2} + u^{1/2} ln u is the small-u form of the Betti
        # integrands, from Phi(s) ~ s ln s: in u = t^2 the head sees
        # 2 + 4 t^2 ln t, which its 12 halvings resolve toward t = 0
        x_cut = 30.0
        val, est = half_line(lambda u: 1.0 / np.sqrt(u) + np.sqrt(u) * np.log(u),
                             1.0, x_cut, SPEC)
        exact = (2.0 * math.sqrt(x_cut)
                 + x_cut ** 1.5 * (2.0 / 3.0 * math.log(x_cut) - 4.0 / 9.0))
        assert abs(val - exact) <= est + 4 * np.finfo(float).eps * abs(exact)
        assert est <= SPEC.tolerance(exact)

    def test_only_numerics_calls_integrate_err(self):
        # one home for the half-line split and its seed ladders: every other
        # module integrates through half_line (the tracer-only imports of
        # integrate_err are bindings, not calls)
        callers = []
        for path in sorted(Path(interfrac.__file__).parent.glob("*.py")):
            if path.name == "numerics.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Call) and "integrate_err" in (
                        getattr(node.func, "id", None),
                        getattr(node.func, "attr", None)):
                    callers.append(f"{path.name}:{node.lineno}")
        assert callers == []


class TestPeriodSeeds:
    def test_one_seed_per_period(self):
        lo, hi, omega = 0.3, 50.0, 2.0
        period = 2.0 * math.pi / omega
        seeds = period_seeds(lo, hi, omega, 3000)
        assert seeds.size == math.floor((hi - lo) / period)
        assert seeds[0] == pytest.approx(lo + period, rel=1e-15)
        assert np.diff(seeds) == pytest.approx(period, rel=1e-12)
        assert seeds[-1] < hi <= seeds[-1] + period

    def test_step_widens_at_the_cap(self):
        # 15915 periods fit; 3000 steps of (hi - lo)/3000 still reach hi
        lo, hi, cap = 1.0, 1e4, 3000
        seeds = period_seeds(lo, hi, 10.0, cap)
        step = (hi - lo) / cap
        assert seeds.size == cap - 1
        assert seeds[0] == pytest.approx(lo + step, rel=1e-15)
        assert np.diff(seeds) == pytest.approx(step, rel=1e-9)
        assert seeds[-1] + step == pytest.approx(hi, rel=1e-15)

    @pytest.mark.parametrize("hi", [1.0, 0.5])
    def test_none_within_one_period(self, hi):
        assert period_seeds(0.0, hi, 2.0 * math.pi, 10).size == 0


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
        plain = integrate_err(f, 0.0, 60.0, SPEC)[0]
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
        assert _kernels.log_gamma_raw(1.0) == pytest.approx(0.0, abs=1e-14)

    def test_at_half(self):
        assert _kernels.log_gamma_raw(0.5) == pytest.approx(LN_SQRT_PI,
                                                            rel=1e-13)

    def test_against_high_precision_oracle(self):
        assert abs(_kernels.log_gamma_raw(1 + 1j) - LOGGAMMA_1_PLUS_I) < 1e-12

    @pytest.mark.parametrize("xi,c", sorted(LOGGAMMA_XI0))
    def test_against_oracle_at_xi0_arguments(self, xi, c):
        ref = LOGGAMMA_XI0[(xi, c)]
        for sgn in (-1.0, 1.0):
            want = ref if sgn < 0 else ref.conjugate()
            got = _kernels.log_gamma_raw(complex(c, sgn * xi / math.pi))
            assert abs(got - want) <= 1e-13 * abs(want)

    def test_recurrence_property(self):
        rng = np.random.default_rng(17)
        z = rng.uniform(0.5, 5.0, 100) + 1j * rng.uniform(-100.0, 100.0, 100)
        res = (_kernels.log_gamma_raw(z + 1) - _kernels.log_gamma_raw(z)
               - np.log(z))
        assert np.max(np.abs(res)) < 1e-11

    def test_array_shape(self):
        z = np.array([[1.0, 2.0], [0.5 + 1j, 3.0]])
        out = _kernels.log_gamma_raw(z)
        assert out.shape == z.shape


def _refusing(limit):
    """t^2, or DomainError for a node array that reaches past limit; a
    single float passes, so a retry node by node would hide the error."""
    def f(t):
        if np.ndim(t) and np.max(t) > limit:
            raise DomainError(f"node above {limit}")
        return t * t
    return f


@pytest.mark.parametrize("call", [
    lambda f: integrate_err(f, 0.0, 1.0, SPEC),
    lambda f: oscillatory_tail(f, 3.0, 0.5),
    lambda f: algebraic_tail(f, 0.5, SPEC),
], ids=["integrate_err", "oscillatory_tail", "algebraic_tail"])
def test_integrand_error_reaches_caller(call):
    # numerics calls the integrand on node arrays only, so its own typed
    # error is not retried one node at a time and lost
    with pytest.raises(DomainError, match="node above 0.4"):
        call(_refusing(0.4))


class TestQuadratureSpec:
    def test_validation(self):
        with pytest.raises(DomainError):
            QuadratureSpec(rel_tol=0.0)
        with pytest.raises(DomainError):
            QuadratureSpec(abs_tol=-1.0)
        with pytest.raises(DomainError):
            QuadratureSpec(max_subdivisions=0)

    @pytest.mark.parametrize("kwargs", [
        dict(abs_tol=math.nan), dict(rel_tol=math.inf),
        dict(max_subdivisions=2.5), dict(truncation_radius=math.inf)],
        ids=["abs_tol_nan", "rel_tol_inf", "max_subdivisions_2.5",
             "truncation_radius_inf"])
    def test_non_finite_or_fractional_refused(self, kwargs):
        # each used to pass and break later: nan never converges, 2.5 fails
        # a slice, inf overflows the spectral cut
        with pytest.raises(DomainError):
            QuadratureSpec(**kwargs)

    def test_huge_finite_values_accepted(self):
        spec = QuadratureSpec(rel_tol=1e300, abs_tol=1e300,
                              max_subdivisions=np.int64(7),
                              truncation_radius=1e300)
        assert spec.max_subdivisions == 7

    def test_error_estimate_contract(self):
        val, err = integrate_err(lambda t: np.sin(7 * t) / (1 + t * t), 0, 30, SPEC)
        assert err <= max(SPEC.abs_tol, SPEC.rel_tol * abs(val)) * 1.0001


class TestLogTable:
    """The log-panel quintic table: values, clamped ends, shapes, nodes."""

    COEFFS = np.array([2e-3, -1e-2, 5e-2, 0.2, -0.7, 0.3])

    def quintic(self, u, complex_values):
        p = np.polyval(self.COEFFS, u)
        return p + 1j * np.polyval(self.COEFFS[::-1], u) if complex_values else p

    @pytest.mark.parametrize("complex_values", [False, True])
    def test_reproduces_a_quintic_in_ln_x(self, complex_values):
        table = LogTable(lambda u: self.quintic(u, complex_values),
                         1e-3, 1e3, 40)
        x = np.exp(np.random.default_rng(4).uniform(math.log(1e-3),
                                                    math.log(1e3), 500))
        want = self.quintic(np.log(x), complex_values)
        assert np.iscomplexobj(table(x)) == complex_values
        assert np.max(np.abs(table(x) - want)) <= 1e-13 * np.max(np.abs(want))

    def test_clamps_to_the_end_values(self):
        table = LogTable(lambda u: self.quintic(u, True), 1e-3, 1e3, 40)
        assert np.all(table(np.array([0.0, 1e-9, 1e-4])) == table(1e-3))
        assert np.all(table(np.array([1e4, 1e300, math.inf])) == table(1e3))

    def test_keeps_the_input_shape(self):
        table = LogTable(lambda u: self.quintic(u, False), 1e-3, 1e3, 40)
        for x in (2.0, np.array(2.0), np.full(7, 2.0), np.full((3, 6), 2.0),
                  np.zeros(0)):
            assert np.shape(table(x)) == np.shape(x)
        assert np.all(table(np.full((3, 6), 2.0)) == table(2.0))

    def test_nodes(self):
        seen = []

        def f(u):
            seen.append(u.shape)
            return np.exp(u)

        table = LogTable(f, 1e-2, 1e5, 21)
        assert seen == [(21, 6)]
        assert table.x.shape == (6 * 21,)
        assert np.all((table.x >= 1e-2) & (table.x <= 1e5))
        assert np.allclose(table(table.x), table.x, rtol=1e-14)
